//! Empirical validation of the paper's approximation guarantees against the
//! true optimum (exhaustive search on tiny instances).
//!
//! * Theorem 2: SDGA ≥ `1 − (1 − 1/δp)^{δp−1}` (≥ 1/2) of the optimum.
//! * §4.1: Greedy ≥ 1/3 of the optimum (Long et al.'s bound).
//! * SDGA-SRA is between SDGA and the optimum.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wgrap::core::cra::sdga::approx_ratio_general;
use wgrap::core::cra::{exact, sra};
use wgrap::core::engine::{PruningPolicy, ScoreContext};
use wgrap::prelude::*;

fn random_instance(p: usize, r: usize, dim: usize, delta_p: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = |n: usize| -> Vec<TopicVector> {
        (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..dim).map(|_| rng.random::<f64>().powi(2)).collect();
                TopicVector::new(raw).normalized()
            })
            .collect()
    };
    let papers = gen(p);
    let reviewers = gen(r);
    let delta_r = Instance::minimal_delta_r(p, r, delta_p);
    Instance::new(papers, reviewers, delta_p, delta_r).unwrap()
}

#[test]
fn sdga_respects_theorem2_bound() {
    let scoring = Scoring::WeightedCoverage;
    let mut worst: f64 = 1.0;
    for seed in 0..20 {
        let delta_p = 2 + (seed as usize % 2);
        let inst = random_instance(3, 4 + (seed as usize % 2), 3, delta_p, seed);
        let opt = exact::solve(&inst, scoring).unwrap().coverage_score(&inst, scoring);
        let got = CraAlgorithm::Sdga.run(&inst, scoring, 0).unwrap().coverage_score(&inst, scoring);
        let ratio = got / opt;
        worst = worst.min(ratio);
        assert!(
            ratio >= approx_ratio_general(delta_p) - 1e-9,
            "seed {seed}: SDGA ratio {ratio} below Theorem 2 bound {}",
            approx_ratio_general(delta_p)
        );
    }
    // On benign random instances SDGA is far above the worst-case bound.
    assert!(worst > 0.8, "unexpectedly poor SDGA ratios (worst {worst})");
}

#[test]
fn greedy_respects_one_third_bound() {
    let scoring = Scoring::WeightedCoverage;
    for seed in 0..20 {
        let inst = random_instance(3, 5, 3, 2, 1000 + seed);
        let opt = exact::solve(&inst, scoring).unwrap().coverage_score(&inst, scoring);
        let got =
            CraAlgorithm::Greedy.run(&inst, scoring, 0).unwrap().coverage_score(&inst, scoring);
        assert!(got / opt >= 1.0 / 3.0 - 1e-9, "seed {seed}: greedy ratio {}", got / opt);
    }
}

#[test]
fn sra_sits_between_sdga_and_optimum() {
    let scoring = Scoring::WeightedCoverage;
    for seed in 0..10 {
        let inst = random_instance(3, 4, 3, 2, 2000 + seed);
        let opt = exact::solve(&inst, scoring).unwrap().coverage_score(&inst, scoring);
        let initial = CraAlgorithm::Sdga.run(&inst, scoring, 0).unwrap();
        let base = initial.coverage_score(&inst, scoring);
        let out = sra::refine(
            &ScoreContext::new(&inst, scoring),
            initial,
            &sra::SraOptions { omega: 20, seed, ..Default::default() },
            PruningPolicy::Exact,
        );
        assert!(out.score >= base - 1e-12);
        assert!(out.score <= opt + 1e-9);
    }
}

#[test]
fn guarantee_holds_for_alternative_scorings() {
    // Appendix B: the SDGA guarantee holds for any submodular objective.
    for scoring in Scoring::ALL {
        for seed in 0..6 {
            let inst = random_instance(3, 4, 3, 2, 3000 + seed);
            let opt = exact::solve(&inst, scoring).unwrap().coverage_score(&inst, scoring);
            if opt <= 0.0 {
                continue;
            }
            let got =
                CraAlgorithm::Sdga.run(&inst, scoring, 0).unwrap().coverage_score(&inst, scoring);
            assert!(got / opt >= 0.5 - 1e-9, "{scoring:?} seed {seed}: ratio {}", got / opt);
        }
    }
}
