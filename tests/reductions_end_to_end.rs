#![allow(clippy::needless_range_loop)]

//! §2.3 end to end: SGRAP instances solved through the WGRAP machinery, and
//! the ARAP extension linearising the objective.

use wgrap::core::cra::exact;
use wgrap::core::reductions::{
    arap_paper_objective, extend_for_arap, set_coverage, sgrap_to_wgrap,
};
use wgrap::prelude::*;

/// A small SGRAP instance: topic sets over 6 topics.
fn sgrap_sets() -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let papers = vec![vec![0, 1, 2], vec![2, 3], vec![4, 5, 0]];
    let reviewers = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![0, 3, 5]];
    (papers, reviewers)
}

#[test]
fn sgrap_solved_as_wgrap_matches_set_semantics() {
    let (papers, reviewers) = sgrap_sets();
    let inst = sgrap_to_wgrap(&papers, &reviewers, 6, 2, 2).unwrap();
    let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
    a.validate(&inst).unwrap();

    // Every group's vector score equals the set coverage ratio.
    for p in 0..papers.len() {
        let group_sets: Vec<&Vec<usize>> = a.group(p).iter().map(|&r| &reviewers[r]).collect();
        let via_sets = set_coverage(&group_sets, &papers[p]);
        let via_vectors = a.paper_score(&inst, Scoring::WeightedCoverage, p);
        assert!(
            (via_sets - via_vectors).abs() < 1e-12,
            "paper {p}: sets {via_sets} vs vectors {via_vectors}"
        );
    }
}

#[test]
fn sgrap_optimum_is_integral_multiple() {
    // In SGRAP every paper score is (covered topics)/|T_p|: check the exact
    // optimum is consistent with that structure.
    let (papers, reviewers) = sgrap_sets();
    let inst = sgrap_to_wgrap(&papers, &reviewers, 6, 2, 2).unwrap();
    let opt = exact::solve(&inst, Scoring::WeightedCoverage).unwrap();
    for p in 0..papers.len() {
        let s = opt.paper_score(&inst, Scoring::WeightedCoverage, p);
        let scaled = s * papers[p].len() as f64;
        assert!(
            (scaled - scaled.round()).abs() < 1e-9,
            "paper {p} score {s} is not a multiple of 1/|T_p|"
        );
    }
}

#[test]
fn arap_extension_agrees_on_full_groups() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let mut gen = |n: usize| -> Vec<TopicVector> {
        (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..4).map(|_| rng.random::<f64>()).collect();
                TopicVector::new(raw).normalized()
            })
            .collect()
    };
    let inst = Instance::new(gen(3), gen(5), 2, 2).unwrap();
    let ext = extend_for_arap(&inst).unwrap();
    let s = Scoring::WeightedCoverage;

    // Any assignment scored on the extended instance equals (1/R) times the
    // ARAP pair-sum on the original — here checked through SDGA's output.
    let a = CraAlgorithm::Sdga.run(&ext, s, 0).unwrap();
    let r_count = inst.num_reviewers() as f64;
    for p in 0..inst.num_papers() {
        let grouped = a.paper_score(&ext, s, p);
        let pair_sum = arap_paper_objective(&inst, s, a.group(p), p);
        assert!((grouped - pair_sum / r_count).abs() < 1e-9);
    }
}
