//! Exhaustive optimal WGRAP solver (test oracle).
//!
//! The paper never computes the true optimum `O` at scale — the search space
//! is `C(R, δp)^P` — but tiny instances are enumerable, which is how we
//! validate SDGA's approximation ratio and the baselines empirically.

use crate::assignment::Assignment;
use crate::error::{Error, Result};
use crate::problem::Instance;
use crate::score::{RunningGroup, Scoring};

/// Exact optimum by depth-first enumeration over papers with a submodular
/// upper bound for pruning. Panics if the instance is beyond the guard
/// (`C(R, δp)^P` combinations is capped at ~10^8).
pub fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    let per_paper = binomial(num_r, inst.delta_p());
    assert!(
        (per_paper as f64).powi(num_p as i32) < 1e8,
        "instance too large for exhaustive search"
    );

    // Per-paper upper bound: best group ignoring workloads (JRA optimum).
    let ub: Vec<f64> = (0..num_p)
        .map(|p| {
            let problem = crate::jra::JraProblem::from_instance(inst, p).with_scoring(scoring);
            crate::jra::bba::solve(&problem)
                .map(|r| r.score)
                .ok_or_else(|| Error::Infeasible(format!("paper {p} has too few candidates")))
        })
        .collect::<Result<_>>()?;
    let mut ub_suffix = vec![0.0; num_p + 1];
    for p in (0..num_p).rev() {
        ub_suffix[p] = ub_suffix[p + 1] + ub[p];
    }

    let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
    let mut loads = vec![0usize; num_r];
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_p];

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        inst: &Instance,
        scoring: Scoring,
        p: usize,
        score_so_far: f64,
        ub_suffix: &[f64],
        loads: &mut Vec<usize>,
        groups: &mut Vec<Vec<usize>>,
        best: &mut Option<(f64, Vec<Vec<usize>>)>,
    ) {
        if p == inst.num_papers() {
            if best.as_ref().is_none_or(|(b, _)| score_so_far > *b) {
                *best = Some((score_so_far, groups.clone()));
            }
            return;
        }
        if let Some((b, _)) = best {
            if score_so_far + ub_suffix[p] <= *b {
                return;
            }
        }
        // Enumerate delta_p-subsets of feasible reviewers for paper p.
        let candidates: Vec<usize> = (0..inst.num_reviewers())
            .filter(|&r| loads[r] < inst.delta_r() && !inst.is_coi(r, p))
            .collect();
        let k = inst.delta_p();
        if candidates.len() < k {
            return;
        }
        let mut combo = vec![0usize; k];
        fn combos(
            candidates: &[usize],
            k: usize,
            start: usize,
            depth: usize,
            combo: &mut Vec<usize>,
            visit: &mut impl FnMut(&[usize]),
        ) {
            if depth == k {
                visit(combo);
                return;
            }
            for i in start..=candidates.len() - (k - depth) {
                combo[depth] = candidates[i];
                combos(candidates, k, i + 1, depth + 1, combo, visit);
            }
        }
        let mut groups_local: Vec<Vec<usize>> = Vec::new();
        combos(&candidates, k, 0, 0, &mut combo, &mut |g| {
            groups_local.push(g.to_vec());
        });
        for g in groups_local {
            let mut rg = RunningGroup::new(scoring, inst.paper(p));
            for &r in &g {
                rg.add(inst.reviewer(r));
                loads[r] += 1;
            }
            groups[p] = g.clone();
            recurse(
                inst,
                scoring,
                p + 1,
                score_so_far + rg.score(),
                ub_suffix,
                loads,
                groups,
                best,
            );
            for &r in &g {
                loads[r] -= 1;
            }
            groups[p].clear();
        }
    }

    recurse(inst, scoring, 0, 0.0, &ub_suffix, &mut loads, &mut groups, &mut best);

    match best {
        Some((_, groups)) => {
            let a = Assignment::from_groups(groups);
            a.validate(inst)?;
            Ok(a)
        }
        None => Err(Error::Infeasible("no complete assignment exists".into())),
    }
}

fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc * (n - i) as u64 / (i + 1) as u64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn optimum_dominates_every_heuristic() {
        use crate::cra::CraAlgorithm;
        for seed in 0..4 {
            let inst = random_instance(3, 4, 3, 2, seed);
            let opt = solve(&inst, Scoring::WeightedCoverage).unwrap();
            opt.validate(&inst).unwrap();
            let c_opt = opt.coverage_score(&inst, Scoring::WeightedCoverage);
            for a in [
                CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
                CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
            ] {
                assert!(a.coverage_score(&inst, Scoring::WeightedCoverage) <= c_opt + 1e-9);
            }
        }
    }

    #[test]
    fn single_paper_matches_bba() {
        let inst = random_instance(1, 6, 3, 3, 11);
        let opt = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let problem = crate::jra::JraProblem::from_instance(&inst, 0);
        let jra = crate::jra::bba::solve(&problem).unwrap();
        assert!((opt.coverage_score(&inst, Scoring::WeightedCoverage) - jra.score).abs() < 1e-9);
    }

    #[test]
    fn respects_workload_in_search() {
        // 2 papers, 2 reviewers, delta_p = 1, delta_r = 1: the only valid
        // assignments are the two perfect matchings.
        let inst = random_instance(2, 2, 3, 1, 9);
        let opt = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let loads = opt.loads(2);
        assert_eq!(loads, vec![1, 1]);
    }
}
