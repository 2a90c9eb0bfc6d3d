//! The ideal assignment `A_I` (paper §5.2).
//!
//! For each paper independently, assign the best set of `δp` reviewers
//! *disregarding workloads*. `A_I` generally violates `δr`, so
//! `c(A_I) ≥ c(O)`, making `c(A)/c(A_I)` a lower bound on the true
//! approximation ratio `c(A)/c(O)` — the "optimality ratio" plotted in
//! Figures 10, 16, 17, 18 and 21.

use crate::assignment::Assignment;
use crate::error::{Error, Result};
use crate::jra::{bba, JraProblem};
use crate::problem::Instance;
use crate::score::Scoring;

/// How each paper's workload-free best group is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdealMode {
    /// Exact per-paper optimum via BBA. Guarantees `c(A_I) ≥ c(O)`.
    #[default]
    Exact,
    /// Greedy max-marginal-gain selection per paper (the literal reading of
    /// §5.2's "greedily assign to each paper the best set"); faster but only
    /// `(1−1/e)`-approximate per paper.
    Greedy,
}

/// Compute `A_I`. The result intentionally skips workload validation.
pub fn ideal_assignment(inst: &Instance, scoring: Scoring, mode: IdealMode) -> Result<Assignment> {
    let mut groups = Vec::with_capacity(inst.num_papers());
    for p in 0..inst.num_papers() {
        let problem = JraProblem::from_instance(inst, p).with_scoring(scoring);
        let group = match mode {
            IdealMode::Exact => {
                bba::solve(&problem)
                    .ok_or_else(|| {
                        Error::Infeasible(format!("paper {p} has fewer than δp candidates"))
                    })?
                    .group
            }
            IdealMode::Greedy => greedy_group(&problem)?,
        };
        groups.push(group);
    }
    Ok(Assignment::from_groups(groups))
}

pub(crate) fn greedy_group(problem: &JraProblem<'_>) -> Result<Vec<usize>> {
    greedy_group_view(&problem.view())
}

/// Greedy max-marginal-gain group over any [`JraView`] (shared by the
/// legacy and [`ScoreContext`](crate::engine::ScoreContext) paths of BRGG's
/// BBA seeding).
pub(crate) fn greedy_group_view(view: &crate::engine::JraView<'_>) -> Result<Vec<usize>> {
    if view.num_feasible() < view.delta_p {
        return Err(Error::Infeasible("too few candidates".into()));
    }
    let mut pg = crate::engine::PaperGain::new(view);
    let mut chosen = Vec::with_capacity(view.delta_p);
    let mut used = view.forbidden.clone();
    for _ in 0..view.delta_p {
        let (best, _) = (0..view.num_reviewers())
            .filter(|&r| !used[r])
            .map(|r| (r, pg.gain(view, r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("feasible count checked above");
        used[best] = true;
        pg.add(view, best);
        chosen.push(best);
    }
    chosen.sort_unstable();
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::{exact, CraAlgorithm};

    #[test]
    fn ideal_dominates_exact_optimum() {
        for seed in 0..4 {
            let inst = random_instance(3, 4, 3, 2, seed);
            let ai = ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Exact).unwrap();
            let opt = exact::solve(&inst, Scoring::WeightedCoverage).unwrap();
            assert!(
                ai.coverage_score(&inst, Scoring::WeightedCoverage)
                    >= opt.coverage_score(&inst, Scoring::WeightedCoverage) - 1e-9
            );
        }
    }

    #[test]
    fn exact_mode_dominates_greedy_mode() {
        for seed in 0..5 {
            let inst = random_instance(5, 8, 4, 3, seed);
            let e = ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Exact).unwrap();
            let g = ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Greedy).unwrap();
            assert!(
                e.coverage_score(&inst, Scoring::WeightedCoverage)
                    >= g.coverage_score(&inst, Scoring::WeightedCoverage) - 1e-9
            );
        }
    }

    #[test]
    fn optimality_ratios_are_at_most_one() {
        for seed in 0..4 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let ai = ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Exact).unwrap();
            let denom = ai.coverage_score(&inst, Scoring::WeightedCoverage);
            for a in [
                CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
                CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
            ] {
                let ratio = a.coverage_score(&inst, Scoring::WeightedCoverage) / denom;
                assert!(ratio <= 1.0 + 1e-9 && ratio > 0.0);
            }
        }
    }

    #[test]
    fn ideal_may_violate_workload() {
        // One dominant reviewer: the ideal assignment piles work on them.
        let inst = random_instance(6, 6, 4, 1, 77);
        let mut reviewers = inst.reviewers().to_vec();
        reviewers[0] = crate::topic::TopicVector::uniform(4).scaled(4.0);
        let inst = inst.with_reviewers(reviewers).unwrap();
        let ai = ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Exact).unwrap();
        assert!(ai.loads(6)[0] > inst.delta_r());
    }
}
