//! The "ILP" baseline of §5.2 — exact optimisation of the *assignment-based*
//! (ARAP, Definition 5) objective `Σ_p Σ_{r∈A[p]} c(r, p)`, which scores
//! pairs individually rather than groups.
//!
//! The constraint matrix of this program is totally unimodular (it is a
//! transportation polytope), so the integer optimum equals the LP optimum
//! and can be computed exactly — and much faster — by minimum-cost
//! maximum-flow: `source → paper (δp) → reviewer (1) → sink (δr)`. That is
//! what we do; the result is identical to what `lp_solve` would return for
//! the ILP, which is why the paper's label is kept.

use crate::assignment::Assignment;
use crate::engine::{PairMatrix, ScoreContext};
use crate::error::{Error, Result};
use crate::problem::Instance;
use crate::score::Scoring;
use wgrap_lap::flow::{cost_shift, MinCostFlow, COST_SCALE};

/// Exactly maximise the per-pair objective subject to the WGRAP constraints,
/// over a [`ScoreContext`]'s flat pair-score matrix.
pub(crate) fn solve_ctx(ctx: &ScoreContext<'_>) -> Result<Assignment> {
    solve_impl(ctx.instance(), ctx.pair_matrix())
}

pub(crate) fn solve_impl(inst: &Instance, pairs: &PairMatrix) -> Result<Assignment> {
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    if num_p == 0 {
        return Ok(Assignment::empty(0));
    }

    // Every pair, conflicted ones too: the shift fixes every cost, and so
    // how equal-cost optima break ties.
    let weights = (0..num_p).flat_map(|p| pairs.paper_row(p).iter().copied());
    let shift = cost_shift(weights, num_p, num_p * inst.delta_p())
        .map_err(|e| Error::InvalidInstance(format!("per-pair ILP: {e}")))?;

    // Node ids: 0 = source, 1..=P papers, P+1..=P+R reviewers, P+R+1 sink.
    let s = 0;
    let t = num_p + num_r + 1;
    let mut net = MinCostFlow::new(num_p + num_r + 2);
    for p in 0..num_p {
        net.add_edge(s, 1 + p, inst.delta_p() as i64, 0);
    }
    let mut pair_edge = vec![usize::MAX; num_p * num_r];
    for p in 0..num_p {
        for r in 0..num_r {
            if inst.is_coi(r, p) {
                continue;
            }
            let cost = ((shift - pairs.get(r, p)) * COST_SCALE).round() as i64;
            pair_edge[p * num_r + r] = net.add_edge(1 + p, 1 + num_p + r, 1, cost);
        }
    }
    for r in 0..num_r {
        net.add_edge(1 + num_p + r, t, inst.delta_r() as i64, 0);
    }

    let demand = (num_p * inst.delta_p()) as i64;
    let (flow, _) = net.min_cost_flow(s, t, demand);
    if flow < demand {
        return Err(Error::Infeasible(
            "per-pair ILP: conflicts starve some paper of reviewers".into(),
        ));
    }

    let mut assignment = Assignment::empty(num_p);
    for p in 0..num_p {
        for r in 0..num_r {
            let e = pair_edge[p * num_r + r];
            if e != usize::MAX && net.flow_on(e) > 0 {
                assignment.assign(r, p);
            }
        }
    }
    Ok(assignment)
}

/// The pair-sum objective this baseline optimises (not the group coverage!).
pub fn pair_objective(inst: &Instance, scoring: Scoring, a: &Assignment) -> f64 {
    a.pairs().map(|(r, p)| scoring.pair_score(inst.reviewer(r), inst.paper(p))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::CraAlgorithm;

    fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
        solve_ctx(&ScoreContext::new(inst, scoring))
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..5 {
            let inst = random_instance(9, 6, 4, 3, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn maximises_pair_objective_over_heuristics() {
        // On ITS objective the flow solution must dominate everything.
        for seed in 0..5 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let ilp = solve(&inst, Scoring::WeightedCoverage).unwrap();
            let obj = pair_objective(&inst, Scoring::WeightedCoverage, &ilp);
            for other in [CraAlgorithm::Greedy, CraAlgorithm::Sdga] {
                let other = other.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
                assert!(
                    obj >= pair_objective(&inst, Scoring::WeightedCoverage, &other) - 1e-6,
                    "seed={seed}"
                );
            }
        }
    }

    #[test]
    fn usually_loses_on_group_coverage() {
        // The §5.2 story: optimising pairs individually is not optimising
        // group coverage. Across seeds, SDGA must win on coverage at least
        // as often as ILP does.
        let mut sdga_wins = 0;
        let mut ilp_wins = 0;
        for seed in 0..10 {
            let inst = random_instance(10, 6, 5, 3, 100 + seed);
            let ilp = solve(&inst, Scoring::WeightedCoverage).unwrap();
            let sd = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
            let ci = ilp.coverage_score(&inst, Scoring::WeightedCoverage);
            let cs = sd.coverage_score(&inst, Scoring::WeightedCoverage);
            if cs > ci + 1e-9 {
                sdga_wins += 1;
            } else if ci > cs + 1e-9 {
                ilp_wins += 1;
            }
        }
        assert!(
            sdga_wins >= ilp_wins,
            "SDGA won {sdga_wins}, ILP won {ilp_wins} on group coverage"
        );
    }

    #[test]
    fn coi_respected() {
        let mut inst = random_instance(4, 5, 4, 2, 3);
        inst.add_coi(1, 2);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        assert!(!a.group(2).contains(&1));
        a.validate(&inst).unwrap();
    }
}
