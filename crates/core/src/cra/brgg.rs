//! Best Reviewer Group Greedy (BRGG) — the §5.2 baseline that, at each
//! iteration, finds the best *(group, paper)* pair instead of the best
//! *(reviewer, paper)* pair (discussed at the start of §4.2).
//!
//! Each iteration solves one exact JRA per still-unassigned paper over the
//! reviewers with remaining capacity, then commits the paper with the
//! highest achievable coverage. A lazy max-heap avoids recomputing papers
//! whose cached best group is still fully available — sound because the
//! candidate pool only shrinks, so cached scores only over-estimate.
//!
//! The paper's finding (Figures 10–11): early papers get excellent groups,
//! which starves the tail and yields a poor *total* coverage — that emerges
//! here naturally.

use crate::assignment::Assignment;
use crate::engine::{group_score_view, CandidateSet, JraView, PruningPolicy, ScoreContext};
use crate::error::{Error, Result};
use crate::jra::bba;
use crate::problem::Instance;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Cached {
    score: f64,
    paper: usize,
    group: Vec<usize>,
}

impl PartialEq for Cached {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Cached {}
impl PartialOrd for Cached {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cached {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score)
    }
}

/// Run BRGG to a complete assignment over a [`ScoreContext`] (flat engine
/// JRA views) under a candidate pruning policy; the certification rules
/// are on [`BrggSolver::pruning`](crate::engine::BrggSolver::pruning).
pub(crate) fn solve_ctx_with(ctx: &ScoreContext<'_>, pruning: PruningPolicy) -> Result<Assignment> {
    let cands = pruning.resolve_lossy(ctx);
    solve_impl(
        ctx.instance(),
        |p, forbidden| ctx.jra_view_with_forbidden(p, forbidden),
        cands.as_ref(),
    )
}

pub(crate) fn solve_impl<'v, F>(
    inst: &Instance,
    make_view: F,
    cands: Option<&CandidateSet>,
) -> Result<Assignment>
where
    F: Fn(usize, Vec<bool>) -> JraView<'v>,
{
    let num_p = inst.num_papers();
    let mut assignment = Assignment::empty(num_p);
    let mut loads = vec![0usize; inst.num_reviewers()];
    let mut assigned = vec![false; num_p];

    let solve_jra = |p: usize, forbidden: Vec<bool>| -> Result<Cached> {
        let view = make_view(p, forbidden);
        if view.num_feasible() < inst.delta_p() {
            return Err(Error::Infeasible(format!(
                "paper {p}: not enough reviewers with capacity"
            )));
        }
        // Seed BBA's bound with a greedy group: on depleted pools (mid-run,
        // every candidate mediocre) Eq. 3 prunes poorly from a cold start,
        // and BRGG re-solves JRA thousands of times.
        let seed_group = super::ideal::greedy_group_view(&view)?;
        let seed_score = group_score_view(&view, &seed_group);
        let opts = bba::BbaOptions { initial_bound: seed_score - 1e-9, ..Default::default() };
        let res = bba::solve_view(&view, &opts)
            .ok_or_else(|| {
                Error::Infeasible(format!("paper {p}: not enough reviewers with capacity"))
            })?
            .into_iter()
            .next();
        Ok(match res {
            Some(r) if r.score >= seed_score => Cached { score: r.score, paper: p, group: r.group },
            // Everything pruned against the seed: the greedy group is optimal.
            _ => Cached { score: seed_score, paper: p, group: seed_group },
        })
    };

    let best_group = |p: usize, loads: &[usize]| -> Result<Cached> {
        let forbidden: Vec<bool> = (0..inst.num_reviewers())
            .map(|r| loads[r] >= inst.delta_r() || inst.is_coi(r, p))
            .collect();
        if let Some(cs) = cands {
            // Search the candidate pool first; a paper starved of feasible
            // candidates (capacity knots outside the top-k list) falls back
            // to the full pool below.
            let mut restricted = forbidden.clone();
            for (r, f) in restricted.iter_mut().enumerate() {
                if !cs.contains(p, r) {
                    *f = true;
                }
            }
            if restricted.iter().filter(|f| !**f).count() >= inst.delta_p() {
                return solve_jra(p, restricted);
            }
        }
        solve_jra(p, forbidden)
    };

    let mut heap = BinaryHeap::with_capacity(num_p);
    for p in 0..num_p {
        heap.push(best_group(p, &loads)?);
    }

    while let Some(top) = heap.pop() {
        if assigned[top.paper] {
            continue;
        }
        let still_available = top.group.iter().all(|&r| loads[r] < inst.delta_r());
        if !still_available {
            match best_group(top.paper, &loads) {
                Ok(c) => heap.push(c),
                // Tail paper starved of capacity: BRGG has no lookahead (the
                // paper commits whole groups greedily), so free capacity by
                // swapping an assigned pair elsewhere, then retry.
                Err(_) => {
                    super::repair_capacity(
                        inst,
                        &mut assignment,
                        &mut loads,
                        top.paper,
                        inst.delta_p(),
                    )?;
                    heap.push(best_group(top.paper, &loads)?);
                }
            }
            continue;
        }
        for &r in &top.group {
            assignment.assign(r, top.paper);
            loads[r] += 1;
        }
        assigned[top.paper] = true;
    }

    if assigned.iter().all(|&a| a) {
        Ok(assignment)
    } else {
        Err(Error::Infeasible("BRGG left papers unassigned".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::jra::JraProblem;
    use crate::score::Scoring;

    fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
        solve_ctx_with(&ScoreContext::new(inst, scoring), PruningPolicy::Exact)
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..5 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn first_committed_paper_gets_its_jra_optimum() {
        // BRGG's signature behaviour: some paper receives the globally best
        // unconstrained group.
        let inst = random_instance(5, 7, 4, 2, 21);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let mut best_jra = f64::NEG_INFINITY;
        for p in 0..inst.num_papers() {
            let problem = JraProblem::from_instance(&inst, p);
            best_jra = best_jra.max(bba::solve(&problem).unwrap().score);
        }
        let best_achieved = (0..inst.num_papers())
            .map(|p| a.paper_score(&inst, Scoring::WeightedCoverage, p))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (best_achieved - best_jra).abs() < 1e-9,
            "no paper achieved the global JRA optimum: {best_achieved} vs {best_jra}"
        );
    }

    #[test]
    fn topk_pruned_is_valid_and_auto_is_exact() {
        for seed in 0..4 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
            let exact = solve_ctx_with(&ctx, PruningPolicy::Exact).unwrap();
            let auto = solve_ctx_with(&ctx, PruningPolicy::Auto).unwrap();
            assert_eq!(exact, auto, "seed={seed}: Auto must run the dense path");
            let pruned = solve_ctx_with(&ctx, PruningPolicy::TopK(3)).unwrap();
            pruned.validate(&inst).unwrap();
        }
    }

    #[test]
    fn respects_coi() {
        let mut inst = random_instance(4, 6, 4, 2, 8);
        inst.add_coi(2, 1);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        assert!(!a.group(1).contains(&2));
        a.validate(&inst).unwrap();
    }

    #[test]
    fn tight_capacity_fills_everyone() {
        let inst = random_instance(6, 4, 4, 2, 4); // delta_r = 3, 12 = 12
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        a.validate(&inst).unwrap();
        assert_eq!(a.num_pairs(), 12);
    }
}
