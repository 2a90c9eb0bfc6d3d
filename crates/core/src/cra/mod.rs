//! Conference Reviewer Assignment — the general WGRAP (paper §4).
//!
//! `P` papers must each receive `δp` reviewers, no reviewer taking more than
//! `δr` papers, maximising total weighted coverage. The problem is NP-hard
//! (it generalises SGRAP); the paper's solution is the Stage Deepening
//! Greedy Algorithm ([`sdga`], 1/2-approximate, `1−1/e` when `δp | δr`)
//! refined by a stochastic post-process ([`sra`]).
//!
//! Every baseline from the §5.2 evaluation is implemented, each with one
//! public way in over a [`ScoreContext`](crate::engine::ScoreContext):
//!
//! | §5.2 name | module | entry |
//! |---|---|---|
//! | SM (stable matching) | [`stable_matching`] | [`StableMatchingSolver`](crate::engine::StableMatchingSolver) |
//! | ILP (per-pair objective) | [`arap_ilp`] | [`IlpSolver`](crate::engine::IlpSolver) |
//! | BRGG | [`brgg`] | [`BrggSolver`](crate::engine::BrggSolver) |
//! | Greedy (Long et al., 1/3-approx) | [`greedy`] | [`GreedySolver`](crate::engine::GreedySolver) |
//! | SDGA | [`sdga`] | [`SdgaSolver`](crate::engine::SdgaSolver) |
//! | SDGA-SRA | [`sdga`] + [`sra`] | [`SdgaSraSolver`](crate::engine::SdgaSraSolver), or [`sra::refine`] |
//! | SDGA-LS (Fig. 12) | [`sdga`] + [`local_search`] | [`local_search::refine`] |
//!
//! [`CraAlgorithm`] dispatches over the six §5.2 methods. The seed's
//! boxed-vector path that every engine entry reproduces bit for bit
//! survives only as a test oracle (the crate's `#[cfg(test)]` `legacy`
//! module).
//!
//! [`bids`] implements the paper's §6 future-work extension: a combined
//! coverage + reviewer-preference objective (still submodular, so the SDGA
//! guarantee carries over), solved by [`bids::solve_sdga`].
//!
//! [`ideal`] computes the workload-free ideal assignment `A_I` used as the
//! optimality-ratio denominator, and [`exact`] the true optimum `O` by
//! exhaustive search (tiny instances only; used to validate approximation
//! ratios empirically).

pub mod arap_ilp;
pub mod bids;
pub mod brgg;
pub mod exact;
pub mod greedy;
pub mod ideal;
pub mod local_search;
pub mod partition;
pub mod sdga;
pub mod sra;
pub mod stable_matching;

use crate::assignment::Assignment;
use crate::error::{Error, Result};
use crate::problem::Instance;
use crate::score::Scoring;

/// The CRA methods evaluated in §5.2, for uniform dispatch from harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CraAlgorithm {
    /// Gale–Shapley stable matching on pair scores.
    StableMatching,
    /// Exact optimiser of the *per-pair* (ARAP) objective — the paper's
    /// "ILP" baseline.
    ArapIlp,
    /// Best Reviewer Group Greedy.
    Brgg,
    /// The 1/3-approximation greedy of Long et al.
    Greedy,
    /// Stage Deepening Greedy Algorithm.
    Sdga,
    /// SDGA followed by stochastic refinement.
    SdgaSra,
}

impl CraAlgorithm {
    /// All algorithms in the §5.2 table order.
    pub const ALL: [CraAlgorithm; 6] = [
        CraAlgorithm::StableMatching,
        CraAlgorithm::ArapIlp,
        CraAlgorithm::Brgg,
        CraAlgorithm::Greedy,
        CraAlgorithm::Sdga,
        CraAlgorithm::SdgaSra,
    ];

    /// The label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            CraAlgorithm::StableMatching => "SM",
            CraAlgorithm::ArapIlp => "ILP",
            CraAlgorithm::Brgg => "BRGG",
            CraAlgorithm::Greedy => "Greedy",
            CraAlgorithm::Sdga => "SDGA",
            CraAlgorithm::SdgaSra => "SDGA-SRA",
        }
    }

    /// Run the algorithm with its default parameters through the engine
    /// ([`Solver`](crate::engine::Solver) dispatch over a fresh
    /// [`ScoreContext`](crate::engine::ScoreContext), no pruning). `seed`
    /// feeds the stochastic refinement (ignored by deterministic methods).
    pub fn run(self, inst: &Instance, scoring: Scoring, seed: u64) -> Result<Assignment> {
        let ctx = crate::engine::ScoreContext::new(inst, scoring).with_seed(seed);
        self.solver_with(crate::engine::PruningPolicy::Exact).solve(&ctx)
    }
}

/// Is `(r, p)` assignable given the instance and current state?
pub(crate) fn pair_feasible(
    inst: &Instance,
    group: &[usize],
    loads: &[usize],
    r: usize,
    p: usize,
) -> bool {
    loads[r] < inst.delta_r() && !group.contains(&r) && !inst.is_coi(r, p)
}

/// Make room for `paper` when it is starved of usable reviewers (everyone
/// with spare capacity is either conflicted or already in its group): find a
/// saturated reviewer `r` usable by `paper`, and a committed paper `q` of
/// `r` that can substitute `r` with a reviewer that still has capacity.
/// Repeats until `paper` can see at least `need` usable reviewers.
///
/// Shared by the greedy and BRGG baselines — neither has lookahead, so both
/// can strand a tail paper on tight instances; the paper's experiments run
/// at the minimum feasible `δr`, where this matters.
pub(crate) fn repair_capacity(
    inst: &Instance,
    assignment: &mut Assignment,
    loads: &mut [usize],
    paper: usize,
    need: usize,
) -> Result<()> {
    // Reviewer → committed papers index, maintained across swap iterations.
    // The seed version rescanned every group for every candidate reviewer
    // (O(R·P·δp) per freed unit); the index makes each swap probe touch only
    // the papers the reviewer actually serves.
    let mut rev_papers: Vec<Vec<usize>> = vec![Vec::new(); inst.num_reviewers()];
    for q in 0..inst.num_papers() {
        for &r in assignment.group(q) {
            rev_papers[r].push(q);
        }
    }
    loop {
        let usable = (0..inst.num_reviewers())
            .filter(|&r| {
                loads[r] < inst.delta_r()
                    && !inst.is_coi(r, paper)
                    && !assignment.group(paper).contains(&r)
            })
            .count();
        if usable >= need {
            return Ok(());
        }
        let mut freed = false;
        'outer: for r in 0..inst.num_reviewers() {
            if loads[r] < inst.delta_r()
                || inst.is_coi(r, paper)
                || assignment.group(paper).contains(&r)
            {
                continue; // only saturated reviewers usable by `paper` help
            }
            for qi in 0..rev_papers[r].len() {
                let q = rev_papers[r][qi];
                if q == paper {
                    continue;
                }
                let pos = assignment
                    .group(q)
                    .iter()
                    .position(|&x| x == r)
                    .expect("reviewer->papers index out of sync with assignment");
                // Substitute r with a reviewer that has spare capacity. The
                // substitute must not itself drop out of `paper`'s usable
                // set by saturating (unless it was never usable), otherwise
                // the swap is a wash and the loop would not progress.
                let sub = (0..inst.num_reviewers()).find(|&r2| {
                    loads[r2] < inst.delta_r()
                        && !assignment.group(q).contains(&r2)
                        && !inst.is_coi(r2, q)
                        && (loads[r2] + 1 < inst.delta_r()
                            || inst.is_coi(r2, paper)
                            || assignment.group(paper).contains(&r2))
                });
                if let Some(r2) = sub {
                    assignment.group_mut(q)[pos] = r2;
                    loads[r] -= 1;
                    loads[r2] += 1;
                    rev_papers[r].remove(qi);
                    rev_papers[r2].push(q);
                    freed = true;
                    break 'outer;
                }
            }
        }
        if !freed {
            return Err(Error::Infeasible(format!(
                "could not free reviewer capacity for paper {paper}"
            )));
        }
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use crate::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    /// 3 papers, 3 reviewers, delta_p=1, delta_r=1: papers 0,1 assigned,
    /// paper 2 starved because its only capacity-holder scenario requires a
    /// swap.
    #[test]
    fn frees_capacity_via_swap() {
        let inst = Instance::new(
            vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0]), tv(&[0.5, 0.5])],
            vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0]), tv(&[0.5, 0.5])],
            1,
            1,
        )
        .unwrap();
        // Assign r0 -> p0, r1 -> p1; paper 2 needs a reviewer but r2 is the
        // only one free — that's fine, no repair needed.
        let mut a = Assignment::from_groups(vec![vec![0], vec![1], vec![]]);
        let mut loads = a.loads(3);
        repair_capacity(&inst, &mut a, &mut loads, 2, 1).unwrap();
        assert_eq!(a.group(0), &[0]);

        // Now saturate r2 on p0 instead: paper 2 can only be served if the
        // repair swaps p0 back to r0.
        let mut a = Assignment::from_groups(vec![vec![2], vec![1], vec![]]);
        let mut loads = a.loads(3);
        loads[0] = 1; // pretend r0 is also busy... then nothing is free:
        let err = repair_capacity(&inst, &mut a, &mut loads, 2, 1);
        assert!(err.is_err(), "no capacity anywhere must error");

        let mut a = Assignment::from_groups(vec![vec![2], vec![1], vec![]]);
        let mut loads = a.loads(3);
        repair_capacity(&inst, &mut a, &mut loads, 2, 1).unwrap();
        // After repair some reviewer has spare capacity for paper 2.
        let usable = (0..3).filter(|&r| loads[r] < 1).count();
        assert!(usable >= 1);
        // Loads stay consistent with the assignment.
        assert_eq!(loads, a.loads(3));
    }

    /// The repair must not hand the paper a conflicted reviewer's capacity.
    #[test]
    fn respects_coi_during_repair() {
        let mut inst = Instance::new(
            vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0]), tv(&[0.5, 0.5])],
            vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0]), tv(&[0.5, 0.5])],
            1,
            1,
        )
        .unwrap();
        inst.add_coi(0, 2); // reviewer 0 conflicted with paper 2
        inst.add_coi(1, 2); // reviewer 1 conflicted with paper 2
        let mut a = Assignment::from_groups(vec![vec![2], vec![1], vec![]]);
        let mut loads = a.loads(3);
        // Only r2 is usable by paper 2 and it is busy on p0; the swap must
        // move p0 to r0 (free), not to r1/r2.
        repair_capacity(&inst, &mut a, &mut loads, 2, 1).unwrap();
        assert!(loads[2] < 1, "reviewer 2's capacity should have been freed");
        assert_eq!(a.group(0), &[0]);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::topic::TopicVector;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Random normalised instance with minimal workload.
    pub fn random_instance(
        num_papers: usize,
        num_reviewers: usize,
        dim: usize,
        delta_p: usize,
        seed: u64,
    ) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = |n: usize| -> Vec<TopicVector> {
            (0..n)
                .map(|_| {
                    let raw: Vec<f64> = (0..dim).map(|_| rng.random::<f64>().powi(3)).collect();
                    TopicVector::new(raw).normalized()
                })
                .collect()
        };
        let papers = gen(num_papers);
        let reviewers = gen(num_reviewers);
        let delta_r = Instance::minimal_delta_r(num_papers, num_reviewers, delta_p);
        Instance::new(papers, reviewers, delta_p, delta_r).unwrap()
    }
}
