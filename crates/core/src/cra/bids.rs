//! Bid-aware WGRAP — the paper's §6 future work ("alternative RAP
//! formulations, e.g., where the quality of the assignment depends on both
//! reviewer relevance to the paper topics and reviewer preferences based on
//! available bids").
//!
//! Reviewers submit a bid level per paper (as in CMT/EasyChair). The
//! combined objective adds a *modular* preference term to the group
//! coverage:
//!
//! ```text
//! c_B(A) = Σ_p [ c(A[p], p) + λ · Σ_{r∈A[p]} bid(r, p) ]
//! ```
//!
//! A modular term preserves submodularity and monotonicity (Lemma 4's
//! conditions apply to the coverage part; the bid part is linear), so the
//! Stage Deepening paradigm and its Theorem 1–2 guarantees apply verbatim to
//! `c_B` — each stage simply maximises `gain + λ·bid` instead of `gain`,
//! still a linear assignment problem.

use super::sdga;
use crate::assignment::Assignment;
use crate::engine::{GainProvider, GainTable, ScoreContext};
use crate::error::Result;
use crate::problem::Instance;
use crate::score::Scoring;

/// A reviewer's declared preference for a paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BidLevel {
    /// Actively does not want the paper.
    No,
    /// No bid / indifferent (the default).
    #[default]
    Neutral,
    /// Willing.
    Maybe,
    /// Eager.
    Yes,
}

impl BidLevel {
    /// Numeric preference in `[0, 1]` (kept non-negative so stage weights
    /// stay non-negative).
    pub fn value(self) -> f64 {
        match self {
            BidLevel::No => 0.0,
            BidLevel::Neutral => 0.25,
            BidLevel::Maybe => 0.6,
            BidLevel::Yes => 1.0,
        }
    }
}

/// Dense reviewer × paper bid matrix.
#[derive(Debug, Clone)]
pub struct Bids {
    num_reviewers: usize,
    num_papers: usize,
    levels: Vec<BidLevel>,
}

impl Bids {
    /// All-neutral bids.
    pub fn neutral(num_reviewers: usize, num_papers: usize) -> Self {
        Self {
            num_reviewers,
            num_papers,
            levels: vec![BidLevel::Neutral; num_reviewers * num_papers],
        }
    }

    /// Set one bid.
    pub fn set(&mut self, reviewer: usize, paper: usize, level: BidLevel) {
        assert!(reviewer < self.num_reviewers && paper < self.num_papers);
        self.levels[reviewer * self.num_papers + paper] = level;
    }

    /// The bid of `(reviewer, paper)`.
    #[inline]
    pub fn get(&self, reviewer: usize, paper: usize) -> BidLevel {
        self.levels[reviewer * self.num_papers + paper]
    }

    /// Total bid value of an assignment (the preference half of `c_B`).
    pub fn satisfaction(&self, a: &Assignment) -> f64 {
        a.pairs().map(|(r, p)| self.get(r, p).value()).sum()
    }
}

/// The combined objective `c_B(A)`.
pub fn combined_score(
    inst: &Instance,
    scoring: Scoring,
    bids: &Bids,
    lambda: f64,
    a: &Assignment,
) -> f64 {
    a.coverage_score(inst, scoring) + lambda * bids.satisfaction(a)
}

/// SDGA on the combined coverage + bid objective, over a [`ScoreContext`]
/// (flat engine gains). `lambda = 0` recovers plain SDGA; larger values
/// trade topic coverage for bid satisfaction.
pub fn solve_sdga(ctx: &ScoreContext<'_>, bids: &Bids, lambda: f64) -> Result<Assignment> {
    solve_sdga_impl(ctx.instance(), &mut GainTable::new(ctx), bids, lambda)
}

pub(crate) fn solve_sdga_impl<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &mut P,
    bids: &Bids,
    lambda: f64,
) -> Result<Assignment> {
    assert!(lambda >= 0.0, "negative preference weights are not supported");
    let bonus = move |r: usize, p: usize| lambda * bids.get(r, p).value();
    sdga::solve_impl(inst, gains, None, Some(&bonus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::CraAlgorithm;

    /// Bid-aware SDGA under weighted coverage.
    fn solve_wc(inst: &Instance, bids: &Bids, lambda: f64) -> Result<Assignment> {
        solve_sdga(&ScoreContext::new(inst, Scoring::WeightedCoverage), bids, lambda)
    }

    #[test]
    fn lambda_zero_matches_plain_sdga_objective() {
        for seed in 0..5 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let bids = Bids::neutral(6, 8);
            let with = solve_wc(&inst, &bids, 0.0).unwrap();
            let plain = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
            assert!(
                (with.coverage_score(&inst, Scoring::WeightedCoverage)
                    - plain.coverage_score(&inst, Scoring::WeightedCoverage))
                .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn uniform_bids_change_nothing() {
        // A constant bonus on every pair shifts all stage weights equally;
        // the argmax assignment (and hence the result) is unchanged.
        let inst = random_instance(6, 5, 4, 2, 11);
        let bids = Bids::neutral(5, 6);
        let a = solve_wc(&inst, &bids, 5.0).unwrap();
        let plain = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        assert!(
            (a.coverage_score(&inst, Scoring::WeightedCoverage)
                - plain.coverage_score(&inst, Scoring::WeightedCoverage))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn strong_bids_pull_assignments() {
        let inst = random_instance(6, 6, 4, 2, 3);
        let mut bids = Bids::neutral(6, 6);
        // Reviewer 0 desperately wants paper 0 and nothing else.
        for p in 0..6 {
            bids.set(0, p, BidLevel::No);
        }
        bids.set(0, 0, BidLevel::Yes);
        let a = solve_wc(&inst, &bids, 10.0).unwrap();
        a.validate(&inst).unwrap();
        assert!(
            a.group(0).contains(&0),
            "a dominant bid should pull reviewer 0 onto paper 0: {:?}",
            a.group(0)
        );
    }

    #[test]
    fn combined_score_decomposes() {
        let inst = random_instance(5, 5, 4, 2, 7);
        let mut bids = Bids::neutral(5, 5);
        bids.set(1, 2, BidLevel::Yes);
        let a = solve_wc(&inst, &bids, 0.3).unwrap();
        let total = combined_score(&inst, Scoring::WeightedCoverage, &bids, 0.3, &a);
        let parts =
            a.coverage_score(&inst, Scoring::WeightedCoverage) + 0.3 * bids.satisfaction(&a);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn bids_never_break_feasibility() {
        for seed in 0..4 {
            let inst = random_instance(9, 6, 4, 3, 20 + seed);
            let mut bids = Bids::neutral(6, 9);
            for r in 0..6 {
                for p in 0..9 {
                    if (r + p + seed as usize).is_multiple_of(3) {
                        bids.set(r, p, BidLevel::Yes);
                    } else if (r + p) % 5 == 0 {
                        bids.set(r, p, BidLevel::No);
                    }
                }
            }
            let a = solve_wc(&inst, &bids, 0.5).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn higher_lambda_weakly_increases_satisfaction() {
        let inst = random_instance(8, 6, 4, 2, 31);
        let mut bids = Bids::neutral(6, 8);
        for p in 0..8 {
            bids.set(p % 6, p, BidLevel::Yes);
        }
        let mut last = f64::NEG_INFINITY;
        for lambda in [0.0, 0.2, 1.0, 5.0] {
            let a = solve_wc(&inst, &bids, lambda).unwrap();
            let sat = bids.satisfaction(&a);
            assert!(
                sat >= last - 1e-9,
                "satisfaction decreased ({last} -> {sat}) as lambda grew to {lambda}"
            );
            last = sat;
        }
    }
}
