//! Journal Reviewer Assignment (paper §3): find the best group of `δp`
//! reviewers for a *single* paper.
//!
//! JRA is NP-hard (Lemma 1, by reduction from maximum coverage), but exact
//! solutions are practical at realistic sizes. Four exact solvers are
//! provided, matching the paper's §5.1 evaluation:
//!
//! * [`bfs`] — brute-force enumeration of all `C(R, δp)` groups,
//! * [`bba`] — the paper's Branch-and-Bound Algorithm (Algorithm 1), with a
//!   top-k variant,
//! * [`ilp`] — a 0-1 integer program solved by [`wgrap_solver`]
//!   (the `lp_solve` baseline),
//! * [`cp`] — a generic constraint-programming search (the CPLEX-CP
//!   baseline).

pub mod bba;
pub mod bfs;
pub mod cp;
pub mod ilp;

use crate::problem::Instance;
use crate::score::Scoring;
use crate::topic::TopicVector;

/// A single-paper reviewer-selection problem.
#[derive(Debug, Clone)]
pub struct JraProblem<'a> {
    /// The paper to review.
    pub paper: &'a TopicVector,
    /// Candidate reviewer pool `R`.
    pub reviewers: &'a [TopicVector],
    /// Group size `δp`.
    pub delta_p: usize,
    /// `forbidden[r]` marks COI reviewers.
    pub forbidden: Vec<bool>,
    /// Scoring function (Definition 1 / Table 5).
    pub scoring: Scoring,
}

impl<'a> JraProblem<'a> {
    /// Problem with no conflicts and the default weighted-coverage scoring.
    pub fn new(paper: &'a TopicVector, reviewers: &'a [TopicVector], delta_p: usize) -> Self {
        assert!(delta_p >= 1 && delta_p <= reviewers.len());
        Self {
            paper,
            reviewers,
            delta_p,
            forbidden: vec![false; reviewers.len()],
            scoring: Scoring::WeightedCoverage,
        }
    }

    /// View paper `p` of a multi-paper instance as a JRA problem, carrying
    /// over that paper's COI reviewers.
    pub fn from_instance(inst: &'a Instance, p: usize) -> Self {
        let mut forbidden = vec![false; inst.num_reviewers()];
        for &r in inst.conflicts(p) {
            forbidden[r as usize] = true;
        }
        Self {
            paper: inst.paper(p),
            reviewers: inst.reviewers(),
            delta_p: inst.delta_p(),
            forbidden,
            scoring: Scoring::WeightedCoverage,
        }
    }

    /// Override the scoring function.
    pub fn with_scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = scoring;
        self
    }

    /// Override the COI mask.
    pub fn with_forbidden(mut self, forbidden: Vec<bool>) -> Self {
        assert_eq!(forbidden.len(), self.reviewers.len());
        self.forbidden = forbidden;
        self
    }

    /// Number of non-conflicted candidates.
    pub fn num_feasible(&self) -> usize {
        self.forbidden.iter().filter(|f| !**f).count()
    }

    /// This problem as an engine [`JraView`](crate::engine::JraView) over
    /// the boxed legacy vectors — the exact solvers all run on the view, so
    /// the legacy and [`ScoreContext`](crate::engine::ScoreContext) entry
    /// points share one implementation.
    pub fn view(&self) -> crate::engine::JraView<'_> {
        crate::engine::JraView::from_boxed(
            self.paper,
            self.reviewers,
            self.forbidden.clone(),
            self.delta_p,
            self.scoring,
        )
    }
}

/// Result of an exact JRA solve.
#[derive(Debug, Clone, PartialEq)]
pub struct JraResult {
    /// The best reviewer group, sorted ascending.
    pub group: Vec<usize>,
    /// Its coverage score `c(g, p)`.
    pub score: f64,
    /// Search nodes / combinations examined (solver-specific unit).
    pub nodes: u64,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Random Dirichlet-ish normalised vectors for cross-solver tests.
    pub fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<TopicVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..dim).map(|_| rng.random::<f64>().powi(3)).collect();
                TopicVector::new(raw).normalized()
            })
            .collect()
    }
}
