//! # wgrap-core — Weighted-coverage Group-based Reviewer Assignment
//!
//! Reproduction of the algorithmic contribution of *"Weighted Coverage based
//! Reviewer Assignment"* (Kou, U, Mamoulis, Gong — SIGMOD 2015).
//!
//! The crate models reviewer expertise and paper content as `T`-dimensional
//! [topic vectors](topic::TopicVector), scores a reviewer group against a
//! paper by [weighted coverage](score::Scoring) (Definition 1–2), and solves:
//!
//! * **JRA** (Journal Reviewer Assignment, §3) — exact best group for one
//!   paper, via the branch-and-bound [`jra::bba`] plus the baselines
//!   [`jra::bfs`], [`jra::ilp`] and [`jra::cp`];
//! * **CRA / WGRAP** (Conference Reviewer Assignment, §4) — the
//!   1/2-approximate Stage Deepening Greedy Algorithm [`cra::sdga`] with
//!   [stochastic refinement](cra::sra), plus every baseline the paper
//!   evaluates (Greedy, BRGG, stable matching, the per-pair ILP objective,
//!   local search).
//!
//! ## The ScoreEngine layer
//!
//! Every solver runs on the shared [`engine`]: a flat structure-of-arrays
//! [`engine::ScoreContext`] (row-major expertise/paper matrices + a CSR
//! sparse view over each paper's non-zero topics), an incremental
//! [`engine::GainTable`] of all per-paper running-group states with
//! CELF-style lazy gain re-evaluation ([`engine::celf`]), and the unified
//! [`engine::Solver`] trait the CLI, benches and examples dispatch through:
//!
//! ```
//! use wgrap_core::engine::{ScoreContext, SdgaSolver, Solver};
//! use wgrap_core::prelude::*;
//!
//! let inst = Instance::new(
//!     vec![TopicVector::new(vec![0.6, 0.4])],
//!     vec![TopicVector::new(vec![0.9, 0.1]), TopicVector::new(vec![0.2, 0.8])],
//!     2,
//!     1,
//! )?;
//! let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
//! let assignment = SdgaSolver::default().solve(&ctx)?;
//! assert!(assignment.validate(&inst).is_ok());
//! # Ok::<(), wgrap_core::error::Error>(())
//! ```
//!
//! The engine is an *exact* refactoring: every kernel reproduces the seed's
//! boxed-vector arithmetic bit for bit. Each CRA algorithm has one public
//! way in, over a [`engine::ScoreContext`]; the boxed-vector path survives
//! only as a test oracle (the `#[cfg(test)]` `legacy` module in
//! `src/legacy.rs`, whose `cra_algorithms_bit_identical` proptest pins every
//! CRA algorithm and the bids extension to it).
//!
//! ### Feature flags
//!
//! * `rayon` — deterministic parallelism for the engine's paper-parallel
//!   kernels (pair-score matrices, SDGA stage cost matrices, SRA trials).
//!   Outputs are positionally reduced and therefore identical with the
//!   feature on or off. Offline builds back this with the vendored
//!   `wgrap-par` scoped-thread substrate instead of crates.io `rayon`.
//!
//! [`metrics`] implements the paper's §5 quality measures (optimality ratio
//! against the ideal assignment, superiority ratio, lowest coverage score)
//! and [`reductions`] the §2.3 mappings from RRAP/ARAP/SGRAP into WGRAP.
// Parallel-array index loops are clearer than zipped iterators here.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod assignment;
pub mod cra;
pub mod engine;
pub mod error;
pub mod io;
pub mod jra;
#[cfg(test)]
mod legacy;
pub mod metrics;
pub mod problem;
pub mod reductions;
pub mod score;
pub mod topic;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::assignment::Assignment;
    pub use crate::cra::{self, CraAlgorithm};
    pub use crate::error::{Error, Result};
    pub use crate::jra::{self, JraProblem, JraResult};
    pub use crate::metrics;
    pub use crate::problem::Instance;
    pub use crate::score::{group_expertise, RunningGroup, Scoring};
    pub use crate::topic::TopicVector;
}
