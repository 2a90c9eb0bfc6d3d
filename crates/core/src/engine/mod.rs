//! The **ScoreEngine**: one shared, flat, optionally-parallel scoring/gain
//! layer under every CRA and JRA solver.
//!
//! Every algorithm in this crate reduces to the same hot kernel — evaluating
//! weighted-coverage marginal gains `gain(g, r, p)` (Definition 8) over
//! feasible (reviewer, paper) pairs, stage after stage. The seed
//! implementation re-derived those numbers per call from boxed
//! [`TopicVector`](crate::topic::TopicVector)s; the engine instead
//! precomputes one compact shared representation and updates it
//! incrementally:
//!
//! * [`ScoreContext`] — a structure-of-arrays view of an
//!   [`Instance`](crate::problem::Instance): row-major reviewer and
//!   paper matrices plus a CSR sparse view over each paper's non-zero
//!   topics. For scorings with `f(e, 0) = 0`
//!   ([`Scoring::sparse_safe`](crate::score::Scoring::sparse_safe)) the
//!   sparse kernels skip zero-weight topics **bit-exactly**: skipped terms
//!   would add exactly `0.0` to a non-negative sum.
//! * [`pages`] — the paged snapshot substrate: [`PagedVec`] backs the
//!   matrices above with 64 KiB `Arc`-shared pages (a whole number of
//!   rows per page, so row slices stay contiguous) and per-page
//!   copy-on-write. Cloning a context for an update shares every page;
//!   writing one row copies one page — see [`pages`]' module docs for
//!   the page-size choice, CoW rules, and aliasing invariants.
//! * [`GainTable`] — all per-paper running-group states (`gmax`, raw score)
//!   in two flat arrays, with per-paper version counters that power
//!   CELF-style lazy greedy evaluation ([`celf::CelfQueue`]): a stale cached
//!   gain is an upper bound by submodularity (Lemma 4), so the greedy loop
//!   re-scores only heap tops instead of rescanning R×P.
//! * [`CandidateSet`] — per-paper top-k reviewer candidate lists (CSR over
//!   positive pair scores) with a CELF-style upper bound on every excluded
//!   reviewer, dialled by [`PruningPolicy`]: `Exact` scans all reviewers,
//!   `Auto` prunes only where a zero bound *certifies* bit-identical
//!   results (and falls back to the dense path elsewhere — the per-solver
//!   certification rules live in [`candidates`]' module docs), `TopK(k)`
//!   trades bounded objective loss (`Σ_p bound(p)` per stage) for
//!   `O(P·k)` instead of `O(P·R)` score state.
//! * [`par`] — deterministic parallel maps over papers, feature-gated behind
//!   `rayon` (offline builds substitute the vendored `wgrap-par` scoped
//!   thread pool). Outputs are positionally ordered, so parallel and serial
//!   runs are bit-identical.
//! * [`Solver`] — the uniform dispatch surface: every CRA baseline, SDGA(-SRA)
//!   and the exact JRA branch-and-bound run as `solver.solve(&ctx)`.
//! * [`spec`] — the **one** solver-label registry ([`spec::METHOD_REGISTRY`])
//!   behind [`spec::method_by_label`], the CLI's `--method` and the serve
//!   protocol's `"method"` field, with one shared unknown-method message.
//!   The typed request layer (`wgrap_service::api::SolveRequest`) dispatches
//!   through [`spec::MethodKind`]; the old per-surface lookups
//!   (`solver_by_label`, `CraAlgorithm::run_pruned`) are gone — every
//!   consumer routes through the registry or the typed API.
//!
//! [`ScoreContext`] storage is a `Cow`: solvers normally borrow an
//! [`Instance`](crate::problem::Instance) (zero-copy one-shot solves),
//! while [`ScoreContext::from_owned`] yields a `'static` context that owns
//! its instance and accepts **incremental updates**
//! ([`ScoreContext::push_paper`] / [`ScoreContext::push_reviewer`] /
//! [`ScoreContext::set_reviewer_row`]) that extend the flat arrays and CSR
//! view in place, bit-identically to a from-scratch rebuild. The
//! `wgrap-service` crate stacks epoch-numbered copy-on-write snapshots,
//! incremental [`CandidateSet`] maintenance
//! ([`CandidateSet::append_paper`] / [`CandidateSet::patch_reviewer`]) and
//! batched JRA serving on top of exactly this surface.
//!
//! Each CRA algorithm has one public way in, over a [`ScoreContext`]: its
//! [`Solver`] struct (or [`sra::refine`](crate::cra::sra::refine),
//! [`local_search::refine`](crate::cra::local_search::refine),
//! [`bids::solve_sdga`](crate::cra::bids::solve_sdga)). The seed's
//! boxed-vector path — `LegacyGains`, the boxed pair-matrix build and a
//! `run_legacy` dispatcher — survives only as a test oracle in the crate's
//! `#[cfg(test)]` `legacy` module, whose `cra_algorithms_bit_identical`
//! proptest asserts both paths produce **bit-identical assignments** on
//! random instances for every algorithm (bids included) and every scoring
//! function.

pub mod candidates;
pub mod celf;
mod context;
mod gain;
pub mod pages;
pub mod par;
mod solver;
pub mod spec;

pub use candidates::{truncate_row, CandidateSet, CoverageStats, PruningPolicy};
pub use context::{JraView, PairMatrix, ScoreContext};
pub use gain::{group_score_view, GainProvider, GainTable, PaperGain};
pub use pages::{PageTable, PagedVec};
pub use solver::{
    BrggSolver, GreedySolver, IlpSolver, JraBbaSolver, SdgaSolver, SdgaSraSolver, Solver,
    StableMatchingSolver,
};
pub use spec::{method_by_label, method_labels, MethodEntry, MethodKind, METHOD_REGISTRY};
