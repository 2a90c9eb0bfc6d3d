//! The unified [`Solver`] trait: every assignment algorithm as
//! `solver.solve(&ctx)`.

use super::candidates::{CandidateSet, PruningPolicy};
use super::context::ScoreContext;
use crate::assignment::Assignment;
use crate::cra::sra::SraOptions;
use crate::cra::{arap_ilp, brgg, greedy, sdga, sra, stable_matching, CraAlgorithm};
use crate::error::{Error, Result};
use crate::jra::bba;

/// A reviewer-assignment algorithm dispatchable over a [`ScoreContext`].
///
/// All six §5.2 CRA methods and the exact JRA branch-and-bound implement
/// this; the CLI, benches and examples dispatch through it, so adding an
/// algorithm means implementing one trait, not threading a new enum variant
/// through every harness.
pub trait Solver: Sync {
    /// The label used in the paper's tables and figures.
    fn name(&self) -> &'static str;

    /// Solve the context's instance into a complete assignment.
    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment>;
}

/// Gale–Shapley stable matching on pair scores (§5.2 "SM").
#[derive(Debug, Clone, Copy, Default)]
pub struct StableMatchingSolver;

impl Solver for StableMatchingSolver {
    fn name(&self) -> &'static str {
        "SM"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        stable_matching::solve_ctx(ctx)
    }
}

/// Exact optimiser of the per-pair ARAP objective (§5.2 "ILP").
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpSolver;

impl Solver for IlpSolver {
    fn name(&self) -> &'static str {
        "ILP"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        arap_ilp::solve_ctx(ctx)
    }
}

/// Best Reviewer Group Greedy (§5.2 "BRGG").
#[derive(Debug, Clone, Copy, Default)]
pub struct BrggSolver {
    /// Candidate pruning.
    ///
    /// Under [`PruningPolicy::TopK`] each per-paper exact JRA searches only
    /// the paper's candidates (the branch-and-bound pool shrinks from `R`
    /// to at most `k`), falling back to the full pool for a paper whose
    /// feasible candidates dip below `δp`. [`PruningPolicy::Auto`] runs the
    /// dense path: BBA may return any of several equally-scoring optimal
    /// groups and its choice depends on pool order, so pruning cannot be
    /// certified bit-identical even with a zero exclusion bound.
    pub pruning: PruningPolicy,
}

impl Solver for BrggSolver {
    fn name(&self) -> &'static str {
        "BRGG"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        brgg::solve_ctx_with(ctx, self.pruning)
    }
}

/// The 1/3-approximation greedy of Long et al. (§4.1), CELF-accelerated.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver {
    /// Candidate pruning.
    ///
    /// Under [`PruningPolicy::Auto`] the initial heap holds only each
    /// paper's positive-score candidates; the moment the zero-gain regime
    /// begins (a fresh heap top at gain `≤ 0`, or the candidate heap
    /// running dry) the remaining excluded pairs are *spilled* into the
    /// heap. Because an excluded reviewer's gain is identically zero under
    /// every group state (the `Auto` certificate), the spill restores the
    /// exact heap content the dense path would have at that decision step
    /// — so `Auto` assignments are **bit-identical** to
    /// [`PruningPolicy::Exact`] while the positive regime (where nearly all
    /// the work happens) scans only candidates. [`PruningPolicy::TopK`]
    /// prunes the same way but may exclude positive-score reviewers,
    /// losing at most [`bound(p)`](CandidateSet::bound) per decision until
    /// the spill.
    pub pruning: PruningPolicy,
}

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        greedy::solve_ctx_with(ctx, self.pruning)
    }
}

/// Stage Deepening Greedy Algorithm (§4.2), each stage one min-cost flow
/// assignment.
#[derive(Debug, Clone, Copy, Default)]
pub struct SdgaSolver {
    /// Candidate pruning.
    ///
    /// Stage assignments are linear assignment solves whose tie-breaking
    /// depends on the solver's internal edge order, so no static
    /// certificate can promise a pruned stage equals the dense one — under
    /// [`PruningPolicy::Auto`] SDGA therefore runs the full (exact)
    /// stages. Under [`PruningPolicy::TopK`] each stage solves over
    /// candidate edges only ([`SparseMatrix`](wgrap_lap::SparseMatrix),
    /// `O(P·k)` instead of `O(P·R)` score state): lossy, but each stage
    /// objective is within [`Σ_p bound(p)`](CandidateSet::stage_loss_bound)
    /// of the full stage optimum, and a stage that cannot place every
    /// paper inside the candidate edges is solved again over every feasible
    /// reviewer.
    pub pruning: PruningPolicy,
}

impl Solver for SdgaSolver {
    fn name(&self) -> &'static str {
        "SDGA"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        sdga::solve_ctx_pruned(ctx, self.pruning)
    }
}

/// SDGA followed by stochastic refinement (§4.4). The SRA seed is taken
/// from the context at solve time.
#[derive(Debug, Clone, Default)]
pub struct SdgaSraSolver {
    /// Refinement knobs; the `seed` field is overridden by the context's.
    pub sra: SraOptions,
    /// Candidate pruning, applied to the SDGA stages (under `TopK`) and the
    /// SRA removal model (under `TopK` and `Auto`; `Auto` is certified
    /// bit-identical — see [`sra::refine`]).
    pub pruning: PruningPolicy,
}

impl Solver for SdgaSraSolver {
    fn name(&self) -> &'static str {
        "SDGA-SRA"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        // Resolve the candidate set once and share it between the SDGA
        // stages and the SRA refinement (a TopK build is a full positive-
        // score scan — worth paying a single time per solve).
        let topk = self.pruning.resolve_lossy(ctx);
        let initial = sdga::solve_ctx_with_cands(ctx, topk.as_ref())?;
        let removal: Option<&CandidateSet> = match self.pruning {
            PruningPolicy::Exact => None,
            PruningPolicy::Auto => Some(ctx.auto_candidates()),
            PruningPolicy::TopK(_) => topk.as_ref(),
        };
        let opts = SraOptions { seed: ctx.seed(), ..self.sra.clone() };
        Ok(sra::refine_ctx_with_cands(ctx, initial, &opts, removal, topk.is_some()).assignment)
    }
}

/// Exact JRA via branch-and-bound (Algorithm 1) on a single-paper context
/// (e.g. built with [`Instance::journal`](crate::problem::Instance::journal)).
#[derive(Debug, Clone, Copy, Default)]
pub struct JraBbaSolver {
    /// Candidate pruning for the per-paper setup (`Auto` restricts the
    /// branch-and-bound pool to the certified candidate list, preserving
    /// the optimal score bit-for-bit whenever the pool can field a group —
    /// see [`bba::solve_ctx_pruned`]).
    pub pruning: PruningPolicy,
}

impl Solver for JraBbaSolver {
    fn name(&self) -> &'static str {
        "BBA"
    }

    fn solve(&self, ctx: &ScoreContext<'_>) -> Result<Assignment> {
        if ctx.num_papers() != 1 {
            return Err(Error::InvalidInstance(format!(
                "JRA solves one paper at a time; context has {}",
                ctx.num_papers()
            )));
        }
        let results = bba::solve_ctx_pruned(ctx, 0, &bba::BbaOptions::default(), self.pruning)
            .ok_or_else(|| Error::Infeasible("fewer than δp non-conflicted reviewers".into()))?;
        let best = results
            .into_iter()
            .next()
            .ok_or_else(|| Error::Infeasible("branch-and-bound returned no group".into()))?;
        Ok(Assignment::from_groups(vec![best.group]))
    }
}

impl CraAlgorithm {
    /// The engine solver implementing this algorithm under a candidate
    /// [`PruningPolicy`]. SM and ILP rank whole `P × R` objectives and take
    /// no pruning knob; they ignore the policy.
    pub fn solver_with(self, pruning: PruningPolicy) -> Box<dyn Solver> {
        match self {
            CraAlgorithm::StableMatching => Box::new(StableMatchingSolver),
            CraAlgorithm::ArapIlp => Box::new(IlpSolver),
            CraAlgorithm::Brgg => Box::new(BrggSolver { pruning }),
            CraAlgorithm::Greedy => Box::new(GreedySolver { pruning }),
            CraAlgorithm::Sdga => Box::new(SdgaSolver { pruning }),
            CraAlgorithm::SdgaSra => Box::new(SdgaSraSolver { pruning, ..Default::default() }),
        }
    }
}
