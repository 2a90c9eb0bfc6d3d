//! Plain local search (LS) — the refinement baseline of Figure 12.
//!
//! Hill-climbing over two move types: *swap* (exchange the reviewers of two
//! assignment pairs) and *replace* (substitute one assigned reviewer with an
//! unassigned one that has spare capacity). Moves are accepted only when
//! they strictly improve the coverage score, so the search is monotone — and
//! therefore, as §4.4 predicts, it gets stuck in a local maximum that the
//! stochastic refinement escapes.

use crate::assignment::Assignment;
use crate::engine::{CandidateSet, PruningPolicy, ScoreContext};
use crate::problem::Instance;
use crate::score::{RunningGroup, Scoring};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Options for [`refine`].
#[derive(Debug, Clone)]
pub struct LocalSearchOptions {
    /// Stop after this many consecutive non-improving proposals.
    pub patience: usize,
    /// Hard wall-clock budget.
    pub time_limit: Option<Duration>,
    /// RNG seed for proposal sampling.
    pub seed: u64,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        Self { patience: 20_000, time_limit: None, seed: 0 }
    }
}

/// Outcome of a local-search run (same shape as the SRA outcome so Figure 12
/// can overlay the two traces).
#[derive(Debug, Clone)]
pub struct LsOutcome {
    /// Final (locally maximal) assignment.
    pub assignment: Assignment,
    /// Its coverage score.
    pub score: f64,
    /// Proposals attempted.
    pub proposals: u64,
    /// `(elapsed, best score)` recorded at every improvement.
    pub trace: Vec<(Duration, f64)>,
}

fn paper_score(inst: &Instance, scoring: Scoring, group: &[usize], p: usize) -> f64 {
    let mut rg = RunningGroup::new(scoring, inst.paper(p));
    for &r in group {
        rg.add(inst.reviewer(r));
    }
    rg.score()
}

/// Run hill-climbing local search from `initial` over a [`ScoreContext`],
/// with candidate pruning.
///
/// Under [`PruningPolicy::TopK`] the *replace* move samples its substitute
/// from the paper's candidate list instead of all `R` reviewers, so far
/// fewer proposals are wasted on zero-score substitutes. Any restriction
/// changes the RNG trajectory, so even a certified set cannot be
/// bit-identical to the dense search — [`PruningPolicy::Auto`] therefore
/// runs the exact (unrestricted) sampler.
pub fn refine(
    ctx: &ScoreContext<'_>,
    initial: Assignment,
    opts: &LocalSearchOptions,
    pruning: PruningPolicy,
) -> LsOutcome {
    let cands = pruning.resolve_lossy(ctx);
    refine_impl(ctx.instance(), ctx.scoring(), initial, opts, cands.as_ref())
}

fn refine_impl(
    inst: &Instance,
    scoring: Scoring,
    initial: Assignment,
    opts: &LocalSearchOptions,
    cands: Option<&CandidateSet>,
) -> LsOutcome {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let num_p = inst.num_papers();
    let mut current = initial;
    let mut score = current.coverage_score(inst, scoring);
    let mut trace = vec![(start.elapsed(), score)];
    let mut proposals = 0u64;
    let mut stale = 0usize;

    if num_p < 1 || inst.delta_p() == 0 {
        return LsOutcome { assignment: current, score, proposals, trace };
    }
    let mut loads = current.loads(inst.num_reviewers());

    while stale < opts.patience {
        if let Some(tl) = opts.time_limit {
            if proposals.is_multiple_of(256) && start.elapsed() >= tl {
                break;
            }
        }
        proposals += 1;
        stale += 1;

        let improved = if num_p >= 2 && rng.random::<f64>() < 0.5 {
            try_swap(inst, scoring, &mut current, &mut rng)
        } else {
            try_replace(inst, scoring, &mut current, &mut loads, &mut rng, cands)
        };
        if improved > 1e-12 {
            score += improved;
            stale = 0;
            trace.push((start.elapsed(), score));
        }
    }

    // Recompute to shed accumulated floating-point drift.
    let score = current.coverage_score(inst, scoring);
    LsOutcome { assignment: current, score, proposals, trace }
}

/// Exchange reviewers between two random papers; returns the improvement
/// (0.0 when rejected).
fn try_swap(inst: &Instance, scoring: Scoring, a: &mut Assignment, rng: &mut StdRng) -> f64 {
    let num_p = inst.num_papers();
    let p1 = rng.random_range(0..num_p);
    let p2 = rng.random_range(0..num_p);
    if p1 == p2 || a.group(p1).is_empty() || a.group(p2).is_empty() {
        return 0.0;
    }
    let i1 = rng.random_range(0..a.group(p1).len());
    let i2 = rng.random_range(0..a.group(p2).len());
    let (r1, r2) = (a.group(p1)[i1], a.group(p2)[i2]);
    if r1 == r2
        || a.group(p1).contains(&r2)
        || a.group(p2).contains(&r1)
        || inst.is_coi(r2, p1)
        || inst.is_coi(r1, p2)
    {
        return 0.0;
    }
    let before =
        paper_score(inst, scoring, a.group(p1), p1) + paper_score(inst, scoring, a.group(p2), p2);
    let mut g1 = a.group(p1).to_vec();
    let mut g2 = a.group(p2).to_vec();
    g1[i1] = r2;
    g2[i2] = r1;
    let after = paper_score(inst, scoring, &g1, p1) + paper_score(inst, scoring, &g2, p2);
    if after > before + 1e-12 {
        a.group_mut(p1)[i1] = r2;
        a.group_mut(p2)[i2] = r1;
        after - before
    } else {
        0.0
    }
}

/// Replace one assigned reviewer with a random reviewer that has spare
/// capacity; returns the improvement (0.0 when rejected). With a candidate
/// set, the substitute is drawn from the paper's candidate list.
fn try_replace(
    inst: &Instance,
    scoring: Scoring,
    a: &mut Assignment,
    loads: &mut [usize],
    rng: &mut StdRng,
    cands: Option<&CandidateSet>,
) -> f64 {
    let p = rng.random_range(0..inst.num_papers());
    if a.group(p).is_empty() {
        return 0.0;
    }
    let i = rng.random_range(0..a.group(p).len());
    let r_old = a.group(p)[i];
    let r_new = match cands {
        Some(cs) => {
            let (rs, _) = cs.candidates(p);
            if rs.is_empty() {
                return 0.0;
            }
            rs[rng.random_range(0..rs.len())] as usize
        }
        None => rng.random_range(0..inst.num_reviewers()),
    };
    if r_new == r_old
        || loads[r_new] >= inst.delta_r()
        || a.group(p).contains(&r_new)
        || inst.is_coi(r_new, p)
    {
        return 0.0;
    }
    let before = paper_score(inst, scoring, a.group(p), p);
    let mut g = a.group(p).to_vec();
    g[i] = r_new;
    let after = paper_score(inst, scoring, &g, p);
    if after > before + 1e-12 {
        a.group_mut(p)[i] = r_new;
        loads[r_old] -= 1;
        loads[r_new] += 1;
        after - before
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::CraAlgorithm;

    /// SDGA's assignment, the usual starting point of a refinement.
    fn sdga(inst: &Instance) -> Assignment {
        CraAlgorithm::Sdga.run(inst, Scoring::WeightedCoverage, 0).unwrap()
    }

    /// Unpruned local search under weighted coverage.
    fn refine_wc(inst: &Instance, initial: Assignment, opts: &LocalSearchOptions) -> LsOutcome {
        let ctx = ScoreContext::new(inst, Scoring::WeightedCoverage);
        refine(&ctx, initial, opts, PruningPolicy::Exact)
    }

    #[test]
    fn never_worse_and_stays_valid() {
        for seed in 0..5 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let initial = sdga(&inst);
            let before = initial.coverage_score(&inst, Scoring::WeightedCoverage);
            let opts = LocalSearchOptions { patience: 2_000, seed, ..Default::default() };
            let out = refine_wc(&inst, initial, &opts);
            assert!(out.score >= before - 1e-9);
            out.assignment.validate(&inst).unwrap();
        }
    }

    #[test]
    fn trace_strictly_increases() {
        let inst = random_instance(10, 7, 5, 3, 2);
        // Start from a deliberately poor assignment: greedy round-robin.
        let mut a = Assignment::empty(10);
        let mut loads = [0usize; 7];
        for p in 0..10 {
            let mut placed = 0;
            let mut r = 0;
            while placed < 3 {
                if loads[r] < inst.delta_r() && !a.group(p).contains(&r) {
                    a.assign(r, p);
                    loads[r] += 1;
                    placed += 1;
                }
                r = (r + 1) % 7;
            }
        }
        a.validate(&inst).unwrap();
        let out =
            refine_wc(&inst, a, &LocalSearchOptions { patience: 5_000, ..Default::default() });
        for w in out.trace.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        assert!(out.trace.len() > 1, "round-robin start should be improvable");
    }

    #[test]
    fn candidate_proposals_stay_monotone_and_valid() {
        let inst = random_instance(8, 6, 4, 2, 4);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let initial = sdga(&inst);
        let before = initial.coverage_score(&inst, Scoring::WeightedCoverage);
        let opts = LocalSearchOptions { patience: 2_000, seed: 4, ..Default::default() };
        let out = refine(&ctx, initial.clone(), &opts, PruningPolicy::TopK(4));
        assert!(out.score >= before - 1e-9);
        out.assignment.validate(&inst).unwrap();
        // Auto keeps the exact sampler: identical to the unpruned refine.
        let auto = refine(&ctx, initial.clone(), &opts, PruningPolicy::Auto);
        let plain = refine(&ctx, initial, &opts, PruningPolicy::Exact);
        assert_eq!(auto.score, plain.score);
        assert_eq!(auto.proposals, plain.proposals);
        assert_eq!(auto.assignment, plain.assignment);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = random_instance(6, 5, 4, 2, 7);
        let initial = sdga(&inst);
        let opts = LocalSearchOptions { patience: 1_000, seed: 3, ..Default::default() };
        let a = refine_wc(&inst, initial.clone(), &opts);
        let b = refine_wc(&inst, initial, &opts);
        assert_eq!(a.score, b.score);
        assert_eq!(a.proposals, b.proposals);
    }
}
