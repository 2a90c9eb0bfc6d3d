//! Stochastic Refinement Algorithm (SRA) — paper §4.4, Algorithm 3.
//!
//! Each round removes one reviewer from every paper's group — sampling
//! removals inversely to the probability `P(r|p)` that the pair belongs to
//! the optimal assignment (Eq. 10) — and refills all groups with one
//! Stage-WGRAP linear assignment. Rounds repeat until the best score has not
//! improved for `ω` consecutive rounds (the convergence threshold studied in
//! Figure 16) or a time budget expires.
//!
//! Eq. 10's probability model is TF-IDF-flavoured: a pair scores high when
//! `c(r, p)` is high *relative to r's total coverage mass over all papers*,
//! damped toward uniform `1/R` by the decay `e^{−λI}` as rounds accumulate.
//! The paper does not print its λ; we default to 0.1 and expose it.

use super::sdga::solve_stage;
use crate::assignment::Assignment;
use crate::engine::{
    par, CandidateSet, GainProvider, GainTable, PairMatrix, PruningPolicy, ScoreContext,
};
use crate::problem::Instance;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Probability model for the removal step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemovalModel {
    /// Eq. 10: `max(1/R, e^{−λI}·c(r,p)/Σ_{p'} c(r,p'))`, normalised per paper.
    #[default]
    Coverage,
    /// The uniformity ablation mentioned in §4.4: `P(r|p) = 1/R`.
    Uniform,
}

/// Tuning knobs for [`refine`].
#[derive(Debug, Clone)]
pub struct SraOptions {
    /// Convergence threshold ω: stop after this many rounds without
    /// improvement (paper default 10).
    pub omega: usize,
    /// Decay rate λ in Eq. 10.
    pub lambda: f64,
    /// Removal probability model (Eq. 10 vs the uniform ablation).
    pub model: RemovalModel,
    /// Hard wall-clock budget; `None` = run to convergence.
    pub time_limit: Option<Duration>,
    /// Hard cap on refinement rounds.
    pub max_rounds: usize,
    /// RNG seed (the process is fully deterministic given the seed).
    pub seed: u64,
    /// Independent refinement chains to run, seeded `seed + t`; the best
    /// outcome wins (ties to the lowest chain index, so the reduction is
    /// deterministic). With the `rayon` feature the chains run in parallel.
    pub trials: usize,
}

impl Default for SraOptions {
    fn default() -> Self {
        Self {
            omega: 10,
            lambda: 0.1,
            model: RemovalModel::Coverage,
            time_limit: None,
            max_rounds: 10_000,
            seed: 0,
            trials: 1,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct SraOutcome {
    /// The best assignment observed (never worse than the input).
    pub assignment: Assignment,
    /// Its coverage score.
    pub score: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// `(elapsed, best-so-far score)` after every round — the Figure 12
    /// refinement trace.
    pub trace: Vec<(Duration, f64)>,
}

/// Refine `initial` (typically an SDGA result) over a [`ScoreContext`]
/// (flat engine gains), with candidate pruning of the Eq. 10 removal model.
/// The search walks through possibly-worse intermediate assignments — that
/// is what lets it escape the local maxima that plain local search gets
/// stuck in (Figure 12) — but the returned assignment is the best one seen.
/// With `opts.trials > 1`, independent chains run (in parallel under the
/// `rayon` feature) and the best one wins.
///
/// The removal step's only use of the `P × R` pair matrix is TF-IDF-style
/// relevance (`c(r,p)` against reviewer mass `Σ_{p'} c(r,p')`). With a
/// certified candidate set (always the case under [`PruningPolicy::Auto`])
/// every excluded pair score is exactly `0.0`, so masses, normalisers and
/// removal probabilities computed from candidate lists alone are
/// **bit-identical** to the dense ones (skipping a `+ 0.0` term is an IEEE
/// no-op on these non-negative sums) — while the `P × R` matrix is never
/// materialised. Under [`PruningPolicy::TopK`] truncated scores read as `0`
/// (lossy), and the refill stage also solves over candidate edges, falling
/// back to every feasible reviewer; under `Auto` the refill takes every
/// feasible reviewer (stage-LAP tie-breaking is not certifiable — see
/// [`SdgaSolver::pruning`](crate::engine::SdgaSolver::pruning)).
pub fn refine(
    ctx: &ScoreContext<'_>,
    initial: Assignment,
    opts: &SraOptions,
    pruning: PruningPolicy,
) -> SraOutcome {
    let topk = pruning.resolve_lossy(ctx);
    let removal = match pruning {
        PruningPolicy::Exact => None,
        PruningPolicy::Auto => Some(ctx.auto_candidates()),
        PruningPolicy::TopK(_) => topk.as_ref(),
    };
    refine_ctx_with_cands(ctx, initial, opts, removal, topk.is_some())
}

/// [`refine`] with pre-resolved candidate sets (`removal` feeds
/// the Eq. 10 model; `sparse_refill` additionally routes the refill stage
/// through the same set), so callers running several pruned phases over one
/// context (SDGA-SRA) build a `TopK` set once.
pub(crate) fn refine_ctx_with_cands(
    ctx: &ScoreContext<'_>,
    initial: Assignment,
    opts: &SraOptions,
    removal: Option<&CandidateSet>,
    sparse_refill: bool,
) -> SraOutcome {
    refine_trials(opts, |o| {
        refine_impl(
            ctx.instance(),
            &mut GainTable::new(ctx),
            initial.clone(),
            o,
            removal.map(|cs| (cs, sparse_refill)),
        )
    })
}

/// Fan out `opts.trials` independent chains (seeds `seed + t`) and keep the
/// best outcome; ties go to the lowest trial index, so the reduction order
/// is deterministic regardless of thread scheduling.
fn refine_trials(opts: &SraOptions, run: impl Fn(&SraOptions) -> SraOutcome + Sync) -> SraOutcome {
    let trials = opts.trials.max(1);
    if trials == 1 {
        return run(opts);
    }
    let outcomes = par::map_indexed(trials, |t| {
        run(&SraOptions { seed: opts.seed.wrapping_add(t as u64), ..opts.clone() })
    });
    outcomes
        .into_iter()
        .reduce(|best, cand| if cand.score > best.score { cand } else { best })
        .expect("trials >= 1")
}

/// Relevance surface behind Eq. 10: the dense `P × R` pair matrix, or a
/// candidate set serving `0.0` for excluded pairs (exact when certified).
enum Relevance<'a> {
    Dense(PairMatrix),
    Sparse(&'a CandidateSet),
}

impl Relevance<'_> {
    #[inline]
    fn get(&self, r: usize, p: usize) -> f64 {
        match self {
            Relevance::Dense(m) => m.get(r, p),
            Relevance::Sparse(cs) => cs.score_of(p, r),
        }
    }
}

pub(crate) fn refine_impl<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &mut P,
    initial: Assignment,
    opts: &SraOptions,
    pruning: Option<(&CandidateSet, bool)>,
) -> SraOutcome {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    let scoring_score = |gains: &mut P, a: &Assignment| -> f64 {
        (0..num_p)
            .map(|p| {
                gains.rebuild(p, a.group(p));
                gains.score(p)
            })
            .sum()
    };

    let mut current = initial;
    let mut best = current.clone();
    let mut best_score = scoring_score(gains, &best);
    let mut trace = vec![(start.elapsed(), best_score)];
    if num_p == 0 || inst.delta_p() == 0 {
        return SraOutcome { assignment: best, score: best_score, rounds: 0, trace };
    }

    // Pairwise coverage c(r, p) and each reviewer's mass Σ_{p'} c(r, p')
    // (Algorithm 3 lines 1-2; O(P·R·T) once, row-parallel under `rayon`).
    // With a candidate set, mass accumulates over candidate scores only —
    // for each reviewer still in ascending-paper order, and skipped terms
    // are exactly `+ 0.0` when the set is certified, so the sums are
    // bit-identical to the dense ones without the P × R matrix.
    let pair_cov = match pruning {
        Some((cs, _)) => Relevance::Sparse(cs),
        None => Relevance::Dense(gains.pair_matrix()),
    };
    let mut reviewer_mass = vec![0.0f64; num_r];
    match &pair_cov {
        Relevance::Dense(m) => {
            for p in 0..num_p {
                for (r, &c) in m.paper_row(p).iter().enumerate() {
                    reviewer_mass[r] += c;
                }
            }
        }
        Relevance::Sparse(cs) => {
            for p in 0..num_p {
                let (rs, ss) = cs.candidates(p);
                for (&r, &s) in rs.iter().zip(ss) {
                    reviewer_mass[r as usize] += s;
                }
            }
        }
    }

    let mut stale_rounds = 0usize;
    let mut rounds = 0usize;
    while stale_rounds < opts.omega && rounds < opts.max_rounds {
        if let Some(tl) = opts.time_limit {
            if start.elapsed() >= tl {
                break;
            }
        }
        rounds += 1;
        let decay = (-opts.lambda * rounds as f64).exp();

        // Removal step: drop one reviewer per paper with probability
        // proportional to 1 − P(r|p) within the group.
        let mut loads = current.loads(num_r);
        for p in 0..num_p {
            let group = current.group(p);
            if group.is_empty() {
                continue;
            }
            // Eq. 10's per-pair probability from a raw relevance score.
            let u_of = |r: usize, score: f64| -> f64 {
                match opts.model {
                    RemovalModel::Uniform => 1.0 / num_r as f64,
                    RemovalModel::Coverage => {
                        let rel =
                            if reviewer_mass[r] > 0.0 { score / reviewer_mass[r] } else { 0.0 };
                        (decay * rel).max(1.0 / num_r as f64)
                    }
                }
            };
            let u = |r: usize| -> f64 { u_of(r, pair_cov.get(r, p)) };
            // Per-paper normaliser of Eq. 10 over the whole pool. On the
            // pruned path a two-pointer merge over the (reviewer-sorted)
            // candidate list replaces a binary search per reviewer; the
            // summands and their order are unchanged, so `z` stays
            // bit-identical to the dense loop.
            let z: f64 = match &pair_cov {
                Relevance::Dense(_) => (0..num_r).map(u).sum(),
                Relevance::Sparse(cs) => {
                    let (rs, ss) = cs.candidates(p);
                    let mut j = 0usize;
                    let mut z = 0.0;
                    for r in 0..num_r {
                        let score = if j < rs.len() && rs[j] as usize == r {
                            j += 1;
                            ss[j - 1]
                        } else {
                            0.0
                        };
                        z += u_of(r, score);
                    }
                    z
                }
            };
            let removal_weight: Vec<f64> =
                group.iter().map(|&r| (1.0 - u(r) / z).max(1e-12)).collect();
            let total: f64 = removal_weight.iter().sum();
            let mut pick = rng.random::<f64>() * total;
            let mut idx = group.len() - 1;
            for (i, w) in removal_weight.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= w;
            }
            let removed = current.group_mut(p).swap_remove(idx);
            loads[removed] -= 1;
        }

        // Refill step: one Stage-WGRAP over all papers; per-reviewer cap is
        // the remaining global workload (this is the "last stage of SDGA").
        for p in 0..num_p {
            gains.rebuild(p, current.group(p));
        }
        let refill_cands = pruning.and_then(|(cs, sparse)| sparse.then_some(cs));
        let refilled =
            solve_stage(inst, gains, &loads, &current, inst.delta_r(), refill_cands, None);
        match refilled {
            Ok(pairs) => {
                for (r, p) in pairs {
                    current.assign(r, p);
                }
            }
            Err(_) => {
                // Refill impossible (pathological COI structure): restore
                // from the best-known assignment and count the round stale.
                current = best.clone();
            }
        }

        let score = scoring_score(gains, &current);
        if score > best_score + 1e-12 {
            best_score = score;
            best = current.clone();
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }
        trace.push((start.elapsed(), best_score));
    }

    SraOutcome { assignment: best, score: best_score, rounds, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::{exact, CraAlgorithm};
    use crate::score::Scoring;

    /// SDGA's assignment, the usual starting point of a refinement.
    fn sdga(inst: &Instance) -> Assignment {
        CraAlgorithm::Sdga.run(inst, Scoring::WeightedCoverage, 0).unwrap()
    }

    /// Unpruned refinement under weighted coverage.
    fn refine_wc(inst: &Instance, initial: Assignment, opts: &SraOptions) -> SraOutcome {
        let ctx = ScoreContext::new(inst, Scoring::WeightedCoverage);
        refine(&ctx, initial, opts, PruningPolicy::Exact)
    }

    #[test]
    fn never_worse_than_input() {
        for seed in 0..5 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let initial = sdga(&inst);
            let before = initial.coverage_score(&inst, Scoring::WeightedCoverage);
            let opts = SraOptions { omega: 5, seed, ..Default::default() };
            let out = refine_wc(&inst, initial, &opts);
            assert!(out.score >= before - 1e-12);
            out.assignment.validate(&inst).unwrap();
            assert!(
                (out.assignment.coverage_score(&inst, Scoring::WeightedCoverage) - out.score).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let inst = random_instance(8, 6, 4, 2, 3);
        let initial = sdga(&inst);
        let out = refine_wc(&inst, initial, &SraOptions { omega: 8, ..Default::default() });
        for w in out.trace.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert_eq!(out.trace.len(), out.rounds + 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = random_instance(8, 6, 4, 2, 5);
        let initial = sdga(&inst);
        let opts = SraOptions { omega: 6, seed: 42, ..Default::default() };
        let a = refine_wc(&inst, initial.clone(), &opts);
        let b = refine_wc(&inst, initial, &opts);
        assert_eq!(a.score, b.score);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn approaches_exact_optimum_on_tiny_instances() {
        let mut hits = 0;
        let total = 5;
        for seed in 0..total {
            let inst = random_instance(3, 4, 3, 2, 50 + seed);
            let initial = sdga(&inst);
            let opts = SraOptions { omega: 30, seed, ..Default::default() };
            let out = refine_wc(&inst, initial, &opts);
            let opt = exact::solve(&inst, Scoring::WeightedCoverage)
                .unwrap()
                .coverage_score(&inst, Scoring::WeightedCoverage);
            if (out.score - opt).abs() < 1e-6 {
                hits += 1;
            }
            assert!(out.score <= opt + 1e-9);
        }
        assert!(hits >= 3, "SRA found the optimum on only {hits}/{total} tiny instances");
    }

    #[test]
    fn pruned_auto_refine_is_bit_identical() {
        for seed in 0..4 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage).with_seed(seed);
            let initial = sdga(&inst);
            let opts = SraOptions { omega: 6, seed, ..Default::default() };
            let dense = refine(&ctx, initial.clone(), &opts, PruningPolicy::Exact);
            let pruned = refine(&ctx, initial, &opts, PruningPolicy::Auto);
            assert_eq!(dense.assignment, pruned.assignment, "seed={seed}");
            assert_eq!(dense.score.to_bits(), pruned.score.to_bits());
            assert_eq!(dense.rounds, pruned.rounds);
        }
    }

    #[test]
    fn topk_refine_stays_monotone_and_valid() {
        let inst = random_instance(8, 6, 4, 2, 13);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage).with_seed(13);
        let initial = sdga(&inst);
        let before = initial.coverage_score(&inst, Scoring::WeightedCoverage);
        let opts = SraOptions { omega: 5, seed: 13, ..Default::default() };
        let out = refine(&ctx, initial, &opts, PruningPolicy::TopK(3));
        assert!(out.score >= before - 1e-12);
        out.assignment.validate(&inst).unwrap();
    }

    #[test]
    fn uniform_model_runs() {
        let inst = random_instance(6, 5, 4, 2, 9);
        let initial = sdga(&inst);
        let opts = SraOptions { omega: 4, model: RemovalModel::Uniform, ..Default::default() };
        let out = refine_wc(&inst, initial, &opts);
        out.assignment.validate(&inst).unwrap();
    }

    #[test]
    fn respects_time_limit() {
        let inst = random_instance(10, 7, 5, 3, 1);
        let initial = sdga(&inst);
        let opts = SraOptions {
            omega: usize::MAX,
            max_rounds: usize::MAX,
            time_limit: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let start = Instant::now();
        let _ = refine_wc(&inst, initial, &opts);
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
