//! Stage Deepening Greedy Algorithm (SDGA) — paper §4.2–4.3, Algorithm 2.
//!
//! The assignment is built in `δp` stages. Each stage assigns *exactly one*
//! reviewer to every paper, maximising the total marginal gain given the
//! groups accumulated so far — a linear assignment problem (Definition 9,
//! Lemma 2) — while confining each reviewer to `⌈δr/δp⌉` new papers per
//! stage. The confinement is what drives the approximation proof (Lemma 3):
//! every stage's sub-assignment draws from the same reviewer-slot budget as
//! the corresponding slice of the optimal assignment.
//!
//! Guarantees (Theorems 1–2): `1 − 1/e` when `δp` divides `δr`, and
//! `1 − (1 − 1/δp)^{δp−1} ≥ 1/2` in general.
//!
//! Every stage is one linear assignment, which the paper solves "by the
//! Hungarian algorithm or min-cost flow". Here it is one builder,
//! `solve_stage`: each paper's edges are its feasible reviewers, or its
//! candidate row under a pruning policy, and
//! [`SparseMatrix::solve_capacitated`] solves them by min-cost flow with
//! each reviewer's stage slots as a column capacity. SDGA stages, the SRA
//! refill (§4.4) and bid-aware SDGA ([`super::bids`]) all run through it.
//! Flow is the only product kernel: the Hungarian algorithm would expand a
//! stage into a dense `P × Σcaps` slot matrix, the memory a pruned stage
//! exists to avoid, so it stays in `wgrap_lap` as a test oracle.
//!
//! SDGA runs through [`SdgaSolver`](crate::engine::SdgaSolver), which picks
//! the candidate pruning:
//!
//! ```
//! use wgrap_core::engine::{ScoreContext, SdgaSolver, Solver};
//! use wgrap_core::prelude::{Instance, Scoring, TopicVector};
//! let papers = vec![TopicVector::new(vec![0.6, 0.4]), TopicVector::new(vec![0.3, 0.7])];
//! let reviewers = vec![
//!     TopicVector::new(vec![0.9, 0.1]),
//!     TopicVector::new(vec![0.2, 0.8]),
//!     TopicVector::new(vec![0.5, 0.5]),
//! ];
//! let inst = Instance::new(papers, reviewers, 2, 2).unwrap();
//! let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
//! let a = SdgaSolver::default().solve(&ctx).unwrap();
//! assert!(a.validate(&inst).is_ok());
//! assert_eq!(a.group(0).len(), 2);
//! ```

use crate::assignment::Assignment;
use crate::engine::{par, CandidateSet, GainProvider, GainTable, PruningPolicy, ScoreContext};
use crate::error::{Error, Result};
use crate::problem::Instance;
use wgrap_lap::SparseMatrix;

/// An additive per-pair bonus `(reviewer, paper) → f64` on every stage
/// gain. A *modular* bonus keeps the combined objective submodular, so the
/// SDGA guarantee carries over; the bid-aware extension of [`super::bids`]
/// plugs in this way.
pub(crate) type Bonus<'a> = &'a (dyn Fn(usize, usize) -> f64 + Sync);

/// Run SDGA over a [`ScoreContext`] (flat engine gains) under a candidate
/// pruning policy; the certification rules are on
/// [`SdgaSolver::pruning`](crate::engine::SdgaSolver::pruning).
pub(crate) fn solve_ctx_pruned(
    ctx: &ScoreContext<'_>,
    pruning: PruningPolicy,
) -> Result<Assignment> {
    // Auto certifies only the full stage; Exact is exact.
    let cands = pruning.resolve_lossy(ctx);
    solve_ctx_with_cands(ctx, cands.as_ref())
}

/// [`solve_ctx_pruned`] with a pre-built candidate set, so callers running
/// several pruned phases over one context (SDGA-SRA) build the set once.
pub(crate) fn solve_ctx_with_cands(
    ctx: &ScoreContext<'_>,
    cands: Option<&CandidateSet>,
) -> Result<Assignment> {
    solve_impl(ctx.instance(), &mut GainTable::new(ctx), cands, None)
}

/// Algorithm 2: `δp` stages, each placing one more reviewer on every paper
/// with at most `⌈δr/δp⌉` new papers per reviewer.
pub(crate) fn solve_impl<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &mut P,
    cands: Option<&CandidateSet>,
    bonus: Option<Bonus<'_>>,
) -> Result<Assignment> {
    let num_p = inst.num_papers();
    let mut assignment = Assignment::empty(num_p);
    if num_p == 0 {
        return Ok(assignment);
    }
    let mut loads = vec![0usize; inst.num_reviewers()];
    let stage_cap = inst.delta_r().div_ceil(inst.delta_p());

    for _stage in 0..inst.delta_p() {
        for (r, p) in solve_stage(inst, gains, &loads, &assignment, stage_cap, cands, bonus)? {
            assignment.assign(r, p);
            gains.add(p, r);
            loads[r] += 1;
        }
    }
    Ok(assignment)
}

/// One Stage-WGRAP solve (Definition 9): one new reviewer for every paper,
/// maximising the total marginal gain (plus `bonus`), with at most
/// `stage_cap` new papers per reviewer this stage and `δr` overall. The
/// stochastic refinement's refill (§4.4) "can be completed by a linear
/// assignment (similarly to the process at the last stage of SDGA)": it is
/// this solve with `stage_cap = δr`. Returns `(reviewer, paper)` pairs.
///
/// A paper's edges are its feasible reviewers (not full, not in conflict,
/// not already in its group): those of its [`CandidateSet`] row when
/// `cands` is given, otherwise all of them. When candidate edges cannot
/// place every paper (capacity knots outside the top-k rows), the stage is
/// solved again over all feasible reviewers. By submodularity a candidate
/// stage's objective is within [`CandidateSet::stage_loss_bound`] of the
/// full stage optimum. Rows build in parallel under the `rayon` feature,
/// written positionally, so the edges are bit-identical either way.
pub(crate) fn solve_stage<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &P,
    loads: &[usize],
    assignment: &Assignment,
    stage_cap: usize,
    cands: Option<&CandidateSet>,
    bonus: Option<Bonus<'_>>,
) -> Result<Vec<(usize, usize)>> {
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    let caps = stage_caps(inst, loads, num_p, stage_cap);
    let solve = |cands: Option<&CandidateSet>| {
        let rows = par::map_indexed(num_p, |p| {
            let (reviewers, row) = match cands {
                Some(cs) => {
                    let (rs, _) = cs.candidates(p);
                    let mut row = vec![0.0f64; rs.len()];
                    gains.gains_for(p, rs, &mut row);
                    (Some(rs), row)
                }
                None => {
                    let mut row = vec![0.0f64; num_r];
                    gains.gains_into(p, &mut row);
                    (None, row)
                }
            };
            let mut edges = Vec::with_capacity(row.len());
            for (i, &gain) in row.iter().enumerate() {
                let r = reviewers.map_or(i, |rs| rs[i] as usize);
                if loads[r] < inst.delta_r()
                    && !inst.is_coi(r, p)
                    && !assignment.group(p).contains(&r)
                {
                    edges.push((r as u32, bonus.map_or(gain, |b| gain + b(r, p))));
                }
            }
            edges
        });
        SparseMatrix::from_rows(num_r, rows)
            .solve_capacitated(&caps)
            .map_err(|e| Error::InvalidInstance(format!("stage assignment: {e}")))
    };
    let mut sol = solve(cands)?;
    if cands.is_some() && sol.matched() < num_p {
        sol = solve(None)?;
    }
    sol.row_to_col
        .into_iter()
        .enumerate()
        .map(|(p, r)| {
            r.map(|r| (r, p)).ok_or_else(|| {
                Error::Infeasible(format!("stage assignment could not place paper {p}"))
            })
        })
        .collect()
}

/// Per-reviewer slot capacities for one stage: `min(stage_cap, δr − load)`,
/// relaxed toward the remaining global workload when δr is not divisible by
/// δp. When earlier stages skew the load profile the capped slot total can
/// fall short of P (the Lemma 3 confinement only provably works out in the
/// integral case; §4.3.2 derives the general-case ratio ignoring the last
/// stage anyway): relax per-reviewer caps, most slack first, until every
/// paper can be placed.
fn stage_caps(inst: &Instance, loads: &[usize], num_papers: usize, stage_cap: usize) -> Vec<i64> {
    let num_r = inst.num_reviewers();
    let mut caps: Vec<i64> =
        (0..num_r).map(|r| stage_cap.min(inst.delta_r().saturating_sub(loads[r])) as i64).collect();
    let mut deficit = num_papers as i64 - caps.iter().sum::<i64>();
    if deficit > 0 {
        let mut order: Vec<usize> = (0..num_r).collect();
        let headroom = |r: usize, caps: &[i64]| inst.delta_r() as i64 - loads[r] as i64 - caps[r];
        order.sort_by_key(|&r| std::cmp::Reverse(headroom(r, &caps)));
        'relax: loop {
            let mut progressed = false;
            for &r in &order {
                if headroom(r, &caps) > 0 {
                    caps[r] += 1;
                    deficit -= 1;
                    progressed = true;
                    if deficit == 0 {
                        break 'relax;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
    caps
}

/// Analytic approximation ratio for integral cases (`δp | δr`):
/// `1 − (1 − 1/δp)^{δp}` (Theorem 1's per-δp form; ≥ 1 − 1/e as δp → ∞).
pub fn approx_ratio_integral(delta_p: usize) -> f64 {
    let d = delta_p as f64;
    1.0 - (1.0 - 1.0 / d).powi(delta_p as i32)
}

/// Analytic approximation ratio for general cases:
/// `1 − (1 − 1/δp)^{δp−1} ≥ 1/2` (Theorem 2).
pub fn approx_ratio_general(delta_p: usize) -> f64 {
    let d = delta_p as f64;
    1.0 - (1.0 - 1.0 / d).powi(delta_p as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::score::Scoring;
    use crate::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
        solve_ctx_pruned(&ScoreContext::new(inst, scoring), PruningPolicy::Exact)
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..5 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    /// The §4.2 motivating example: greedy-by-pair exhausts r1 in stage 1,
    /// but the stage confinement (`⌈δr/δp⌉ = 1` per stage) reserves one unit
    /// of r1's workload so topic t3 of p1 stays coverable.
    #[test]
    fn stage_confinement_example() {
        let reviewers = vec![tv(&[0.1, 0.5, 0.4]), tv(&[1.0, 0.0, 0.0]), tv(&[0.0, 1.0, 0.0])];
        let papers = vec![tv(&[0.6, 0.0, 0.4]), tv(&[0.5, 0.5, 0.0]), tv(&[0.5, 0.5, 0.0])];
        let inst = Instance::new(papers, reviewers, 2, 2).unwrap();
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        a.validate(&inst).unwrap();
        // r1 (index 0) must end up reviewing p1 (the only reviewer covering
        // t3): per-stage cap 1 keeps one unit of its workload in reserve.
        assert!(
            a.group(0).contains(&0),
            "stage confinement should reserve r1 for p1, got {:?}",
            a.group(0)
        );
    }

    #[test]
    fn full_density_topk_matches_dense_stage_bitwise() {
        // With k ≥ R no positive-score reviewer is excluded; on these dense
        // random instances every pair scores positive, so the candidate
        // stage solves the very same edges as the full stage and the whole
        // assignment must be identical, reviewer for reviewer.
        for seed in 0..6 {
            let inst = random_instance(9, 6, 4, 2, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
            let dense = solve_ctx_pruned(&ctx, PruningPolicy::Exact).unwrap();
            let pruned = solve_ctx_pruned(&ctx, PruningPolicy::TopK(1000)).unwrap();
            assert_eq!(dense, pruned, "seed={seed}");
        }
    }

    #[test]
    fn small_topk_stays_valid_and_auto_is_exact() {
        for seed in 0..6 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
            let exact = solve_ctx_pruned(&ctx, PruningPolicy::Exact).unwrap();
            // Auto never prunes SDGA stages (LAP tie-breaks are not
            // certifiable), so it is the exact assignment.
            let auto = solve_ctx_pruned(&ctx, PruningPolicy::Auto).unwrap();
            assert_eq!(exact, auto, "seed={seed}");
            // Aggressive top-k stays feasible (dense-stage fallback covers
            // capacity knots) and cannot beat the dense score by much more
            // than floating noise... it simply must be valid.
            let pruned = solve_ctx_pruned(&ctx, PruningPolicy::TopK(3)).unwrap();
            pruned.validate(&inst).unwrap();
        }
    }

    #[test]
    fn respects_coi() {
        let mut inst = random_instance(6, 6, 4, 2, 3);
        inst.add_coi(0, 0);
        inst.add_coi(1, 0);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        assert!(!a.group(0).contains(&0));
        assert!(!a.group(0).contains(&1));
        a.validate(&inst).unwrap();
    }

    #[test]
    fn tight_capacity_instance_fills() {
        // R*delta_r == P*delta_p exactly: every reviewer must be saturated.
        let inst = random_instance(8, 4, 4, 2, 5); // delta_r = ceil(16/4) = 4
        assert_eq!(inst.delta_r() * inst.num_reviewers(), 8 * 2);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        a.validate(&inst).unwrap();
        assert!(a.loads(4).iter().all(|&l| l == inst.delta_r()));
    }

    #[test]
    fn approx_ratio_values_match_figure7() {
        // Fig. 7: general ratio at delta_p = 2 is 1/2; 5/9 at 3; 0.5904 at 5.
        assert!((approx_ratio_general(2) - 0.5).abs() < 1e-12);
        assert!((approx_ratio_general(3) - 5.0 / 9.0).abs() < 1e-12);
        assert!((approx_ratio_general(5) - 0.5904).abs() < 1e-4);
        // Integral ratio approaches 1 - 1/e from above.
        assert!(approx_ratio_integral(2) > 1.0 - 1.0 / std::f64::consts::E);
        for d in 2..=10 {
            assert!(approx_ratio_general(d) >= 0.5);
            assert!(approx_ratio_integral(d) > approx_ratio_general(d));
        }
    }

    #[test]
    fn sdga_at_least_half_of_exact_on_tiny_instances() {
        use crate::cra::exact;
        for seed in 0..6 {
            let inst = random_instance(3, 4, 3, 2, 100 + seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            let opt = exact::solve(&inst, Scoring::WeightedCoverage).unwrap();
            let ratio = a.coverage_score(&inst, Scoring::WeightedCoverage)
                / opt.coverage_score(&inst, Scoring::WeightedCoverage);
            assert!(ratio >= 0.5 - 1e-9, "seed={seed}: ratio {ratio}");
        }
    }

    /// FNV-1a over every group, reviewer ids in assignment order.
    fn fingerprint(a: &Assignment) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for p in 0..a.num_papers() {
            eat(u32::MAX);
            for &r in a.group(p) {
                eat(r as u32);
            }
        }
        h
    }

    /// A seeded instance whose vectors keep about half their topics, with a
    /// few conflicts: candidate rows are real subsets of the reviewers.
    fn sparse_instance(
        num_p: usize,
        num_r: usize,
        dim: usize,
        delta_p: usize,
        seed: u64,
    ) -> Instance {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = |n: usize| -> Vec<TopicVector> {
            (0..n)
                .map(|_| {
                    let mut v: Vec<f64> = (0..dim)
                        .map(|_| if rng.random::<f64>() < 0.5 { rng.random::<f64>() } else { 0.0 })
                        .collect();
                    if v.iter().all(|&x| x == 0.0) {
                        v[0] = 1.0;
                    }
                    TopicVector::new(v).normalized()
                })
                .collect()
        };
        let papers = gen(num_p);
        let reviewers = gen(num_r);
        let delta_r = Instance::minimal_delta_r(num_p, num_r, delta_p) + 1;
        let mut inst = Instance::new(papers, reviewers, delta_p, delta_r).unwrap();
        for p in (0..num_p).step_by(7) {
            inst.add_coi(p % num_r, p);
        }
        inst
    }

    /// The stage path's output bytes, pinned: SDGA under `Exact` and
    /// `TopK(3)`, SDGA-SRA under `Exact`, `Auto` and `TopK(3)` (context seed
    /// 7, ω = 5) and bid-aware SDGA at λ = 0.5, under every scoring, on
    /// three seeded instances (P=40/R=15/δp=3 with R·δr = P·δp,
    /// P=40/R=17/δp=3 with slack, and a sparse P=30/R=12/δp=2 one with
    /// conflicts). Each value is [`fingerprint`] of one run; rayon on and
    /// off must read the same. The `TopK(3)` runs reach the stage's fall
    /// back to every feasible reviewer. A change to how stage optima break
    /// ties moves these values, and must say so.
    #[test]
    fn stage_path_output_fingerprints() {
        use crate::cra::bids::{self, BidLevel, Bids};
        use crate::cra::sra::SraOptions;
        use crate::cra::CraAlgorithm;
        use crate::engine::{SdgaSraSolver, Solver};
        // Rows: instance × scoring (weighted, reviewer, paper, dot). Columns:
        // SDGA Exact, SDGA TopK(3), SRA Exact, SRA Auto, SRA TopK(3), bids.
        #[rustfmt::skip]
        const EXPECTED: [[u64; 6]; 12] = [
            [0x6cfd133d510986f5, 0xf0bd8683ca584de5, 0xc5bba09d1ade996d, 0xc5bba09d1ade996d, 0x86ada806ba50dfc5, 0xd090661a4dedf845],
            [0xefa9f9d55548bfc5, 0xefa9f9d55548bfc5, 0x1a30a44c10f9b08d, 0x1a30a44c10f9b08d, 0x2c93b4ee43aa6f65, 0x9eb9ca7fcd8c2b65],
            [0x255b00db0732445d, 0x2a7f8f1d9e3845f5, 0x255b00db0732445d, 0x255b00db0732445d, 0x2a7f8f1d9e3845f5, 0x9dee7f6ea14b47cd],
            [0xdef3ec96ded4db1d, 0x9769ff8e8b1d3a6d, 0x8ee80bdc81c57bb5, 0x8ee80bdc81c57bb5, 0x53d78b19980b6dbd, 0x4a8b4c89adc03515],
            [0x1416668568185668, 0x1416668568185668, 0x1ad38be8477bf45e, 0x1ad38be8477bf45e, 0x5a8060f0f9a3df33, 0xc863d71717e26d02],
            [0x01696a0b5f45f7e0, 0x01696a0b5f45f7e0, 0xa146e4d80047ff60, 0xa146e4d80047ff60, 0x56b98419e0074c38, 0x214a5696b52e549f],
            [0x6055813b71d967fc, 0x850d72da357af36d, 0x6055813b71d967fc, 0x6055813b71d967fc, 0xd0d8d90c82e2c459, 0xccf4087fdcd74b7e],
            [0x29ef79570f6edd16, 0x0b02ac9440cd8264, 0xf3fee4b6cb1cc462, 0xf3fee4b6cb1cc462, 0x81c8721bf520011d, 0x8a2031d84cc98e1b],
            [0x285f66499d2ba35e, 0xf5c73dc27cdca85f, 0x2fe978fbd74d508d, 0x2fe978fbd74d508d, 0x845d3770620f7253, 0x7a722eedddde0424],
            [0x273ee50ae1b7258f, 0x273ee50ae1b7258f, 0x7d46c2f749ca2b1c, 0x7d46c2f749ca2b1c, 0x791eca7f8e023994, 0xc9ca78ce424e2211],
            [0x5a7f5ffac2865fdc, 0x5a7f5ffac2865fdc, 0x5a7f5ffac2865fdc, 0x5a7f5ffac2865fdc, 0x5a7f5ffac2865fdc, 0x253bb78b7ba2947f],
            [0x403035e48eac9bdd, 0x516979021f0e2e81, 0x3188a88ce20eb638, 0x3188a88ce20eb638, 0x6731c6b4ad087e43, 0x7471b7b9381b8049],
        ];
        let instances = [
            random_instance(40, 15, 6, 3, 1),
            random_instance(40, 17, 6, 3, 2),
            sparse_instance(30, 12, 8, 2, 3),
        ];
        assert_eq!(instances[0].num_reviewers() * instances[0].delta_r(), 40 * 3);
        let mut got = Vec::new();
        for inst in &instances {
            let mut bids = Bids::neutral(inst.num_reviewers(), inst.num_papers());
            for r in 0..inst.num_reviewers() {
                for p in 0..inst.num_papers() {
                    let level = [BidLevel::No, BidLevel::Neutral, BidLevel::Maybe, BidLevel::Yes]
                        [(r * 7 + p * 3) % 4];
                    bids.set(r, p, level);
                }
            }
            for scoring in Scoring::ALL {
                let ctx = ScoreContext::new(inst, scoring).with_seed(7);
                let sdga = |pruning| CraAlgorithm::Sdga.solver_with(pruning).solve(&ctx);
                let sra = |pruning| {
                    let sra = SraOptions { omega: 5, ..Default::default() };
                    SdgaSraSolver { sra, pruning }.solve(&ctx)
                };
                let runs = [
                    sdga(PruningPolicy::Exact),
                    sdga(PruningPolicy::TopK(3)),
                    sra(PruningPolicy::Exact),
                    sra(PruningPolicy::Auto),
                    sra(PruningPolicy::TopK(3)),
                    bids::solve_sdga(&ctx, &bids, 0.5),
                ];
                got.push(runs.map(|a| fingerprint(&a.unwrap())));
            }
        }
        let rows: Vec<String> = got
            .iter()
            .map(|row| format!("[{}],", row.map(|v| format!("0x{v:016x}")).join(", ")))
            .collect();
        assert!(
            got == EXPECTED,
            "stage path fingerprints moved; this build reads:\n{}",
            rows.join("\n")
        );
    }

    /// Gains far above 1 (reviewer coverage over a paper whose weights sum
    /// to 2e-300) are refused as out of the flow kernel's range, not solved
    /// into a false "could not place paper".
    #[test]
    fn out_of_range_gains_are_refused() {
        let reviewers = vec![
            tv(&[1.0, 0.0, 0.0]),
            tv(&[0.0, 1.0, 0.0]),
            tv(&[0.5, 0.5, 0.0]),
            tv(&[0.0, 0.0, 1.0]),
        ];
        let papers = vec![
            tv(&[1e-300, 1e-300, 0.0]),
            tv(&[0.2, 0.3, 0.5]),
            tv(&[0.5, 0.5, 0.0]),
            tv(&[1e-300, 0.0, 1e-300]),
        ];
        let inst = Instance::new(papers, reviewers, 2, 2).unwrap();
        let err = solve(&inst, Scoring::ReviewerCoverage).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, Error::InvalidInstance(_)), "{msg}");
        assert!(msg.starts_with("invalid instance: stage assignment: weights span "), "{msg}");
        solve(&inst, Scoring::WeightedCoverage).unwrap().validate(&inst).unwrap();
    }
}
