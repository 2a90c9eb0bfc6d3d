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
//! Two interchangeable LAP backends are provided (the paper suggests either
//! the Hungarian algorithm or min-cost flow): flow handles reviewer slot
//! capacities natively; Hungarian expands each reviewer into capacity-many
//! slot columns. Their equality is an ablation bench (`benches/lap.rs`).
//!
//! SDGA runs through [`SdgaSolver`](crate::engine::SdgaSolver), which picks
//! the backend and the candidate pruning:
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
use wgrap_lap::{hungarian_max, CapacitatedAssignment, CostMatrix, SparseMatrix};

/// Which linear-assignment solver runs each stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LapBackend {
    /// Min-cost max-flow with per-reviewer slot capacities (default).
    #[default]
    Flow,
    /// Hungarian algorithm on a slot-expanded matrix.
    Hungarian,
}

/// Run SDGA over a [`ScoreContext`] (flat engine gains) with an explicit
/// LAP backend under a candidate pruning policy; the certification rules
/// are on [`SdgaSolver::pruning`](crate::engine::SdgaSolver::pruning).
pub(crate) fn solve_ctx_pruned(
    ctx: &ScoreContext<'_>,
    backend: LapBackend,
    pruning: PruningPolicy,
) -> Result<Assignment> {
    // Auto certifies only the dense stage; Exact is exact.
    let cands = pruning.resolve_lossy(ctx);
    solve_ctx_with_cands(ctx, backend, cands.as_ref())
}

/// [`solve_ctx_pruned`] with a pre-built candidate set, so callers running
/// several pruned phases over one context (SDGA-SRA) build the set once.
pub(crate) fn solve_ctx_with_cands(
    ctx: &ScoreContext<'_>,
    backend: LapBackend,
    cands: Option<&CandidateSet>,
) -> Result<Assignment> {
    solve_impl(ctx.instance(), &mut GainTable::new(ctx), backend, cands)
}

pub(crate) fn solve_impl<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &mut P,
    backend: LapBackend,
    cands: Option<&CandidateSet>,
) -> Result<Assignment> {
    let num_p = inst.num_papers();
    let mut assignment = Assignment::empty(num_p);
    if num_p == 0 {
        return Ok(assignment);
    }
    let mut loads = vec![0usize; inst.num_reviewers()];
    let stage_cap = inst.delta_r().div_ceil(inst.delta_p());

    for _stage in 0..inst.delta_p() {
        let papers: Vec<usize> = (0..num_p).collect();
        let pairs = match cands {
            Some(cs) => {
                solve_stage_sparse(
                    inst,
                    gains,
                    &loads,
                    &assignment,
                    &papers,
                    stage_cap,
                    backend,
                    cs,
                )
                .or_else(|_| {
                    // Candidate edges could not place every paper
                    // (capacity knots outside the top-k lists): fall
                    // back to the dense stage, which sees all pairs.
                    solve_stage(inst, gains, &loads, &assignment, &papers, stage_cap, backend)
                })?
            }
            None => solve_stage(inst, gains, &loads, &assignment, &papers, stage_cap, backend)?,
        };
        for (r, p) in pairs {
            assignment.assign(r, p);
            gains.add(p, r);
            loads[r] += 1;
        }
    }
    Ok(assignment)
}

/// One Stage-WGRAP solve (Definition 9): assign exactly one new reviewer to
/// each paper in `papers`, maximising total marginal gain, with at most
/// `stage_cap` new papers per reviewer this stage (and `δr` overall).
///
/// Shared with the stochastic refinement (§4.4), whose refill step "can be
/// completed by a linear assignment (similarly to the process at the last
/// stage of SDGA)".
pub(crate) fn solve_stage<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &P,
    loads: &[usize],
    assignment: &Assignment,
    papers: &[usize],
    stage_cap: usize,
    backend: LapBackend,
) -> Result<Vec<(usize, usize)>> {
    solve_stage_with_bonus(inst, gains, loads, assignment, papers, stage_cap, backend, &|_, _| 0.0)
}

/// [`solve_stage`] with an additive per-pair bonus on every marginal gain.
/// A *modular* bonus (constant per `(reviewer, paper)` pair) keeps the
/// combined objective submodular, so the SDGA guarantee carries over — this
/// is how the bid-aware extension of [`super::bids`] plugs in.
///
/// The cost matrix is built one paper-row at a time; rows are independent
/// and written positionally, so with the `rayon` feature they build in
/// parallel with bit-identical output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_stage_with_bonus<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &P,
    loads: &[usize],
    assignment: &Assignment,
    papers: &[usize],
    stage_cap: usize,
    backend: LapBackend,
    bonus: &(dyn Fn(usize, usize) -> f64 + Sync),
) -> Result<Vec<(usize, usize)>> {
    let num_r = inst.num_reviewers();
    let rows = par::map_indexed(papers.len(), |i| {
        let p = papers[i];
        let mut row = vec![0.0f64; num_r];
        gains.gains_into(p, &mut row);
        for (r, w) in row.iter_mut().enumerate() {
            if loads[r] >= inst.delta_r() || inst.is_coi(r, p) || assignment.group(p).contains(&r) {
                *w = f64::NEG_INFINITY;
            } else {
                *w += bonus(r, p);
            }
        }
        row
    });
    let weights = CostMatrix::from_flat(papers.len(), num_r, rows.concat());
    let caps = stage_caps(inst, loads, papers.len(), stage_cap);

    let row_to_col = match backend {
        LapBackend::Flow => CapacitatedAssignment::new(&weights, &caps).solve().row_to_col,
        LapBackend::Hungarian => hungarian_slots(&weights, &caps),
    };

    let mut out = Vec::with_capacity(papers.len());
    for (i, col) in row_to_col.into_iter().enumerate() {
        match col {
            Some(r) => out.push((r, papers[i])),
            None => {
                return Err(Error::Infeasible(format!(
                    "stage assignment could not place paper {}",
                    papers[i]
                )))
            }
        }
    }
    Ok(out)
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

/// [`solve_stage`] over candidate edges only: each paper's row holds its
/// feasible [`CandidateSet`] entries (marginal gain as weight) and the
/// linear assignment runs on the [`SparseMatrix`] entry point — `O(Σ_p k_p)`
/// edges and score state instead of `O(P·R)`. Errors when some paper cannot
/// be placed inside the candidate edges (the caller falls back to the dense
/// stage); by submodularity the stage objective is within
/// [`CandidateSet::stage_loss_bound`] of the dense stage optimum.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_stage_sparse<P: GainProvider + Sync>(
    inst: &Instance,
    gains: &P,
    loads: &[usize],
    assignment: &Assignment,
    papers: &[usize],
    stage_cap: usize,
    backend: LapBackend,
    cands: &CandidateSet,
) -> Result<Vec<(usize, usize)>> {
    let num_r = inst.num_reviewers();
    let rows: Vec<Vec<(u32, f64)>> = par::map_indexed(papers.len(), |i| {
        let p = papers[i];
        let (rs, _) = cands.candidates(p);
        let mut row = vec![0.0f64; rs.len()];
        gains.gains_for(p, rs, &mut row);
        rs.iter()
            .zip(&row)
            .filter(|&(&r, _)| {
                let r = r as usize;
                loads[r] < inst.delta_r() && !inst.is_coi(r, p) && !assignment.group(p).contains(&r)
            })
            .map(|(&r, &g)| (r, g))
            .collect()
    });
    let caps = stage_caps(inst, loads, papers.len(), stage_cap);
    let sparse = SparseMatrix::from_rows(num_r, rows);
    let sol = match backend {
        LapBackend::Flow => sparse.solve_capacitated(&caps),
        LapBackend::Hungarian => sparse.solve_hungarian(&caps),
    };
    let mut out = Vec::with_capacity(papers.len());
    for (i, col) in sol.row_to_col.into_iter().enumerate() {
        match col {
            Some(r) => out.push((r, papers[i])),
            None => {
                return Err(Error::Infeasible(format!(
                    "sparse stage could not place paper {} within its candidates",
                    papers[i]
                )))
            }
        }
    }
    Ok(out)
}

/// Hungarian backend: expand reviewer `r` into `caps[r]` identical slot
/// columns, solve the rectangular max-weight matching, fold slots back.
fn hungarian_slots(weights: &CostMatrix, caps: &[i64]) -> Vec<Option<usize>> {
    let mut slot_owner = Vec::new();
    for (r, &cap) in caps.iter().enumerate() {
        for _ in 0..cap {
            slot_owner.push(r);
        }
    }
    let expanded =
        CostMatrix::from_fn(weights.rows(), slot_owner.len(), |i, s| weights.get(i, slot_owner[s]));
    match hungarian_max(&expanded) {
        Some(sol) => sol.row_to_col.into_iter().map(|c| c.map(|s| slot_owner[s])).collect(),
        None => vec![None; weights.rows()],
    }
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

    fn solve_with_backend(
        inst: &Instance,
        scoring: Scoring,
        backend: LapBackend,
    ) -> Result<Assignment> {
        solve_ctx_pruned(&ScoreContext::new(inst, scoring), backend, PruningPolicy::Exact)
    }

    fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
        solve_with_backend(inst, scoring, LapBackend::Flow)
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..5 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn backends_agree_on_objective() {
        for seed in 0..8 {
            let inst = random_instance(9, 6, 4, 2, seed);
            let flow = solve_with_backend(&inst, Scoring::WeightedCoverage, LapBackend::Flow)
                .unwrap()
                .coverage_score(&inst, Scoring::WeightedCoverage);
            let hung = solve_with_backend(&inst, Scoring::WeightedCoverage, LapBackend::Hungarian)
                .unwrap()
                .coverage_score(&inst, Scoring::WeightedCoverage);
            // Stage optima are equal; accumulated groups may differ on ties,
            // so compare with modest slack.
            assert!((flow - hung).abs() < 1e-6, "seed={seed}: {flow} vs {hung}");
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
        // random instances every pair scores positive, so the sparse stage
        // solves the very same network as the dense stage and the whole
        // assignment must be identical, reviewer for reviewer.
        for seed in 0..6 {
            let inst = random_instance(9, 6, 4, 2, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
            for backend in [LapBackend::Flow, LapBackend::Hungarian] {
                let dense = solve_ctx_pruned(&ctx, backend, PruningPolicy::Exact).unwrap();
                let pruned = solve_ctx_pruned(&ctx, backend, PruningPolicy::TopK(1000)).unwrap();
                assert_eq!(dense, pruned, "seed={seed} {backend:?}");
            }
        }
    }

    #[test]
    fn small_topk_stays_valid_and_auto_is_exact() {
        for seed in 0..6 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
            let exact = solve_ctx_pruned(&ctx, LapBackend::Flow, PruningPolicy::Exact).unwrap();
            // Auto never prunes SDGA stages (LAP tie-breaks are not
            // certifiable), so it is the exact assignment.
            let auto = solve_ctx_pruned(&ctx, LapBackend::Flow, PruningPolicy::Auto).unwrap();
            assert_eq!(exact, auto, "seed={seed}");
            // Aggressive top-k stays feasible (dense-stage fallback covers
            // capacity knots) and cannot beat the dense score by much more
            // than floating noise... it simply must be valid.
            let pruned = solve_ctx_pruned(&ctx, LapBackend::Flow, PruningPolicy::TopK(3)).unwrap();
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
}
