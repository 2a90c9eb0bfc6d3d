//! The greedy algorithm of Long et al. (paper §4.1) — the 1/3-approximation
//! baseline that SDGA improves on.
//!
//! At each of the `P·δp` iterations, the feasible `(reviewer, paper)` pair
//! with the largest marginal gain (Eq. 4) is added to the assignment. As the
//! paper notes, a heap over the pairs reduces each iteration to logarithmic
//! time *because the gain function is monotonically decreasing with the size
//! of `A`* — we implement exactly that lazy heap: a popped pair whose gain is
//! stale is re-scored and pushed back, which is sound under submodularity
//! (stale gains only over-estimate).

use super::pair_feasible;
use crate::assignment::Assignment;
use crate::engine::celf::CelfQueue;
use crate::engine::{CandidateSet, GainProvider, GainTable, PruningPolicy, ScoreContext};
use crate::error::{Error, Result};
use crate::problem::Instance;

/// Run the greedy algorithm over a [`ScoreContext`] (flat engine gains)
/// under a candidate pruning policy; the certification rules are on
/// [`GreedySolver::pruning`](crate::engine::GreedySolver::pruning).
pub(crate) fn solve_ctx_with(ctx: &ScoreContext<'_>, pruning: PruningPolicy) -> Result<Assignment> {
    let cands = pruning.resolve(ctx);
    solve_impl(ctx.instance(), &mut GainTable::new(ctx), cands.as_deref())
}

pub(crate) fn solve_impl<P: GainProvider>(
    inst: &Instance,
    gains: &mut P,
    cands: Option<&CandidateSet>,
) -> Result<Assignment> {
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    let mut assignment = Assignment::empty(num_p);
    if num_p == 0 {
        return Ok(assignment);
    }

    let mut loads = vec![0usize; num_r];
    let mut remaining = num_p * inst.delta_p();

    let mut heap = CelfQueue::with_capacity(match cands {
        Some(cs) => (0..num_p).map(|p| cs.len(p)).sum(),
        None => num_p * num_r,
    });
    match cands {
        None => {
            let mut row = vec![0.0f64; num_r];
            for p in 0..num_p {
                // Row kernel rather than per-pair scalar calls: the initial
                // fill is the single largest gain sweep the algorithm does
                // (P·R pairs).
                gains.gains_into(p, &mut row);
                let version = gains.version(p);
                for (r, &g) in row.iter().enumerate() {
                    if !inst.is_coi(r, p) {
                        heap.push(g, r, p, version);
                    }
                }
            }
        }
        Some(cs) => {
            let mut row = Vec::new();
            for p in 0..num_p {
                let (rs, _) = cs.candidates(p);
                row.resize(rs.len(), 0.0);
                gains.gains_for(p, rs, &mut row);
                let version = gains.version(p);
                for (&r, &g) in rs.iter().zip(&row) {
                    if !inst.is_coi(r as usize, p) {
                        heap.push(g, r as usize, p, version);
                    }
                }
            }
        }
    }
    // Once the zero-gain regime begins, excluded pairs become pickable by
    // the dense path; spill them (once) to restore heap parity.
    let mut spilled = cands.is_none();
    let spill = |heap: &mut CelfQueue, gains: &P| {
        let cs = cands.expect("spill only runs with a candidate set");
        let mut row = vec![0.0f64; num_r];
        for p in 0..num_p {
            gains.gains_into(p, &mut row);
            let version = gains.version(p);
            // Merge against the (reviewer-sorted) candidate list: push only
            // the excluded pairs, with the row kernel's (bit-identical)
            // gains instead of per-pair scalar calls.
            let (rs, _) = cs.candidates(p);
            let mut j = 0usize;
            for (r, &g) in row.iter().enumerate() {
                if j < rs.len() && rs[j] as usize == r {
                    j += 1;
                    continue;
                }
                if !inst.is_coi(r, p) {
                    heap.push(g, r, p, version);
                }
            }
        }
    };

    while remaining > 0 {
        let Some(top) = heap.pop() else {
            if !spilled {
                spill(&mut heap, gains);
                spilled = true;
                continue;
            }
            // Feasible pairs exhausted with groups still open: greedy has no
            // lookahead, so tight capacity plus COIs can strand a tail paper
            // whose only spare-capacity reviewers already serve it. Free
            // capacity by swapping elsewhere, then requeue the paper's pairs.
            let mut progressed = false;
            for p in 0..num_p {
                let missing = inst.delta_p() - assignment.group(p).len();
                if missing == 0 {
                    continue;
                }
                super::repair_capacity(inst, &mut assignment, &mut loads, p, missing)?;
                // The repair may have edited other groups: rebuild all
                // incremental state so future gains stay exact.
                for q in 0..num_p {
                    gains.rebuild(q, assignment.group(q));
                }
                for r in 0..num_r {
                    if pair_feasible(inst, assignment.group(p), &loads, r, p) {
                        heap.push(gains.gain(p, r), r, p, gains.version(p));
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return Err(Error::Infeasible(
                    "greedy ran out of feasible pairs before filling all groups".into(),
                ));
            }
            continue;
        };
        let (r, p) = (top.reviewer as usize, top.paper as usize);
        if assignment.group(p).len() >= inst.delta_p()
            || !pair_feasible(inst, assignment.group(p), &loads, r, p)
        {
            continue;
        }
        if top.stamp != gains.version(p) {
            // Stale: the group of p changed since this gain was computed.
            // While groups only grow, submodularity makes the cached value
            // an upper bound, so re-scoring just the popped entry (CELF) is
            // exact. A capacity repair can *shrink* a group, after which
            // stale entries may under-estimate — same heuristic behaviour
            // as the seed; see `CelfQueue`'s docs.
            heap.push(gains.gain(p, r), r, p, gains.version(p));
            continue;
        }
        if !spilled && top.gain <= 0.0 {
            // Fresh top at zero gain: every remaining true gain is zero
            // (cached values upper-bound true gains while groups only
            // grow), and the dense path would now tie-break over *all*
            // reviewers. Spill the excluded pairs before assigning any
            // zero-gain pair, then re-offer this entry.
            spill(&mut heap, gains);
            spilled = true;
            heap.push(top.gain, r, p, top.stamp);
            continue;
        }
        assignment.assign(r, p);
        gains.add(p, r);
        loads[r] += 1;
        remaining -= 1;
    }

    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::score::{RunningGroup, Scoring};
    use crate::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    fn solve(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
        solve_ctx_with(&ScoreContext::new(inst, scoring), PruningPolicy::Exact)
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..5 {
            let inst = random_instance(12, 8, 5, 3, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn lazy_heap_matches_naive_rescan() {
        // Reference implementation: full rescan each iteration.
        fn naive(inst: &Instance, scoring: Scoring) -> f64 {
            let mut a = Assignment::empty(inst.num_papers());
            let mut loads = vec![0usize; inst.num_reviewers()];
            let mut remaining = inst.num_papers() * inst.delta_p();
            while remaining > 0 {
                // Tie-break identically to the lazy heap: highest gain,
                // then lowest reviewer, then lowest paper.
                let mut best = (f64::NEG_INFINITY, usize::MAX, usize::MAX);
                for p in 0..inst.num_papers() {
                    if a.group(p).len() >= inst.delta_p() {
                        continue;
                    }
                    let mut rg = RunningGroup::new(scoring, inst.paper(p));
                    for &r in a.group(p) {
                        rg.add(inst.reviewer(r));
                    }
                    for r in 0..inst.num_reviewers() {
                        if pair_feasible(inst, a.group(p), &loads, r, p) {
                            let g = rg.gain(inst.reviewer(r));
                            let better = g > best.0
                                || (g == best.0 && (r < best.1 || (r == best.1 && p < best.2)));
                            if better {
                                best = (g, r, p);
                            }
                        }
                    }
                }
                a.assign(best.1, best.2);
                loads[best.1] += 1;
                remaining -= 1;
            }
            a.coverage_score(inst, scoring)
        }
        for seed in [0u64, 3, 9] {
            let inst = random_instance(6, 5, 4, 2, seed);
            let fast = solve(&inst, Scoring::WeightedCoverage)
                .unwrap()
                .coverage_score(&inst, Scoring::WeightedCoverage);
            let slow = naive(&inst, Scoring::WeightedCoverage);
            // Tie-breaking may differ, but total greedy value must agree
            // whenever gains are distinct; allow tiny slack for ties.
            assert!((fast - slow).abs() < 1e-9, "seed={seed}: lazy={fast} naive={slow}");
        }
    }

    #[test]
    fn respects_coi() {
        let mut inst = random_instance(4, 6, 4, 2, 42);
        for r in 0..inst.num_reviewers() {
            if r != 1 && r != 2 {
                inst.add_coi(r, 0);
            }
        }
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let mut g = a.group(0).to_vec();
        g.sort_unstable();
        assert_eq!(g, vec![1, 2]);
        a.validate(&inst).unwrap();
    }

    #[test]
    fn starved_instance_errors() {
        let mut inst =
            Instance::new(vec![tv(&[1.0, 0.0])], vec![tv(&[0.5, 0.5]), tv(&[0.2, 0.8])], 2, 1)
                .unwrap();
        inst.add_coi(0, 0);
        let e = solve(&inst, Scoring::WeightedCoverage);
        assert!(matches!(e, Err(Error::Infeasible(_))));
    }

    #[test]
    fn single_paper_matches_greedy_jra_value() {
        // With one paper, greedy = delta_p rounds of max marginal gain.
        let inst = random_instance(1, 10, 4, 3, 7);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let mut rg = RunningGroup::new(Scoring::WeightedCoverage, inst.paper(0));
        let mut chosen = vec![false; inst.num_reviewers()];
        for _ in 0..3 {
            let (best_r, _) = (0..inst.num_reviewers())
                .filter(|&r| !chosen[r])
                .map(|r| (r, rg.gain(inst.reviewer(r))))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            chosen[best_r] = true;
            rg.add(inst.reviewer(best_r));
        }
        assert!((a.coverage_score(&inst, Scoring::WeightedCoverage) - rg.score()).abs() < 1e-9);
    }
}
