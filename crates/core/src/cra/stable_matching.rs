//! Stable Matching (SM) baseline — paper §5.2, citing Gale–Shapley \[13\].
//!
//! Many-to-many deferred acceptance on the individual pair scores `c(r, p)`:
//! papers (with `δp` slots each) propose to reviewers in decreasing score
//! order; a reviewer holds at most `δr` proposals and evicts the
//! lowest-scoring one when full. Because the objective ignores group
//! composition entirely, SM shows exactly the §5.2 weakness: an
//! interdisciplinary paper can end up with a narrow group.
//!
//! Deferred acceptance can strand slots when the only reviewers with spare
//! capacity already serve the paper; a greedy completion pass fills those.

use crate::assignment::Assignment;
use crate::engine::{PairMatrix, ScoreContext};
use crate::error::{Error, Result};
use crate::problem::Instance;
use std::collections::VecDeque;

/// Paper-proposing deferred acceptance over a [`ScoreContext`]'s flat
/// pair-score matrix, then completion of any stranded slots.
pub(crate) fn solve_ctx(ctx: &ScoreContext<'_>) -> Result<Assignment> {
    solve_impl(ctx.instance(), ctx.pair_matrix())
}

pub(crate) fn solve_impl(inst: &Instance, pair: &PairMatrix) -> Result<Assignment> {
    let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
    // Preference lists: reviewers by descending pair score (COI excluded).
    let mut prefs: Vec<Vec<usize>> = Vec::with_capacity(num_p);
    for p in 0..num_p {
        let scores = pair.paper_row(p);
        let mut order: Vec<usize> = (0..num_r).filter(|&r| !inst.is_coi(r, p)).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        prefs.push(order);
    }

    // held[r] = papers currently accepted by reviewer r.
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); num_r];
    // next proposal index per paper, and how many slots it still needs.
    let mut next = vec![0usize; num_p];
    let mut missing = vec![inst.delta_p(); num_p];
    let mut queue: VecDeque<usize> = (0..num_p).collect();

    while let Some(p) = queue.pop_front() {
        while missing[p] > 0 && next[p] < prefs[p].len() {
            let r = prefs[p][next[p]];
            next[p] += 1;
            if held[r].contains(&p) {
                continue;
            }
            if held[r].len() < inst.delta_r() {
                held[r].push(p);
                missing[p] -= 1;
            } else {
                // Evict the worst held paper if p scores higher with r.
                let (worst_idx, worst_p) = held[r]
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by(|a, b| pair.get(r, a.1).total_cmp(&pair.get(r, b.1)))
                    .expect("reviewer at capacity holds at least one paper");
                if pair.get(r, p) > pair.get(r, worst_p) {
                    held[r][worst_idx] = p;
                    missing[p] -= 1;
                    missing[worst_p] += 1;
                    queue.push_back(worst_p);
                }
            }
        }
    }

    let mut assignment = Assignment::empty(num_p);
    for (r, papers) in held.iter().enumerate() {
        for &p in papers {
            assignment.assign(r, p);
        }
    }

    // Completion pass for stranded slots (rare; tight capacity + duplicate
    // prohibition). Prefer the highest-scoring reviewer with spare capacity;
    // when every spare reviewer already serves the paper, free capacity by
    // swapping an assignment elsewhere.
    let mut loads = assignment.loads(num_r);
    for p in 0..num_p {
        while assignment.group(p).len() < inst.delta_p() {
            let candidate = (0..num_r)
                .filter(|&r| {
                    loads[r] < inst.delta_r()
                        && !assignment.group(p).contains(&r)
                        && !inst.is_coi(r, p)
                })
                .max_by(|&a, &b| pair.get(a, p).total_cmp(&pair.get(b, p)));
            match candidate {
                Some(r) => {
                    assignment.assign(r, p);
                    loads[r] += 1;
                }
                None => {
                    super::repair_capacity(inst, &mut assignment, &mut loads, p, 1).map_err(
                        |_| {
                            Error::Infeasible(format!(
                                "stable matching could not complete paper {p}"
                            ))
                        },
                    )?;
                }
            }
        }
    }
    Ok(assignment)
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
        solve_ctx(&ScoreContext::new(inst, scoring))
    }

    #[test]
    fn produces_valid_assignments() {
        for seed in 0..6 {
            let inst = random_instance(10, 7, 5, 3, seed);
            let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
            a.validate(&inst).unwrap();
        }
    }

    #[test]
    fn no_blocking_pair_within_capacity() {
        // Stability spot check: no (r, p) pair where both would strictly
        // gain — p preferring r to one of its reviewers while r has spare
        // capacity (eviction-based blocking needs care with the completion
        // pass, so we check the spare-capacity case only).
        let inst = random_instance(6, 8, 4, 2, 11);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        let loads = a.loads(8);
        let s = Scoring::WeightedCoverage;
        for p in 0..6 {
            let worst_held = a
                .group(p)
                .iter()
                .map(|&r| s.pair_score(inst.reviewer(r), inst.paper(p)))
                .fold(f64::INFINITY, f64::min);
            for r in 0..8 {
                if loads[r] < inst.delta_r() && !a.group(p).contains(&r) {
                    let sc = s.pair_score(inst.reviewer(r), inst.paper(p));
                    assert!(
                        sc <= worst_held + 1e-9,
                        "blocking pair: paper {p} prefers idle reviewer {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn interdisciplinary_paper_gets_narrow_group() {
        // The §1/§5.2 criticism reproduced: a paper split across two topics
        // gets two same-topic specialists under SM when they score highest
        // individually.
        let papers = vec![tv(&[0.5, 0.5]), tv(&[1.0, 0.0])];
        let reviewers = vec![
            tv(&[0.55, 0.45]), // generalist A: pair score 1.0 with p0
            tv(&[0.45, 0.55]), // generalist B
            tv(&[1.0, 0.0]),   // specialist t1
            tv(&[0.9, 0.1]),   // specialist t1
        ];
        let inst = Instance::new(papers, reviewers, 2, 2).unwrap();
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        a.validate(&inst).unwrap();
        // p0's top-2 individual scorers are the generalists (score 1.0 and
        // 0.9...): SM gives it both generalists even though a
        // specialist+generalist mix would have equal group coverage but
        // free a generalist for nothing — the point is SM never reasons
        // about groups.
        let mut g = a.group(0).to_vec();
        g.sort_unstable();
        assert_eq!(g, vec![0, 1]);
    }

    #[test]
    fn coi_never_assigned() {
        let mut inst = random_instance(5, 6, 4, 2, 13);
        inst.add_coi(0, 0);
        inst.add_coi(5, 4);
        let a = solve(&inst, Scoring::WeightedCoverage).unwrap();
        assert!(!a.group(0).contains(&0));
        assert!(!a.group(4).contains(&5));
    }
}
