//! Branch-and-Bound Algorithm (BBA) for exact JRA — paper Algorithm 1.
//!
//! BBA partitions the search into `δp` stages (one reviewer chosen per
//! stage) and maintains, per stage, `T` cursors into topic-sorted reviewer
//! lists. The cursors drive both:
//!
//! * **branching** — the candidate with the largest marginal gain among the
//!   cursor heads is explored first (Definition 8), and
//! * **bounding** — the per-topic cursor heads give the upper bound of
//!   Eq. 3: no completion of the running group can beat
//!   `c(max(g, cursor-heads), p)`.
//!
//! The visited-marks protocol (Definition 7) guarantees each group is
//! examined at most once, and because every reviewer appears in every sorted
//! list, cursor exhaustion at a stage implies all candidates were tried —
//! so the search is exact.
//!
//! The top-k variant replaces the single best-so-far with a bounded min-heap
//! (the paper notes this extension at the end of §3; Figure 15 evaluates it).
//!
//! # Cost model
//!
//! Let `n` be the eligible pool, `T` the topic count and `s` the paper's
//! support — its non-zero topics under weighted, paper and dot coverage
//! (all `T` under reviewer coverage; see [`JraView::active_topics`]). A
//! topic outside the support adds an exact zero to every gain and to the
//! Eq. 3 bound, so both are summed over the support only:
//!
//! * **setup** — one `O(n·T)` scan collects each topic's reviewers with
//!   positive expertise, and only those are sorted. Each topic's list is
//!   that sorted part followed by an implicit tail: the remaining eligible
//!   reviewers in id order (`+0.0` rows, then `-0.0` rows), materialised
//!   only if a cursor reaches it. Together they are exactly the
//!   `(expertise desc, id asc)` order of a full sort.
//! * **per node** — all `T` cursor heads are still scanned, so the
//!   branching order (and with it every answer, tie-break and node count)
//!   is the dense search's. A head's gain costs `O(s)` and is cached per
//!   stage until its cursor moves; the bound costs `O(s)`.
//!
//! At the served shapes (`T = 300`, papers of at most 4 topics) this took
//! a δp=2 query at R=1000 from 35 ms to 1.8 ms on a 2-core host
//! (`BENCH_jra.json`).

use super::{JraProblem, JraResult};
use crate::engine::{truncate_row, JraView, PaperGain, PruningPolicy, ScoreContext};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options for [`solve_with_options`].
#[derive(Debug, Clone)]
pub struct BbaOptions {
    /// Number of best groups to return (`k = 1` recovers plain BBA).
    pub top_k: usize,
    /// Disable the Eq. 3 upper bound (ablation; branching order only).
    pub use_bound: bool,
    /// Prune branches whose upper bound is at most this value from the
    /// start, before any group has been found. Seeding with the score of a
    /// known group (e.g. a greedy pick) preserves exactness for groups
    /// *strictly better* than the seed while pruning aggressively — pass
    /// `seed_score - ε` and fall back to the seed group when the search
    /// returns nothing better. Used by BRGG's lazy recomputation.
    pub initial_bound: f64,
}

impl Default for BbaOptions {
    fn default() -> Self {
        Self { top_k: 1, use_bound: true, initial_bound: f64::NEG_INFINITY }
    }
}

/// Best single group (Algorithm 1). `None` if fewer than `δp` candidates.
///
/// ```
/// use wgrap_core::jra::{bba, JraProblem};
/// use wgrap_core::prelude::TopicVector;
/// // The paper's running example (Figure 5): best pair is {r1, r2}.
/// let p = TopicVector::new(vec![0.35, 0.45, 0.2]);
/// let pool = vec![
///     TopicVector::new(vec![0.15, 0.75, 0.1]),
///     TopicVector::new(vec![0.75, 0.15, 0.1]),
///     TopicVector::new(vec![0.1, 0.35, 0.55]),
/// ];
/// let best = bba::solve(&JraProblem::new(&p, &pool, 2)).unwrap();
/// assert_eq!(best.group, vec![0, 1]);
/// assert!((best.score - 0.9).abs() < 1e-9);
/// ```
pub fn solve(problem: &JraProblem<'_>) -> Option<JraResult> {
    solve_with_options(problem, &BbaOptions::default()).map(|mut v| v.swap_remove(0))
}

/// Best `k` groups, sorted by descending score. Groups tied with the k-th
/// score may be pruned (bounding uses `≤`, as in Algorithm 1 line 8).
pub fn solve_top_k(problem: &JraProblem<'_>, k: usize) -> Option<Vec<JraResult>> {
    solve_with_options(problem, &BbaOptions { top_k: k, ..Default::default() })
}

#[derive(Debug)]
struct ScoredGroup {
    score: f64,
    group: Vec<usize>,
}

impl PartialEq for ScoredGroup {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for ScoredGroup {}
impl PartialOrd for ScoredGroup {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScoredGroup {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score)
    }
}

/// Bounded min-heap of the k best groups seen so far.
struct TopK {
    k: usize,
    init: f64,
    heap: BinaryHeap<Reverse<ScoredGroup>>,
}

impl TopK {
    fn new(k: usize, init: f64) -> Self {
        Self { k, init, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Current pruning threshold: the k-th best score (or the caller's
    /// initial bound while the heap is not yet full).
    fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            self.init
        } else {
            self.heap.peek().map_or(self.init, |Reverse(g)| g.score.max(self.init))
        }
    }

    fn offer(&mut self, score: f64, group: Vec<usize>) {
        if self.heap.len() < self.k {
            self.heap.push(Reverse(ScoredGroup { score, group }));
        } else if score > self.threshold() {
            self.heap.push(Reverse(ScoredGroup { score, group }));
            self.heap.pop();
        }
    }

    fn into_sorted(self) -> Vec<(f64, Vec<usize>)> {
        let mut v: Vec<_> = self.heap.into_iter().map(|Reverse(g)| (g.score, g.group)).collect();
        v.sort_by(|a, b| b.0.total_cmp(&a.0));
        v
    }
}

/// Full BBA with options. Returns `None` when fewer than `δp` non-conflicted
/// candidates exist; otherwise at least one and at most `top_k` results.
pub fn solve_with_options(problem: &JraProblem<'_>, opts: &BbaOptions) -> Option<Vec<JraResult>> {
    solve_view(&problem.view(), opts)
}

/// BBA for paper `p` of a [`ScoreContext`] — identical search over the
/// engine's flat expertise rows instead of boxed vectors.
pub fn solve_ctx(
    ctx: &ScoreContext<'_>,
    paper: usize,
    opts: &BbaOptions,
) -> Option<Vec<JraResult>> {
    solve_view(&ctx.jra_view(paper), opts)
}

/// BBA for paper `p` under a candidate [`PruningPolicy`]: the per-paper
/// setup runs over the paper's candidate row instead of all `R`
/// reviewers ([`solve_view_pruned`]). When the context already carries a
/// maintained [`CandidateSet`](crate::engine::CandidateSet) (a service
/// snapshot) its row is reused; otherwise only *this* paper's row is
/// scored — never an all-papers candidate build for a single query.
pub fn solve_ctx_pruned(
    ctx: &ScoreContext<'_>,
    paper: usize,
    opts: &BbaOptions,
    pruning: PruningPolicy,
) -> Option<Vec<JraResult>> {
    let row = || {
        Some(match ctx.cached_auto_candidates() {
            Some(cs) => {
                let (rs, ss) = cs.candidates(paper);
                rs.iter().copied().zip(ss.iter().copied()).collect()
            }
            None => (0..ctx.num_reviewers())
                .filter_map(|r| {
                    let s = ctx.pair_score(r, paper);
                    (s > 0.0).then_some((r as u32, s))
                })
                .collect(),
        })
    };
    solve_view_pruned(&ctx.jra_view(paper), pruning, row, opts)
}

/// BBA over `view` under a candidate [`PruningPolicy`] — the one routing
/// of a pruned search. `row` yields the paper's candidate row: every
/// reviewer with a positive pair score, as `(id, score)` ascending by id,
/// or `None` when no such row exists (the search then scans densely). It
/// is called only under `Auto` and `TopK`.
///
/// Under [`PruningPolicy::Auto`] the pool is the row's ids: every excluded
/// reviewer's gain is identically `+0.0` under any group state, so
/// whenever the pool can field a full group the optimal *score* is
/// preserved bit-for-bit (the returned group may differ from the dense
/// search's only among zero-gain-tied completions — the
/// `bba_candidate_routing` proptest pins the score contract). With
/// `top_k > 1` the certificate covers the best score only: deeper ranks
/// may omit groups padded with zero-gain reviewers the pool excludes.
/// Under [`PruningPolicy::TopK`] the row is first truncated
/// ([`truncate_row`]), which is lossy but bounded by the paper's exclusion
/// bound. Either way, a pool with fewer than `view.delta_p` members
/// outside `view.forbidden` falls back to the dense scan, so the search
/// is total wherever [`solve_view`] is.
pub fn solve_view_pruned(
    view: &JraView<'_>,
    pruning: PruningPolicy,
    row: impl FnOnce() -> Option<Vec<(u32, f64)>>,
    opts: &BbaOptions,
) -> Option<Vec<JraResult>> {
    let pool: Option<Vec<u32>> = match pruning {
        PruningPolicy::Exact => None,
        PruningPolicy::Auto | PruningPolicy::TopK(_) => row().map(|mut row| {
            if let PruningPolicy::TopK(k) = pruning {
                truncate_row(&mut row, k);
            }
            row.into_iter().map(|(r, _)| r).collect()
        }),
    };
    match pool {
        Some(pool)
            if pool.iter().filter(|&&r| !view.forbidden[r as usize]).count() >= view.delta_p =>
        {
            solve_view_pool(view, &pool, opts)
        }
        // Candidate starvation (or Exact): the best group may need
        // zero-score reviewers — only the dense scan sees them.
        _ => solve_view(view, opts),
    }
}

/// The branch-and-bound search over any [`JraView`] (legacy boxed vectors or
/// the engine's flat matrix — both expose identical `f64` rows, so results
/// are bit-identical).
pub fn solve_view(view: &JraView<'_>, opts: &BbaOptions) -> Option<Vec<JraResult>> {
    search(view, None, opts)
}

/// [`solve_view`] restricted to an explicit reviewer pool (ascending ids):
/// the topic-sorted lists are built over `pool ∩ ¬forbidden` only, so setup
/// scans `O(|pool|·T)` cells instead of `O(R·T)`. Exactness is
/// relative to the pool — see [`solve_view_pruned`] for when a candidate
/// pool preserves the dense optimum.
pub fn solve_view_pool(
    view: &JraView<'_>,
    pool: &[u32],
    opts: &BbaOptions,
) -> Option<Vec<JraResult>> {
    search(view, Some(pool), opts)
}

/// Algorithm 1's `T` topic-sorted reviewer lists over the eligible pool
/// (paper Figure 5(b)), each ordered `(expertise desc, id asc)` as
/// [`f64::total_cmp`] orders them. A list has two parts:
///
/// * the eligible reviewers with positive expertise on the topic, sorted;
/// * an implicit tail of the remaining eligible reviewers in id order —
///   `+0.0` rows before `-0.0` rows, since `total_cmp` ranks `-0.0` below
///   `+0.0`. A tail is materialised the first time a cursor reaches it.
///
/// Building the lists is one `O(|eligible|·T)` scan plus sorting the
/// positive entries; no full list of zeros is ever sorted.
struct TopicLists {
    eligible: Vec<u32>,
    positive: Vec<Vec<(f64, u32)>>,
    tails: Vec<Option<Vec<u32>>>,
}

impl TopicLists {
    fn new(view: &JraView<'_>, eligible: Vec<u32>) -> Self {
        let t_dim = view.paper.len();
        let mut positive: Vec<Vec<(f64, u32)>> = vec![Vec::new(); t_dim];
        for &r in &eligible {
            for (list, &v) in positive.iter_mut().zip(view.row(r as usize)) {
                if v > 0.0 {
                    list.push((v, r));
                }
            }
        }
        for list in &mut positive {
            list.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        Self { eligible, positive, tails: vec![None; t_dim] }
    }

    /// Move `pos` on topic `t`'s list past blocked reviewers (the lazy form
    /// of Algorithm 1 lines 17-18), materialising the tail if it gets there.
    fn skip_blocked(&mut self, view: &JraView<'_>, t: usize, pos: &mut usize, blocked: &[u32]) {
        let positive = &self.positive[t];
        while *pos < positive.len() && blocked[positive[*pos].1 as usize] > 0 {
            *pos += 1;
        }
        if *pos < positive.len() || *pos >= self.eligible.len() {
            return;
        }
        let eligible = &self.eligible;
        let tail = self.tails[t].get_or_insert_with(|| {
            let zeros = |negative: bool| {
                eligible.iter().copied().filter(move |&r| {
                    let v = view.row(r as usize)[t];
                    v == 0.0 && v.is_sign_negative() == negative
                })
            };
            zeros(false).chain(zeros(true)).collect()
        });
        let m = positive.len();
        while *pos < self.eligible.len() && blocked[tail[*pos - m] as usize] > 0 {
            *pos += 1;
        }
    }

    /// The `(expertise, reviewer)` at `pos` on topic `t`'s list — expertise
    /// reads `0.0` in the tail — or `None` past the end. A tail position
    /// must have been reached through [`TopicLists::skip_blocked`].
    fn at(&self, t: usize, pos: usize) -> Option<(f64, u32)> {
        let positive = &self.positive[t];
        if pos < positive.len() {
            Some(positive[pos])
        } else if pos < self.eligible.len() {
            let tail = self.tails[t].as_ref().expect("tail materialised by skip_blocked");
            Some((0.0, tail[pos - positive.len()]))
        } else {
            None
        }
    }
}

fn search(view: &JraView<'_>, pool: Option<&[u32]>, opts: &BbaOptions) -> Option<Vec<JraResult>> {
    let r_total = view.num_reviewers();
    let t_dim = view.paper.len();
    let k = view.delta_p;
    let eligible: Vec<u32> = match pool {
        Some(ids) => ids.iter().copied().filter(|&r| !view.forbidden[r as usize]).collect(),
        None => (0..r_total as u32).filter(|&r| !view.forbidden[r as usize]).collect(),
    };
    if eligible.len() < k {
        return None;
    }
    assert!(opts.top_k >= 1);

    let mut lists = TopicLists::new(view, eligible);
    let active = view.active_topics();

    // Per-stage state. The gain states stack one `PaperGain` per deepened
    // stage — each level owns only its `gmax` on the active topics. Within
    // a stage `gmax` is fixed, so each topic head's gain is cached against
    // the cursor position it was computed at.
    let mut cursors: Vec<Vec<usize>> = vec![vec![0usize; t_dim]; k];
    let mut head_gains: Vec<Vec<(usize, f64)>> = vec![vec![(usize::MAX, 0.0); t_dim]; k];
    let mut visited: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut blocked: Vec<u32> = vec![0; r_total];
    let mut rg_stack: Vec<PaperGain> = Vec::with_capacity(k + 1);
    rg_stack.push(PaperGain::new(view));
    let mut path: Vec<usize> = Vec::with_capacity(k);

    let mut results = TopK::new(opts.top_k, opts.initial_bound);
    let mut nodes = 0u64;
    let mut s = 0usize; // running stage, 0-based

    loop {
        for (t, pos) in cursors[s].iter_mut().enumerate() {
            lists.skip_blocked(view, t, pos, &blocked);
        }
        let rg = &rg_stack[s];

        // Upper bound from the cursor head values (line 7, Eq. 3). Only
        // the active topics can contribute.
        let mut ub_raw = 0.0;
        for (&g, &t) in rg.expertise().iter().zip(active) {
            let t = t as usize;
            let head_val = lists.at(t, cursors[s][t]).map_or(0.0, |(v, _)| v);
            ub_raw += view.scoring.topic_contribution(g.max(head_val), view.paper[t]);
        }
        let ub = ub_raw * view.inv_total;

        // Candidate = the first of all `T` cursor heads with the maximum
        // marginal gain (line 6).
        let mut best_r: Option<usize> = None;
        let mut best_gain = f64::NEG_INFINITY;
        for (t, cached) in head_gains[s].iter_mut().enumerate() {
            let head = cursors[s][t];
            let Some((_, r)) = lists.at(t, head) else { continue };
            if cached.0 != head {
                *cached = (head, rg.gain(view, r as usize));
            }
            if cached.1 > best_gain {
                best_gain = cached.1;
                best_r = Some(r as usize);
            }
        }

        let prune = opts.use_bound && ub <= results.threshold();
        let Some(r) = best_r.filter(|_| !prune) else {
            // Backtrack (lines 8-11): reset visited marks at this stage.
            for r in visited[s].drain(..) {
                blocked[r as usize] -= 1;
            }
            if s == 0 {
                break;
            }
            s -= 1;
            rg_stack.truncate(s + 1);
            path.truncate(s);
            continue;
        };

        // Branch (line 12).
        nodes += 1;
        blocked[r] += 1;
        visited[s].push(r as u32);
        path.truncate(s);
        path.push(r);

        if s + 1 == k {
            // Complete assignment (lines 13-15): record, stay at this stage.
            let score = rg_stack[s].score(view) + best_gain;
            let mut group = path.clone();
            group.sort_unstable();
            results.offer(score, group);
        } else {
            // Deepen (lines 16-20): clone cursors into the next stage.
            let (head, tail) = cursors.split_at_mut(s + 1);
            tail[0].copy_from_slice(&head[s]);
            head_gains[s + 1].fill((usize::MAX, 0.0));
            let mut next = rg_stack[s].clone();
            next.add(view, r);
            rg_stack.push(next);
            s += 1;
        }
    }

    // With the default `initial_bound = -inf` at least one group is always
    // recorded; a caller-supplied seed bound may prune everything, in which
    // case the caller's seed group *is* the optimum and the vec is empty.
    let out: Vec<JraResult> = results
        .into_sorted()
        .into_iter()
        .map(|(score, group)| JraResult { group, score, nodes })
        .collect();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jra::bfs;
    use crate::jra::testutil::random_vectors;
    use crate::score::Scoring;
    use crate::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    #[test]
    fn paper_running_example() {
        let p = tv(&[0.35, 0.45, 0.2]);
        let rs = vec![tv(&[0.15, 0.75, 0.1]), tv(&[0.75, 0.15, 0.1]), tv(&[0.1, 0.35, 0.55])];
        let problem = JraProblem::new(&p, &rs, 2);
        let res = solve(&problem).unwrap();
        assert_eq!(res.group, vec![0, 1]);
        assert!((res.score - 0.9).abs() < 1e-9);
    }

    #[test]
    fn matches_bfs_on_random_instances() {
        for seed in 0..30 {
            let vecs = random_vectors(13, 5, seed);
            let (paper, reviewers) = vecs.split_first().unwrap();
            for delta_p in 1..=4 {
                let problem = JraProblem::new(paper, reviewers, delta_p);
                let bba = solve(&problem).unwrap();
                let bf = bfs::solve(&problem).unwrap();
                assert!(
                    (bba.score - bf.score).abs() < 1e-9,
                    "seed={seed} delta_p={delta_p}: bba={} bfs={}",
                    bba.score,
                    bf.score
                );
            }
        }
    }

    #[test]
    fn matches_bfs_under_all_scorings() {
        for seed in [3u64, 17, 99] {
            let vecs = random_vectors(10, 4, seed);
            let (paper, reviewers) = vecs.split_first().unwrap();
            for scoring in Scoring::ALL {
                let problem = JraProblem::new(paper, reviewers, 3).with_scoring(scoring);
                let bba = solve(&problem).unwrap();
                let bf = bfs::solve(&problem).unwrap();
                assert!(
                    (bba.score - bf.score).abs() < 1e-9,
                    "{scoring:?}: bba={} bfs={}",
                    bba.score,
                    bf.score
                );
            }
        }
    }

    #[test]
    fn respects_forbidden_mask() {
        let vecs = random_vectors(9, 4, 7);
        let (paper, reviewers) = vecs.split_first().unwrap();
        let mut forbidden = vec![false; reviewers.len()];
        forbidden[0] = true;
        forbidden[3] = true;
        let problem = JraProblem::new(paper, reviewers, 2).with_forbidden(forbidden.clone());
        let res = solve(&problem).unwrap();
        for r in &res.group {
            assert!(!forbidden[*r]);
        }
        let bf = bfs::solve(&problem).unwrap();
        assert!((res.score - bf.score).abs() < 1e-9);
    }

    #[test]
    fn bounding_prunes_nodes() {
        let vecs = random_vectors(40, 6, 11);
        let (paper, reviewers) = vecs.split_first().unwrap();
        let problem = JraProblem::new(paper, reviewers, 3);
        let with = solve_with_options(&problem, &BbaOptions::default()).unwrap();
        let without = solve_with_options(
            &problem,
            &BbaOptions { top_k: 1, use_bound: false, ..Default::default() },
        )
        .unwrap();
        assert!((with[0].score - without[0].score).abs() < 1e-9);
        assert!(
            with[0].nodes < without[0].nodes,
            "bounding should prune: {} vs {}",
            with[0].nodes,
            without[0].nodes
        );
    }

    #[test]
    fn top_k_matches_exhaustive_ranking() {
        let vecs = random_vectors(9, 4, 23);
        let (paper, reviewers) = vecs.split_first().unwrap();
        let problem = JraProblem::new(paper, reviewers, 2);
        let k = 5;
        let top = solve_top_k(&problem, k).unwrap();
        assert_eq!(top.len(), k);
        // Exhaustive ranking of all C(8,2)=28 pairs.
        let mut all: Vec<(f64, Vec<usize>)> = vec![];
        for i in 0..reviewers.len() {
            for j in i + 1..reviewers.len() {
                let s = problem.scoring.group_score([&reviewers[i], &reviewers[j]], paper);
                all.push((s, vec![i, j]));
            }
        }
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (got, want) in top.iter().zip(&all) {
            assert!(
                (got.score - want.0).abs() < 1e-9,
                "top-k scores diverge: {} vs {}",
                got.score,
                want.0
            );
        }
        // Scores must be non-increasing.
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }

    #[test]
    fn top_k_larger_than_group_count() {
        let vecs = random_vectors(5, 3, 31);
        let (paper, reviewers) = vecs.split_first().unwrap();
        let problem = JraProblem::new(paper, reviewers, 2);
        let top = solve_top_k(&problem, 100).unwrap();
        assert_eq!(top.len(), 6); // C(4,2)
    }

    #[test]
    fn too_few_candidates_is_none() {
        let p = tv(&[1.0]);
        let rs = vec![tv(&[1.0])];
        let problem = JraProblem::new(&p, &rs, 1).with_forbidden(vec![true]);
        assert!(solve(&problem).is_none());
    }

    #[test]
    fn delta_p_one_picks_best_single() {
        let vecs = random_vectors(20, 5, 13);
        let (paper, reviewers) = vecs.split_first().unwrap();
        let problem = JraProblem::new(paper, reviewers, 1);
        let res = solve(&problem).unwrap();
        let best = (0..reviewers.len())
            .map(|r| problem.scoring.pair_score(&reviewers[r], paper))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((res.score - best).abs() < 1e-12);
    }
}
