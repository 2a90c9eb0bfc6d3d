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
//! Let `R` be the reviewer count, `T` the topic count and `s` the paper's
//! support — its non-zero topics under weighted, paper and dot coverage
//! (all `T` under reviewer coverage; see [`JraView::active_topics`]). A
//! topic outside the support adds an exact zero to every gain and to the
//! Eq. 3 bound, so both are summed over the support only:
//!
//! * **setup** — `O(R)` marks. The sorted part of each topic's list is
//!   borrowed from the context's maintained topic index
//!   ([`ScoreContext::topic_index`]), and forbidden or out-of-pool
//!   reviewers become pre-set `blocked` marks that the cursors skip. A
//!   topic's zero-expertise tail is materialised per query only if a
//!   cursor reaches it. Skipping outsiders costs up to the index's size,
//!   so a pool whose rows have fewer topics than the index has entries
//!   (`|pool|·T` below it, e.g. a small `TopK` pool) lists its own
//!   members instead: an `O(|pool|·T)` scan and a sort of their positive
//!   entries. A view over boxed rows (a [`JraProblem`]) has no context,
//!   so it derives the index per call: one `O(R·T)` scan (`O(|pool|·T)`
//!   under a pool) and a sort of the positive entries.
//! * **per node** — two passes over contiguous `T`-arrays: one moves the
//!   cursors whose head was the reviewer just branched on, one picks the
//!   first head with the largest cached gain. Each moved head costs `O(s)`
//!   to re-score, and the bound costs `O(s)`. Entering a stage copies the
//!   parent's heads and scores all `T` of them once, unless the bound
//!   prunes the stage first.
//!
//! The branching order — and with it every answer, tie-break and node
//! count — is the dense search's: `crates/core/tests/bba_oracle.rs` keeps
//! that search as the oracle. At the served shape (`T = 300`, papers of 4
//! topics, δp=2) a query at R=1000 takes ~0.35 ms on a 2-core host, and
//! ~2.4 ms at R=10000 once the context's index is built
//! (`BENCH_jra.json`).

use super::{JraProblem, JraResult};
use crate::engine::{truncate_row, JraView, PaperGain, PruningPolicy, ScoreContext};
use std::borrow::Cow;
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
    /// The heap grows with the groups actually found: `k` comes from the
    /// caller (a request's `top_k`) and may be far above the group count.
    fn new(k: usize, init: f64) -> Self {
        Self { k, init, heap: BinaryHeap::new() }
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

/// BBA for paper `p` under a candidate [`PruningPolicy`]: the search runs
/// over the paper's candidate row instead of all `R` reviewers
/// ([`solve_view_pruned`]). When the context already carries a
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
/// every reviewer outside `pool ∩ ¬forbidden` starts blocked, a small
/// pool lists only its own members, and the zero-expertise list tails
/// range over the pool's ids only. Exactness is
/// relative to the pool — see [`solve_view_pruned`] for when a candidate
/// pool preserves the dense optimum.
pub fn solve_view_pool(
    view: &JraView<'_>,
    pool: &[u32],
    opts: &BbaOptions,
) -> Option<Vec<JraResult>> {
    search(view, Some(pool), opts)
}

/// Head reviewer of an exhausted list.
const NONE: u32 = u32::MAX;

/// Algorithm 1's `T` topic-sorted reviewer lists (paper Figure 5(b)), each
/// ordered `(expertise desc, id asc)` as [`f64::total_cmp`] orders them. A
/// list has two parts:
///
/// * the topic's entry in the view's topic index — every reviewer with
///   positive expertise, already in that order and borrowed from the
///   context ([`JraView::topic_index`]), or, for a small pool, only the
///   pool's members ([`JraView::pool_topic_index`]);
/// * a tail of the searched reviewers (all of them, or the pool's) with
///   zero expertise in id order — `+0.0` rows before `-0.0` rows, since
///   `total_cmp` ranks `-0.0` below `+0.0` — materialised by one pass over
///   those ids the first time a cursor reaches it.
///
/// Reviewers outside the search (forbidden, or outside the pool) that a
/// list holds are skipped through pre-set `blocked` marks, just as visited
/// reviewers are, so every cursor head is the dense search's.
struct Lists<'a, 'v> {
    view: &'v JraView<'a>,
    pool: Option<&'v [u32]>,
    index: Cow<'a, [Vec<u32>]>,
    tails: Vec<Option<Vec<u32>>>,
}

impl<'a, 'v> Lists<'a, 'v> {
    fn new(view: &'v JraView<'a>, pool: Option<&'v [u32]>) -> Self {
        let index = match pool {
            Some(ids) => view.pool_topic_index(ids),
            None => view.topic_index(),
        };
        Self { view, pool, index, tails: vec![None; view.paper.len()] }
    }

    /// The first unblocked entry at or after `pos` on topic `t`'s list (the
    /// lazy form of Algorithm 1 lines 17-18): `(pos, reviewer, expertise)`,
    /// with expertise `0.0` in the tail and reviewer [`NONE`] past the end.
    fn seek(&mut self, t: usize, mut pos: usize, blocked: &[u32]) -> (usize, u32, f64) {
        let (view, pool) = (self.view, self.pool);
        let positive = &self.index[t];
        while let Some(&r) = positive.get(pos) {
            if blocked[r as usize] == 0 {
                return (pos, r, view.row(r as usize)[t]);
            }
            pos += 1;
        }
        let tail = self.tails[t].get_or_insert_with(|| {
            // One pass over the searched ids. Forbidden ids stay in: their
            // pre-set marks skip them.
            let (mut zeros, mut negative) = (Vec::new(), Vec::new());
            let mut classify = |r: u32| {
                let v = view.row(r as usize)[t];
                if v == 0.0 {
                    if v.is_sign_negative() { &mut negative } else { &mut zeros }.push(r);
                }
            };
            match pool {
                Some(ids) => ids.iter().for_each(|&r| classify(r)),
                None => (0..view.num_reviewers() as u32).for_each(classify),
            }
            zeros.append(&mut negative);
            zeros
        });
        let m = positive.len();
        while let Some(&r) = tail.get(pos - m) {
            if blocked[r as usize] == 0 {
                return (pos, r, 0.0);
            }
            pos += 1;
        }
        (pos, NONE, 0.0)
    }
}

/// One stage's cursors as flat per-topic arrays: list position, head
/// reviewer, head expertise, and the head's marginal gain against the
/// stage's group.
#[derive(Clone)]
struct Heads {
    pos: Vec<usize>,
    reviewer: Vec<u32>,
    value: Vec<f64>,
    gain: Vec<f64>,
    /// Topics whose head moved since their gain was last computed.
    moved: Vec<u32>,
    /// Every gain is stale: the stage was just entered.
    fresh: bool,
}

impl Heads {
    /// Point topic `t`'s cursor at the first unblocked entry from `pos` on.
    fn seek(&mut self, lists: &mut Lists<'_, '_>, t: usize, pos: usize, blocked: &[u32]) {
        (self.pos[t], self.reviewer[t], self.value[t]) = lists.seek(t, pos, blocked);
    }

    /// Enter this stage from `parent`'s cursors (Algorithm 1 lines 16-20).
    fn enter_from(&mut self, parent: &Heads) {
        self.pos.copy_from_slice(&parent.pos);
        self.reviewer.copy_from_slice(&parent.reviewer);
        self.value.copy_from_slice(&parent.value);
        self.moved.clear();
        self.fresh = true;
    }
}

fn search(view: &JraView<'_>, pool: Option<&[u32]>, opts: &BbaOptions) -> Option<Vec<JraResult>> {
    let r_total = view.num_reviewers();
    let t_dim = view.paper.len();
    let k = view.delta_p;
    // Pre-set marks: a reviewer outside the search is blocked for good.
    let mut blocked: Vec<u32> = match pool {
        Some(ids) => {
            let mut blocked = vec![1; r_total];
            for &r in ids {
                blocked[r as usize] = u32::from(view.forbidden[r as usize]);
            }
            blocked
        }
        None => view.forbidden.iter().map(|&f| u32::from(f)).collect(),
    };
    if blocked.iter().filter(|&&b| b == 0).count() < k {
        return None;
    }
    assert!(opts.top_k >= 1);

    let mut lists = Lists::new(view, pool);
    let active = view.active_topics();

    // Per-stage state. The gain states stack one `PaperGain` per deepened
    // stage — each level owns only its `gmax` on the active topics. Within
    // a stage `gmax` is fixed, so a head's gain stays valid until its
    // cursor moves.
    let empty = Heads {
        pos: vec![0; t_dim],
        reviewer: vec![NONE; t_dim],
        value: vec![0.0; t_dim],
        gain: vec![f64::NEG_INFINITY; t_dim],
        moved: Vec::new(),
        fresh: true,
    };
    let mut stages: Vec<Heads> = vec![empty; k];
    for t in 0..t_dim {
        stages[0].seek(&mut lists, t, 0, &blocked);
    }
    let mut visited: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut rg_stack: Vec<PaperGain> = Vec::with_capacity(k + 1);
    rg_stack.push(PaperGain::new(view));
    let mut path: Vec<usize> = Vec::with_capacity(k);

    let mut results = TopK::new(opts.top_k, opts.initial_bound);
    let mut nodes = 0u64;
    let mut s = 0usize; // running stage, 0-based

    loop {
        let rg = &rg_stack[s];
        let heads = &mut stages[s];

        // Upper bound from the cursor head values (line 7, Eq. 3). Only
        // the active topics can contribute.
        let prune = opts.use_bound && {
            let mut ub_raw = 0.0;
            for (&g, &t) in rg.expertise().iter().zip(active) {
                let t = t as usize;
                ub_raw += view.scoring.topic_contribution(g.max(heads.value[t]), view.paper[t]);
            }
            ub_raw * view.inv_total <= results.threshold()
        };

        // Candidate = the first of all `T` cursor heads with the maximum
        // marginal gain (line 6). Heads are scored only when the stage is
        // not pruned: on entry all of them, afterwards the moved ones.
        let best = if prune {
            None
        } else {
            let score =
                |r: u32| if r == NONE { f64::NEG_INFINITY } else { rg.gain(view, r as usize) };
            if heads.fresh {
                for (g, &r) in heads.gain.iter_mut().zip(&heads.reviewer) {
                    *g = score(r);
                }
                heads.fresh = false;
            } else {
                for t in heads.moved.drain(..) {
                    heads.gain[t as usize] = score(heads.reviewer[t as usize]);
                }
            }
            let mut best = None;
            let mut best_gain = f64::NEG_INFINITY;
            for (t, &g) in heads.gain.iter().enumerate() {
                if g > best_gain {
                    best_gain = g;
                    best = Some(t);
                }
            }
            best.map(|t| (heads.reviewer[t] as usize, best_gain))
        };
        let Some((r, best_gain)) = best else {
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

        // Branch (line 12), and move this stage's cursors off `r` now: the
        // blocked marks they skip are the ones a return to this stage sees.
        nodes += 1;
        blocked[r] += 1;
        visited[s].push(r as u32);
        path.truncate(s);
        path.push(r);
        for t in 0..t_dim {
            if heads.reviewer[t] == r as u32 {
                heads.seek(&mut lists, t, heads.pos[t], &blocked);
                heads.moved.push(t as u32);
            }
        }

        if s + 1 == k {
            // Complete assignment (lines 13-15): record, stay at this stage.
            let score = rg_stack[s].score(view) + best_gain;
            let mut group = path.clone();
            group.sort_unstable();
            results.offer(score, group);
        } else {
            // Deepen (lines 16-20): the next stage starts from these cursors.
            let (head, tail) = stages.split_at_mut(s + 1);
            tail[0].enter_from(&head[s]);
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
        for k in [100, usize::MAX] {
            let top = solve_top_k(&problem, k).unwrap();
            assert_eq!(top.len(), 6); // C(4,2)
        }
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
