//! [`CandidateSet`]: per-paper top-k reviewer candidate lists with
//! CELF-safe bounds on everything excluded.
//!
//! Every dense kernel in this crate — the `P × R` pair matrix, the per-stage
//! SDGA cost matrix, greedy's initial heap fill — scans all `R` reviewers
//! for every paper. On topic-model-shaped instances most of those pairs
//! score **exactly zero**: a reviewer with no expertise on any of a paper's
//! non-zero topics contributes nothing under any sparse-safe scoring, and by
//! submodularity (`gain(g, r, p) ≤ gain(∅, r, p) = c(r, p)`, Lemma 4) it
//! never will, no matter how the group grows. A candidate set materialises
//! that observation once per context: for each paper, the reviewers with
//! positive pair score (optionally truncated to the top `k` by score), plus
//! a per-paper **bound** — the largest pair score among excluded reviewers,
//! which upper-bounds every excluded marginal gain forever.
//!
//! # Building a row along the topic index
//!
//! Under a [sparse-safe](crate::score::Scoring::sparse_safe) scoring one
//! kernel builds every row, for [`CandidateSet::build`] and for the
//! single-row callers ([`CandidateSet::append_paper`],
//! [`CandidateSet::adhoc_row`]). It walks the paper's non-zero topics in
//! ascending order over the context's topic → reviewers index
//! ([`ScoreContext::topic_index`]) and adds each entry's
//! `topic_contribution` into an `R`-sized accumulator. It then emits the
//! touched reviewers in ascending id order, each with `acc / total`,
//! keeping only positive scores. A reviewer's terms arrive in the same
//! ascending topic order in which [`ScoreContext::pair_score`] sums them.
//! The only terms the walk never sees are those of topics where the
//! reviewer's expertise is `±0.0`; each of those adds a `±0.0` to a sum
//! that is `+0.0` or positive, an exact no-op, so every score is
//! bit-identical to `pair_score`. A full build reads each index entry's
//! expertise from the reviewer matrix once and reuses it for every paper
//! on that topic; so it costs one pass over the index entries each paper
//! touches, instead of one `pair_score` (one row read per paper topic) per
//! candidate. Under the `rayon` feature papers go in fixed chunks, each
//! with its own accumulator, so the output stays positional. Reviewer
//! coverage scores zero-overlap pairs positively and keeps a dense scan of
//! all `R` reviewers per paper.
//!
//! # Certification rule
//!
//! A candidate set is **certified** when every paper's bound is exactly
//! `0.0`, i.e. nothing with positive score was cut. Certified pruning is
//! *exact-preserving* for gain-ranking consumers: an excluded reviewer's
//! gain is identically `+0.0` under every group state, so a solver that
//! falls back to the full pool the moment zero-gain pairs become relevant
//! (see the spill step in [`crate::cra::greedy`]) makes bit-identical
//! decisions to the dense path. [`PruningPolicy::Auto`] builds exactly this
//! set (no truncation), which is why `Auto` is proptested bit-identical to
//! `Exact` on every solver.
//!
//! [`PruningPolicy::TopK`] additionally truncates to the `k` best-scoring
//! candidates per paper. When a paper had more than `k` positive-score
//! reviewers its bound is positive and pruning becomes **lossy but
//! bounded**: a stage-WGRAP solved over candidate edges only loses at most
//! `Σ_p bound(p)` objective versus the dense stage
//! ([`CandidateSet::stage_loss_bound`]). Solvers whose tie-breaking cannot
//! be certified statically (the LAP-based SDGA stages, BRGG's per-paper
//! branch-and-bound, local search's proposal sampling) treat `Auto` as
//! `Exact` and only prune under an explicit `TopK`.
//!
//! # Storage: one `Arc` slab per paper row
//!
//! Each paper's candidate list lives in its own `Arc`-shared slab rather
//! than one global CSR arena. Cloning a set (the epoch copy-on-write path)
//! bumps `P` refcounts instead of copying `O(nnz)` entries, and
//! [`CandidateSet::patch_reviewer`] rewrites only the rows the patched
//! reviewer actually appears in or enters — every other row stays shared
//! with the previous epoch. Row granularity (not multi-row pages) matters
//! here: one reviewer touches a uniform scatter of papers, so pages
//! spanning many rows would nearly all be copied on every patch.

use super::context::ScoreContext;
use super::par;
use crate::score::Scoring;
use crate::topic::TopicVector;
use std::sync::Arc;

/// How aggressively a solver may prune its reviewer scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningPolicy {
    /// No pruning: scan all `R` reviewers everywhere (the reference path).
    #[default]
    Exact,
    /// Keep the `k` highest-scoring candidates per paper. Lossy when a paper
    /// has more than `k` positive-score reviewers; the per-paper loss is
    /// bounded by [`CandidateSet::bound`].
    TopK(usize),
    /// Keep every positive-score candidate (no truncation): always
    /// certified, so gain-ranking solvers prune bit-identically to
    /// [`PruningPolicy::Exact`]; solvers that cannot certify fall back to
    /// the dense path.
    Auto,
}

impl PruningPolicy {
    /// The candidate set this policy prescribes over `ctx`: `None` for
    /// [`Exact`](PruningPolicy::Exact), the context's shared untruncated set
    /// for [`Auto`](PruningPolicy::Auto), a fresh truncated build for
    /// [`TopK`](PruningPolicy::TopK).
    pub fn resolve<'c>(
        self,
        ctx: &'c ScoreContext<'_>,
    ) -> Option<std::borrow::Cow<'c, CandidateSet>> {
        match self {
            PruningPolicy::Exact => None,
            PruningPolicy::Auto => Some(std::borrow::Cow::Borrowed(ctx.auto_candidates())),
            PruningPolicy::TopK(k) => {
                Some(std::borrow::Cow::Owned(CandidateSet::build(ctx, Some(k))))
            }
        }
    }

    /// [`resolve`](PruningPolicy::resolve) for consumers whose pruning is
    /// lossy-only — SDGA stage LAPs, BRGG's BBA pool, local-search
    /// sampling, where tie-breaking is order-dependent so `Auto` certifies
    /// only the dense path: `TopK` builds a truncated set, `Exact` and
    /// `Auto` return `None`.
    pub fn resolve_lossy(self, ctx: &ScoreContext<'_>) -> Option<CandidateSet> {
        match self {
            PruningPolicy::Exact | PruningPolicy::Auto => None,
            PruningPolicy::TopK(k) => Some(CandidateSet::build(ctx, Some(k))),
        }
    }
}

impl std::fmt::Display for PruningPolicy {
    /// The canonical spelling [`FromStr`](std::str::FromStr) round-trips:
    /// `exact`, `auto`, `topk:K`. Request keys and wire responses use this.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruningPolicy::Exact => f.write_str("exact"),
            PruningPolicy::Auto => f.write_str("auto"),
            PruningPolicy::TopK(k) => write!(f, "topk:{k}"),
        }
    }
}

impl std::str::FromStr for PruningPolicy {
    type Err = String;

    /// Parse `exact`, `auto`, or `topk:K` / `top-k:K`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let l = s.to_ascii_lowercase();
        match l.as_str() {
            "exact" => return Ok(PruningPolicy::Exact),
            "auto" => return Ok(PruningPolicy::Auto),
            _ => {}
        }
        if let Some(k) = l.strip_prefix("topk:").or_else(|| l.strip_prefix("top-k:")) {
            return k
                .parse::<usize>()
                .ok()
                .filter(|&k| k > 0)
                .map(PruningPolicy::TopK)
                .ok_or_else(|| format!("bad top-k count in '{s}'"));
        }
        Err(format!("unknown pruning policy '{s}' (expected exact | auto | topk:K)"))
    }
}

/// Summary of per-paper candidate support, for picking `k` without trial
/// and error (`wgrap check` prints this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Fewest positive-score reviewers over any paper.
    pub min: usize,
    /// 25th percentile.
    pub p25: usize,
    /// Median.
    pub median: usize,
    /// 75th percentile.
    pub p75: usize,
    /// Most positive-score reviewers over any paper.
    pub max: usize,
}

/// One paper's candidate slab: reviewer ids ascending, scores aligned.
/// Shared across epoch clones behind an `Arc`; copied on write by
/// [`CandidateSet::patch_reviewer`] only when this row changes.
#[derive(Debug, Clone, Default)]
struct CandRow {
    reviewer: Vec<u32>,
    score: Vec<f64>,
}

/// Per-paper reviewer candidate lists (one `Arc` slab per paper — see the
/// module docs' storage section), with pair scores and exclusion bounds.
/// Built once from a [`ScoreContext`]; see the module docs for the
/// certification rule.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    num_reviewers: usize,
    /// Per paper: the candidate slab, `Arc`-shared across epochs.
    rows: Vec<Arc<CandRow>>,
    /// Per paper: the largest pair score among excluded reviewers
    /// (`0.0` when nothing with positive score was excluded).
    bound: Vec<f64>,
    /// Per paper: number of reviewers with positive pair score, *before*
    /// any top-k truncation.
    support: Vec<u32>,
}

impl CandidateSet {
    /// Build candidate lists for every paper of `ctx`.
    ///
    /// `k = None` keeps every positive-score reviewer (the
    /// [`PruningPolicy::Auto`] set, always certified); `k = Some(n)` keeps
    /// the `n` best by `(score desc, reviewer asc)` and records the best
    /// excluded score as the paper's bound.
    ///
    /// Sparse-safe scorings build each row along the context's topic index
    /// (see the module docs), reading each index entry's expertise once for
    /// the whole build; reviewer coverage scans all reviewers per paper.
    /// The scratch (one `R`-sized accumulator per chunk of papers, the
    /// gathered expertise) is freed on return. Rows build in parallel under
    /// the `rayon` feature, bit-identically to the serial build.
    pub fn build(ctx: &ScoreContext<'_>, k: Option<usize>) -> Self {
        let (num_p, num_r) = (ctx.num_papers(), ctx.num_reviewers());
        let rows: Vec<PaperRow> = if ctx.sparse() {
            let index = ctx.topic_index();
            let values: Vec<Vec<f64>> =
                (0..index.len()).map(|t| gather_expertise(ctx, index, t)).collect();
            let chunk = num_p.div_ceil(BUILD_CHUNKS).max(1);
            let chunks = par::map_indexed(num_p.div_ceil(chunk), |c| {
                let mut kernel = RowKernel::new(num_r);
                (c * chunk..num_p.min((c + 1) * chunk))
                    .map(|p| {
                        let (topics, weights) = ctx.paper_sparse(p);
                        let lists = topics.iter().zip(weights).map(|(&t, &w)| {
                            let t = t as usize;
                            (w, index[t].as_slice(), values[t].as_slice())
                        });
                        finish_row(kernel.row(ctx.scoring(), ctx.paper_total(p), lists), k)
                    })
                    .collect::<Vec<_>>()
            });
            chunks.into_iter().flatten().collect()
        } else {
            par::map_indexed(num_p, |p| finish_row(dense_row(ctx, p), k))
        };

        let mut out = Vec::with_capacity(num_p);
        let mut bound = Vec::with_capacity(num_p);
        let mut support = Vec::with_capacity(num_p);
        for (cands, b, s) in rows {
            let (reviewer, score) = cands.into_iter().unzip();
            out.push(Arc::new(CandRow { reviewer, score }));
            bound.push(b);
            support.push(s);
        }
        Self { num_reviewers: num_r, rows: out, bound, support }
    }

    /// The untruncated row a paper with topic vector `paper` would get if
    /// it were stored in `ctx`: every reviewer with positive pair score, as
    /// `(id, score)` ascending by id, bit-identical to that stored paper's
    /// [`build`](CandidateSet::build) row. Built by the same kernel, which
    /// reads only the index entries of `paper`'s non-zero topics. `None`
    /// when the scoring is not sparse-safe: zero-overlap reviewers can then
    /// score positively, so no index-driven row exists.
    pub fn adhoc_row(ctx: &ScoreContext<'_>, paper: &TopicVector) -> Option<Vec<(u32, f64)>> {
        if !ctx.sparse() {
            return None;
        }
        let (topics, weights): (Vec<u32>, Vec<f64>) = paper
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0.0)
            .map(|(t, &w)| (t as u32, w))
            .unzip();
        Some(sparse_row(ctx, &topics, &weights, paper.total()))
    }

    /// Number of papers.
    pub fn num_papers(&self) -> usize {
        self.bound.len()
    }

    /// Number of reviewers in the underlying context.
    pub fn num_reviewers(&self) -> usize {
        self.num_reviewers
    }

    /// Paper `p`'s candidates as `(reviewer ids ascending, pair scores)`.
    #[inline]
    pub fn candidates(&self, p: usize) -> (&[u32], &[f64]) {
        let row = &self.rows[p];
        (&row.reviewer, &row.score)
    }

    /// Number of candidates kept for paper `p`.
    #[inline]
    pub fn len(&self, p: usize) -> usize {
        self.rows[p].reviewer.len()
    }

    /// Are there no candidates at all (e.g. a zero-topic instance)?
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|row| row.reviewer.is_empty())
    }

    /// Upper bound on any excluded reviewer's pair score — and therefore,
    /// by submodularity, on any excluded marginal gain under every group
    /// state — for paper `p`.
    #[inline]
    pub fn bound(&self, p: usize) -> f64 {
        self.bound[p]
    }

    /// Number of positive-score reviewers paper `p` had before truncation.
    #[inline]
    pub fn support(&self, p: usize) -> usize {
        self.support[p] as usize
    }

    /// Is pruning through this set exact-preserving for gain-ranking
    /// consumers (every exclusion bound exactly zero)?
    pub fn certified(&self) -> bool {
        self.bound.iter().all(|&b| b == 0.0)
    }

    /// Is reviewer `r` a kept candidate for paper `p`?
    #[inline]
    pub fn contains(&self, p: usize, r: usize) -> bool {
        let (rs, _) = self.candidates(p);
        rs.binary_search(&(r as u32)).is_ok()
    }

    /// `c(r, p)` if `r` is a kept candidate of `p`, else `0.0` (exact for
    /// certified sets, a lower bound otherwise).
    #[inline]
    pub fn score_of(&self, p: usize, r: usize) -> f64 {
        let (rs, ss) = self.candidates(p);
        match rs.binary_search(&(r as u32)) {
            Ok(i) => ss[i],
            Err(_) => 0.0,
        }
    }

    /// Worst-case objective loss of solving one stage-WGRAP over candidate
    /// edges only instead of the dense matrix: each paper's assigned
    /// reviewer is replaced by one of gain at most `bound(p)`.
    pub fn stage_loss_bound(&self) -> f64 {
        self.bound.iter().sum()
    }

    /// Bytes of score-state this set holds — the sparse counterpart of a
    /// dense `P × R × 8`-byte matrix, for memory accounting in benches and
    /// the store's snapshot-size stats. Content bytes, length-derived,
    /// deterministic.
    pub fn memory_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| {
                row.reviewer.len() * std::mem::size_of::<u32>()
                    + row.score.len() * std::mem::size_of::<f64>()
            })
            .sum::<usize>()
            + self.bound.len() * std::mem::size_of::<f64>()
            + self.support.len() * std::mem::size_of::<u32>()
    }

    /// Number of row slabs (one per paper) — the candidate side of the
    /// snapshot page count.
    pub fn num_pages(&self) -> usize {
        self.rows.len()
    }

    /// Row slabs physically shared with `other` at the same paper index
    /// (`Arc::ptr_eq`) — the structural-sharing metric across epochs.
    pub fn shared_rows_with(&self, other: &CandidateSet) -> usize {
        self.rows.iter().zip(other.rows.iter()).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Append each row slab's `(address, content bytes)` identity for
    /// cross-epoch retention accounting.
    pub fn page_identities(&self, out: &mut Vec<(usize, usize)>) {
        for row in &self.rows {
            out.push((
                Arc::as_ptr(row) as usize,
                row.reviewer.len() * std::mem::size_of::<u32>()
                    + row.score.len() * std::mem::size_of::<f64>(),
            ));
        }
    }

    /// Copy every shared row slab so this set owns its rows privately —
    /// the pre-paging full-copy layout, kept for the paged-vs-flat benches
    /// and the paged≡flat certification tests.
    pub fn unshare(&mut self) {
        for row in &mut self.rows {
            if Arc::strong_count(row) > 1 {
                *row = Arc::new(row.as_ref().clone());
            }
        }
    }

    /// Append the row of `ctx`'s last paper to an **untruncated** (Auto)
    /// set that covers every earlier paper: the row
    /// [`build`](CandidateSet::build) gives that paper, from the same
    /// kernel, which is what keeps incremental maintenance bit-identical to
    /// a rebuild. The new paper's bound is `0.0` (nothing excluded) and its
    /// support is the row length, so the set stays certified. Existing rows
    /// stay shared: appending is a new slab, not a rewrite.
    pub fn append_paper(&mut self, ctx: &ScoreContext<'_>) {
        let p = self.num_papers();
        assert_eq!(ctx.num_papers(), p + 1, "the context must hold exactly one more paper");
        let row = if ctx.sparse() {
            let (topics, weights) = ctx.paper_sparse(p);
            sparse_row(ctx, topics, weights, ctx.paper_total(p))
        } else {
            dense_row(ctx, p)
        };
        let (reviewer, score): (Vec<u32>, Vec<f64>) = row.into_iter().unzip();
        self.support.push(reviewer.len() as u32);
        self.rows.push(Arc::new(CandRow { reviewer, score }));
        self.bound.push(0.0);
    }

    /// Patch reviewer `r` across every paper of an **untruncated** (Auto)
    /// set: `scores` lists `(paper, new pair score)` for exactly the papers
    /// where `r` now scores positive (ascending by paper id); `r` is
    /// removed everywhere else. Growing the pool is allowed — `r` may be
    /// one past the current reviewer count (a freshly appended reviewer).
    ///
    /// This is the shared kernel behind `AddReviewer` (empty old presence),
    /// `RetireReviewer` (empty `scores`) and `PatchScores`. Only rows whose
    /// membership or score actually changes are copy-on-written (one
    /// binary search per paper decides); every other slab stays `Arc`-
    /// shared with the previous epoch, so the patch costs O(rows touched),
    /// not O(nnz). Untouched entries are never re-scored, which keeps the
    /// result bit-identical to [`CandidateSet::build`] on the patched
    /// context.
    pub fn patch_reviewer(&mut self, r: u32, scores: &[(u32, f64)]) {
        debug_assert!(scores.windows(2).all(|w| w[0].0 < w[1].0), "scores ascending by paper");
        debug_assert!(scores.iter().all(|&(_, s)| s > 0.0));
        assert!(
            (r as usize) <= self.num_reviewers,
            "reviewer {r} more than one past the pool ({})",
            self.num_reviewers
        );
        self.num_reviewers = self.num_reviewers.max(r as usize + 1);
        let mut next = scores.iter().copied().peekable();
        for p in 0..self.num_papers() {
            let insert = match next.peek() {
                Some(&(sp, s)) if sp as usize == p => {
                    next.next();
                    Some(s)
                }
                _ => None,
            };
            match (self.rows[p].reviewer.binary_search(&r), insert) {
                // Not present, not entering: the slab stays shared.
                (Err(_), None) => {}
                (Ok(i), Some(s)) => {
                    let row = Arc::make_mut(&mut self.rows[p]);
                    row.score[i] = s;
                }
                (Ok(i), None) => {
                    let row = Arc::make_mut(&mut self.rows[p]);
                    row.reviewer.remove(i);
                    row.score.remove(i);
                    self.support[p] = row.reviewer.len() as u32;
                }
                (Err(i), Some(s)) => {
                    let row = Arc::make_mut(&mut self.rows[p]);
                    row.reviewer.insert(i, r);
                    row.score.insert(i, s);
                    self.support[p] = row.reviewer.len() as u32;
                }
            }
        }
        debug_assert!(next.peek().is_none(), "scores reference papers beyond the set");
    }

    /// Distribution of per-paper positive support, for picking `k`.
    /// `None` for an instance with no papers.
    pub fn coverage_stats(&self) -> Option<CoverageStats> {
        if self.support.is_empty() {
            return None;
        }
        let mut s: Vec<u32> = self.support.clone();
        s.sort_unstable();
        let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize] as usize;
        Some(CoverageStats {
            min: s[0] as usize,
            p25: at(0.25),
            median: at(0.5),
            p75: at(0.75),
            max: s[s.len() - 1] as usize,
        })
    }
}

/// The `TopK(k)` truncation of one candidate row, in place: rank by
/// `(score desc, reviewer asc)`, keep `k`, restore ascending-id order, and
/// return the best excluded score (the paper's bound; `0.0` when nothing
/// was cut). This is [`CandidateSet::build`]'s own truncation kernel,
/// exposed for single-row consumers (the routed JRA BBA setup, the service
/// batch executor) so every `TopK` path shares one comparator.
pub fn truncate_row(row: &mut Vec<(u32, f64)>, k: usize) -> f64 {
    if row.len() <= k {
        return 0.0;
    }
    row.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let bound = row[k].1;
    row.truncate(k);
    row.sort_by_key(|&(r, _)| r);
    bound
}

/// One paper's row of a build: `(candidates ascending by id, bound,
/// positive support before truncation)`.
type PaperRow = (Vec<(u32, f64)>, f64, u32);

/// Papers of a [`CandidateSet::build`] go in this many chunks (fewer for
/// small `P`), each with its own accumulator: a fixed count, so the `O(R)`
/// scratch is paid `BUILD_CHUNKS` times whatever `P` is and the work splits
/// the same way on any number of threads.
const BUILD_CHUNKS: usize = 64;

/// Record `row`'s support and apply the `TopK(k)` truncation, if any.
fn finish_row(mut row: Vec<(u32, f64)>, k: Option<usize>) -> PaperRow {
    let support = row.len() as u32;
    let bound = k.map_or(0.0, |k| truncate_row(&mut row, k));
    (row, bound, support)
}

/// Reviewer `index[t][i]`'s expertise on topic `t`, for every `i`.
fn gather_expertise(ctx: &ScoreContext<'_>, index: &[Vec<u32>], t: usize) -> Vec<f64> {
    index[t].iter().map(|&r| ctx.reviewer_row(r as usize)[t]).collect()
}

/// One row through the kernel, for a paper with non-zero `topics`
/// (ascending) weighing `weights` and summing `total`. Reads the
/// expertise of only the index lists it walks.
fn sparse_row(
    ctx: &ScoreContext<'_>,
    topics: &[u32],
    weights: &[f64],
    total: f64,
) -> Vec<(u32, f64)> {
    let index = ctx.topic_index();
    let values: Vec<Vec<f64>> =
        topics.iter().map(|&t| gather_expertise(ctx, index, t as usize)).collect();
    let lists = topics
        .iter()
        .zip(weights)
        .zip(&values)
        .map(|((&t, &w), v)| (w, index[t as usize].as_slice(), v.as_slice()));
    RowKernel::new(ctx.num_reviewers()).row(ctx.scoring(), total, lists)
}

/// Paper `p`'s row by scoring every reviewer: the path of scorings that
/// are not sparse-safe.
fn dense_row(ctx: &ScoreContext<'_>, p: usize) -> Vec<(u32, f64)> {
    (0..ctx.num_reviewers())
        .filter_map(|r| {
            let s = ctx.pair_score(r, p);
            (s > 0.0).then_some((r as u32, s))
        })
        .collect()
}

/// The candidate-row kernel's scratch, reused across the rows of one
/// chunk: a per-reviewer accumulator and a bit per reviewer marking the
/// ids the current row touched. Between rows every accumulator slot is
/// `+0.0` and every bit is clear.
struct RowKernel {
    acc: Vec<f64>,
    hit: Vec<u64>,
}

impl RowKernel {
    fn new(num_reviewers: usize) -> Self {
        Self { acc: vec![0.0; num_reviewers], hit: vec![0; num_reviewers.div_ceil(64)] }
    }

    /// The row of a paper whose weights sum to `total`, given its non-zero
    /// topics in ascending order as `(weight, reviewer ids, their
    /// expertise)`: every touched reviewer whose `acc / total` is positive,
    /// ascending by id (empty when `total <= 0`, where every pair score is
    /// `0`). See the module docs for why this is bit-identical to
    /// [`ScoreContext::pair_score`]. Emitting walks the marks, one word per
    /// 64 reviewers, so a row costs its index entries plus `R / 64`.
    fn row<'l>(
        &mut self,
        scoring: Scoring,
        total: f64,
        lists: impl Iterator<Item = (f64, &'l [u32], &'l [f64])>,
    ) -> Vec<(u32, f64)> {
        if total <= 0.0 {
            return Vec::new();
        }
        for (w, ids, values) in lists {
            for (&r, &e) in ids.iter().zip(values) {
                self.hit[r as usize / 64] |= 1 << (r % 64);
                self.acc[r as usize] += scoring.topic_contribution(e, w);
            }
        }
        let mut out = Vec::new();
        for (word, bits) in self.hit.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let r = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = std::mem::take(&mut self.acc[r]) / total;
                if s > 0.0 {
                    out.push((r as u32, s));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::problem::Instance;

    #[test]
    fn auto_set_keeps_exactly_the_positive_scores() {
        for scoring in Scoring::ALL {
            let inst = random_instance(6, 8, 5, 2, 3);
            let ctx = ScoreContext::new(&inst, scoring);
            let cs = CandidateSet::build(&ctx, None);
            assert!(cs.certified());
            for p in 0..6 {
                for r in 0..8 {
                    let s = ctx.pair_score(r, p);
                    assert_eq!(cs.contains(p, r), s > 0.0, "{scoring:?} ({r},{p})");
                    if s > 0.0 {
                        assert_eq!(cs.score_of(p, r).to_bits(), s.to_bits());
                    }
                }
                assert_eq!(cs.support(p), cs.len(p));
            }
        }
    }

    #[test]
    fn sparse_instance_excludes_zero_overlap_reviewers() {
        let papers = vec![TopicVector::from_sparse(4, &[(0, 1.0)])];
        let reviewers = vec![
            TopicVector::from_sparse(4, &[(0, 0.9)]),
            TopicVector::from_sparse(4, &[(1, 0.9)]), // no overlap
            TopicVector::from_sparse(4, &[(0, 0.2), (1, 0.5)]),
        ];
        let inst = Instance::new(papers, reviewers, 1, 1).unwrap();
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let cs = CandidateSet::build(&ctx, None);
        let (rs, _) = cs.candidates(0);
        assert_eq!(rs, &[0, 2]);
        assert!(cs.certified());
        assert_eq!(cs.bound(0), 0.0);
    }

    #[test]
    fn topk_truncates_by_score_and_records_bound() {
        let inst = random_instance(5, 9, 4, 2, 11);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let full = CandidateSet::build(&ctx, None);
        let k = 3;
        let cs = CandidateSet::build(&ctx, Some(k));
        for p in 0..5 {
            assert!(cs.len(p) <= k);
            let (rs, ss) = cs.candidates(p);
            // Kept candidates are sorted by reviewer id...
            assert!(rs.windows(2).all(|w| w[0] < w[1]));
            // ... and are the top-k by (score desc, reviewer asc).
            let (frs, fss) = full.candidates(p);
            let mut ranked: Vec<(u32, f64)> =
                frs.iter().copied().zip(fss.iter().copied()).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut want: Vec<(u32, f64)> = ranked.iter().take(k).copied().collect();
            want.sort_by_key(|&(r, _)| r);
            let got: Vec<(u32, f64)> = rs.iter().copied().zip(ss.iter().copied()).collect();
            assert_eq!(got, want);
            if full.len(p) > k {
                assert_eq!(cs.bound(p).to_bits(), ranked[k].1.to_bits());
                assert!(cs.bound(p) > 0.0);
            } else {
                assert_eq!(cs.bound(p), 0.0);
            }
            // Every excluded reviewer scores at most the bound.
            for r in 0..9 {
                if !cs.contains(p, r) {
                    assert!(ctx.pair_score(r, p) <= cs.bound(p));
                }
            }
            assert_eq!(cs.support(p), full.len(p));
        }
        assert!(cs.stage_loss_bound() >= 0.0);
        assert!(cs.memory_bytes() < full.memory_bytes() + 1);
    }

    /// `random_instance` rows plus the values the row kernel must
    /// reproduce bit for bit: `-0.0`, subnormal and exactly tied expertise,
    /// a zero-total paper, a paper on a topic no reviewer covers, and
    /// 4000 empty reviewers, so papers on topic 4 touch 3 of `R` while the
    /// dense papers touch 9. More papers than `BUILD_CHUNKS`, so each chunk
    /// reuses its accumulator across rows of both kinds.
    fn edge_instance(seed: u64) -> Instance {
        const T: usize = 6;
        let base = random_instance(150, 7, T, 2, seed);
        let mut reviewers: Vec<Vec<f64>> =
            base.reviewers().iter().map(|v| v.as_slice().to_vec()).collect();
        for row in &mut reviewers {
            // Topic 5 is covered by nobody, topic 4 only by the rows below.
            row[4] = 0.0;
            row[5] = 0.0;
        }
        reviewers[0][0] = -0.0;
        reviewers[1][1] = 5e-324;
        reviewers[3][2] = reviewers[2][2];
        let tied = vec![0.25, 0.25, 0.0, -0.0, 5e-324, 0.0];
        reviewers.push(tied.clone());
        reviewers.push(tied);
        for i in 0..4000 {
            let mut row = vec![0.0; T];
            if i == 1234 {
                row[4] = 0.5;
            }
            reviewers.push(row);
        }
        let mut papers: Vec<Vec<f64>> =
            base.papers().iter().map(|v| v.as_slice().to_vec()).collect();
        for (p, row) in papers.iter_mut().enumerate() {
            match p % 4 {
                0 | 1 => *row = vec![0.0, 0.0, 0.0, 0.0, 0.2 + p as f64 / 1000.0, 0.0],
                2 => row[3] = -0.0,
                _ => row[1] = 5e-324,
            }
        }
        papers.insert(7, vec![0.0; T]);
        papers.insert(70, vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        papers.push(vec![0.25, 0.25, 0.0, 0.0, 5e-324, 0.0]);
        let vectors = |rows: Vec<Vec<f64>>| rows.into_iter().map(TopicVector::new).collect();
        let (num_p, num_r) = (papers.len(), reviewers.len());
        let delta_r = Instance::minimal_delta_r(num_p, num_r, 2);
        Instance::new(vectors(papers), vectors(reviewers), 2, delta_r).unwrap()
    }

    #[test]
    fn rows_match_a_pair_score_scan_of_every_reviewer() {
        let inst = edge_instance(13);
        for scoring in Scoring::ALL {
            let ctx = ScoreContext::new(&inst, scoring);
            let auto = CandidateSet::build(&ctx, None);
            for k in [None, Some(1), Some(3), Some(1000)] {
                let cs = CandidateSet::build(&ctx, k);
                assert_eq!(cs.num_papers(), inst.num_papers());
                for p in 0..inst.num_papers() {
                    let mut want: Vec<(u32, f64)> = (0..inst.num_reviewers())
                        .filter_map(|r| {
                            let s = ctx.pair_score(r, p);
                            (s > 0.0).then_some((r as u32, s))
                        })
                        .collect();
                    let support = want.len();
                    let mut bound = 0.0;
                    if let Some(k) = k.filter(|&k| want.len() > k) {
                        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        bound = want[k].1;
                        want.truncate(k);
                        want.sort_by_key(|&(r, _)| r);
                    }
                    let (rs, ss) = cs.candidates(p);
                    let what = format!("{scoring:?} k={k:?} paper {p}");
                    assert_eq!(rs, want.iter().map(|&(r, _)| r).collect::<Vec<_>>(), "{what}");
                    let bits = |ss: &[f64]| ss.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    let want_scores: Vec<f64> = want.iter().map(|&(_, s)| s).collect();
                    assert_eq!(bits(ss), bits(&want_scores), "{what}");
                    assert_eq!(cs.bound(p).to_bits(), f64::to_bits(bound), "{what}");
                    assert_eq!(cs.support(p), support, "{what}");
                }
            }
            // The same vector sent ad hoc gets its stored paper's row.
            for p in 0..inst.num_papers() {
                let Some(row) = CandidateSet::adhoc_row(&ctx, inst.paper(p)) else {
                    assert!(!ctx.sparse(), "{scoring:?}");
                    continue;
                };
                let (rs, ss) = auto.candidates(p);
                let got: Vec<(u32, u64)> = row.iter().map(|&(r, s)| (r, s.to_bits())).collect();
                let want: Vec<(u32, u64)> =
                    rs.iter().zip(ss).map(|(&r, s)| (r, s.to_bits())).collect();
                assert_eq!(got, want, "{scoring:?} ad hoc paper {p}");
            }
            // The empty rows are the zero-total paper and the one on the
            // uncovered topic.
            if ctx.sparse() {
                assert_eq!(auto.len(7), 0);
                assert_eq!(auto.len(70), 0);
                assert!((0..auto.num_papers()).any(|p| (1..=3).contains(&auto.len(p))));
                assert!((0..auto.num_papers()).any(|p| auto.len(p) >= 7));
            }
        }
    }

    #[test]
    fn huge_k_equals_auto() {
        let inst = random_instance(4, 7, 5, 2, 5);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let auto = CandidateSet::build(&ctx, None);
        let huge = CandidateSet::build(&ctx, Some(1000));
        for p in 0..4 {
            assert_eq!(auto.candidates(p), huge.candidates(p));
            assert_eq!(huge.bound(p), 0.0);
        }
        assert!(huge.certified());
    }

    #[test]
    fn patch_reviewer_cows_only_affected_rows() {
        let inst = random_instance(12, 10, 5, 2, 7);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let base = CandidateSet::build(&ctx, None);
        let mut patched = base.clone();
        assert_eq!(patched.shared_rows_with(&base), base.num_pages());

        // Retire reviewer 3: exactly the rows containing it are rewritten.
        let containing = (0..12).filter(|&p| base.contains(p, 3)).count();
        patched.patch_reviewer(3, &[]);
        assert_eq!(patched.shared_rows_with(&base), base.num_pages() - containing);
        for p in 0..12 {
            assert!(!patched.contains(p, 3));
            // The base set is frozen.
            assert_eq!(base.contains(p, 3), ctx.pair_score(3, p) > 0.0);
        }

        // Bit-identity with a from-scratch build on the retired instance.
        let mut want = inst.clone();
        want.set_reviewer_vector(3, TopicVector::zeros(5)).unwrap();
        let wctx = ScoreContext::new(&want, Scoring::WeightedCoverage);
        let wcs = CandidateSet::build(&wctx, None);
        for p in 0..12 {
            let ((grs, gss), (wrs, wss)) = (patched.candidates(p), wcs.candidates(p));
            assert_eq!(grs, wrs, "paper {p} ids");
            for (x, y) in gss.iter().zip(wss) {
                assert_eq!(x.to_bits(), y.to_bits(), "paper {p} scores");
            }
            assert_eq!(patched.support(p), wcs.support(p), "paper {p} support");
        }

        // Unsharing reconstructs private rows, contents unchanged.
        let mut flat = patched.clone();
        flat.unshare();
        assert_eq!(flat.shared_rows_with(&patched), 0);
        for p in 0..12 {
            assert_eq!(flat.candidates(p), patched.candidates(p));
        }
    }

    #[test]
    fn coverage_stats_summarise_support() {
        let inst = random_instance(9, 6, 4, 2, 1);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let cs = CandidateSet::build(&ctx, None);
        let stats = cs.coverage_stats().unwrap();
        assert!(stats.min <= stats.p25 && stats.p25 <= stats.median);
        assert!(stats.median <= stats.p75 && stats.p75 <= stats.max);
        assert!(stats.max <= 6);
    }

    #[test]
    fn policy_parses() {
        use std::str::FromStr;
        assert_eq!(PruningPolicy::from_str("exact").unwrap(), PruningPolicy::Exact);
        assert_eq!(PruningPolicy::from_str("Auto").unwrap(), PruningPolicy::Auto);
        assert_eq!(PruningPolicy::from_str("topk:16").unwrap(), PruningPolicy::TopK(16));
        assert_eq!(PruningPolicy::from_str("top-k:4").unwrap(), PruningPolicy::TopK(4));
        assert!(PruningPolicy::from_str("topk:0").is_err());
        assert!(PruningPolicy::from_str("bogus").is_err());
    }
}
