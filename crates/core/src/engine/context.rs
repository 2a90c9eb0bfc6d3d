//! [`ScoreContext`]: the flat structure-of-arrays view of an instance,
//! backed by [`PagedVec`] pages so epoch clones share untouched storage.

use super::pages::PagedVec;
use super::par;
use crate::error::{Error, Result};
use crate::problem::Instance;
use crate::score::Scoring;
use crate::topic::TopicVector;
use std::borrow::Cow;

/// Flat scoring context shared by every solver.
///
/// Holds row-major copies of the reviewer expertise matrix (`R × T`) and the
/// paper matrix (`P × T`), per-paper normalisers, and a CSR view over each
/// paper's non-zero topics. Construction is `O((R + P)·T)` once; afterwards
/// every kernel works on contiguous `&[f64]` rows with no boxed-slice
/// pointer chasing and no per-call allocation.
///
/// The two matrices live in [`PagedVec`]s whose pages hold a whole number
/// of rows ([`PagedVec::row_chunk`]), so row accessors still return
/// contiguous in-page slices while
/// [`clone_for_update`](ScoreContext::clone_for_update) shares every
/// untouched page across
/// epochs and a single-row patch copy-on-writes exactly one ~64 KiB page.
/// The normalisers and CSR view stay plain `Vec`s: at service scale they
/// are a few hundred KB — far below the threshold where paging beats a
/// straight memcpy — and `push_paper` appends to them in place.
///
/// All kernels are **bit-identical** to the legacy
/// [`Scoring`]/[`RunningGroup`](crate::score::RunningGroup) arithmetic: same
/// iteration order, same `/ total` vs `* (1/total)` convention per call
/// site, and the sparse view is only used for scorings where skipping a
/// zero paper weight is an exact no-op ([`Scoring::sparse_safe`]).
///
/// # Borrowed and owned storage
///
/// The instance behind a context is a [`Cow`]: [`ScoreContext::new`] borrows
/// (the zero-copy one-shot path every solver uses), while
/// [`ScoreContext::from_owned`] / [`ScoreContext::into_owned`] produce a
/// `ScoreContext<'static>` that owns its instance. Owned contexts are the
/// substrate of the `wgrap-service` versioned store: they can live inside
/// long-lived snapshots and accept **incremental instance updates**
/// ([`push_paper`](ScoreContext::push_paper),
/// [`push_reviewer`](ScoreContext::push_reviewer),
/// [`set_reviewer_row`](ScoreContext::set_reviewer_row)) that extend or
/// patch the flat arrays in place — bit-identical to a from-scratch rebuild
/// of the final instance — instead of paying `O((R + P)·T)` again. Every
/// mutation drops the lazily-built caches (pair matrix, auto candidates);
/// the caller may re-install an incrementally maintained candidate set via
/// [`install_auto_candidates`](ScoreContext::install_auto_candidates).
/// The [topic index](ScoreContext::topic_index), once built, is instead
/// kept in order by the reviewer-row mutations themselves.
#[derive(Debug, Clone)]
pub struct ScoreContext<'a> {
    inst: Cow<'a, Instance>,
    scoring: Scoring,
    seed: u64,
    dim: usize,
    reviewers: PagedVec<f64>,
    papers: PagedVec<f64>,
    paper_totals: Vec<f64>,
    /// `1/total` (or `0` for a zero paper), the `RunningGroup` convention.
    paper_inv_totals: Vec<f64>,
    csr_ptr: Vec<usize>,
    csr_idx: Vec<u32>,
    csr_val: Vec<f64>,
    /// Lazily-built `P × R` pair-score matrix, shared by every solver that
    /// runs on this context (SM, ARAP-ILP, SRA) so the O(P·R·T) build
    /// happens once per context, not once per solve.
    pair_cache: std::sync::OnceLock<PairMatrix>,
    /// Lazily-built untruncated candidate set (the [`PruningPolicy::Auto`]
    /// lists), shared by every solver pruning under `Auto` on this context.
    ///
    /// [`PruningPolicy::Auto`]: super::candidates::PruningPolicy::Auto
    auto_candidates: std::sync::OnceLock<super::candidates::CandidateSet>,
    /// Lazily-built topic → reviewers index ([`ScoreContext::topic_index`]),
    /// maintained in place by the reviewer-row mutations once built.
    topic_index: std::sync::OnceLock<Vec<Vec<u32>>>,
}

impl ScoreContext<'static> {
    /// Build a context that owns its instance (no borrow, `'static`) — the
    /// storage mode behind long-lived service snapshots.
    pub fn from_owned(inst: Instance, scoring: Scoring) -> Self {
        Self::from_cow(Cow::Owned(inst), scoring)
    }
}

impl<'a> ScoreContext<'a> {
    /// Build the flat view of `inst` under `scoring` (seed 0).
    pub fn new(inst: &'a Instance, scoring: Scoring) -> Self {
        Self::from_cow(Cow::Borrowed(inst), scoring)
    }

    fn from_cow(inst: Cow<'a, Instance>, scoring: Scoring) -> Self {
        let dim = inst.num_topics();
        let flatten = |vs: &[TopicVector]| -> Vec<f64> {
            let mut out = Vec::with_capacity(vs.len() * dim);
            for v in vs {
                out.extend_from_slice(v.as_slice());
            }
            out
        };
        let papers = flatten(inst.papers());
        let reviewers = flatten(inst.reviewers());
        let paper_totals: Vec<f64> = inst.papers().iter().map(TopicVector::total).collect();
        let paper_inv_totals: Vec<f64> =
            paper_totals.iter().map(|&t| if t > 0.0 { 1.0 / t } else { 0.0 }).collect();
        let mut csr_ptr = Vec::with_capacity(inst.num_papers() + 1);
        let mut csr_idx = Vec::new();
        let mut csr_val = Vec::new();
        csr_ptr.push(0);
        for p in 0..inst.num_papers() {
            let row = &papers[p * dim..(p + 1) * dim];
            for (t, &w) in row.iter().enumerate() {
                if w > 0.0 {
                    csr_idx.push(t as u32);
                    csr_val.push(w);
                }
            }
            csr_ptr.push(csr_idx.len());
        }
        let chunk = PagedVec::<f64>::row_chunk(dim);
        Self {
            inst,
            scoring,
            seed: 0,
            dim,
            reviewers: PagedVec::from_vec(reviewers, chunk),
            papers: PagedVec::from_vec(papers, chunk),
            paper_totals,
            paper_inv_totals,
            csr_ptr,
            csr_idx,
            csr_val,
            pair_cache: std::sync::OnceLock::new(),
            auto_candidates: std::sync::OnceLock::new(),
            topic_index: std::sync::OnceLock::new(),
        }
    }

    /// Set the seed consumed by stochastic solvers (SDGA-SRA).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convert into a context that owns its instance (cloning it if it was
    /// borrowed); flat arrays, caches and the seed carry over as-is.
    pub fn into_owned(self) -> ScoreContext<'static> {
        ScoreContext {
            inst: Cow::Owned(self.inst.into_owned()),
            scoring: self.scoring,
            seed: self.seed,
            dim: self.dim,
            reviewers: self.reviewers,
            papers: self.papers,
            paper_totals: self.paper_totals,
            paper_inv_totals: self.paper_inv_totals,
            csr_ptr: self.csr_ptr,
            csr_idx: self.csr_idx,
            csr_val: self.csr_val,
            pair_cache: self.pair_cache,
            auto_candidates: self.auto_candidates,
            topic_index: self.topic_index,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The scoring function every kernel applies.
    pub fn scoring(&self) -> Scoring {
        self.scoring
    }

    /// Seed for stochastic solvers.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Topic dimension `T`.
    pub fn num_topics(&self) -> usize {
        self.dim
    }

    /// Number of papers `P`.
    pub fn num_papers(&self) -> usize {
        self.paper_totals.len()
    }

    /// Number of reviewers `R`.
    pub fn num_reviewers(&self) -> usize {
        // `dim == 0` collapses every flat row to nothing — fall back to the
        // instance's count.
        self.reviewers.len().checked_div(self.dim).unwrap_or(self.inst.num_reviewers())
    }

    /// Reviewer `r`'s expertise row — contiguous because pages hold whole
    /// rows ([`PagedVec::row_chunk`]).
    #[inline]
    pub fn reviewer_row(&self, r: usize) -> &[f64] {
        self.reviewers.slice(r * self.dim, self.dim)
    }

    /// Paper `p`'s topic row.
    #[inline]
    pub fn paper_row(&self, p: usize) -> &[f64] {
        self.papers.slice(p * self.dim, self.dim)
    }

    /// Paper `p`'s normaliser `Σ_t p[t]`.
    #[inline]
    pub fn paper_total(&self, p: usize) -> f64 {
        self.paper_totals[p]
    }

    /// Paper `p`'s `1/total` (0 for a zero paper), the incremental-gain
    /// convention shared with [`RunningGroup`](crate::score::RunningGroup).
    #[inline]
    pub fn paper_inv_total(&self, p: usize) -> f64 {
        self.paper_inv_totals[p]
    }

    /// Paper `p`'s non-zero topics as `(indices, weights)`.
    #[inline]
    pub fn paper_sparse(&self, p: usize) -> (&[u32], &[f64]) {
        let lo = self.csr_ptr[p];
        let hi = self.csr_ptr[p + 1];
        (&self.csr_idx[lo..hi], &self.csr_val[lo..hi])
    }

    /// May kernels use the CSR view under this context's scoring?
    #[inline]
    pub fn sparse(&self) -> bool {
        self.scoring.sparse_safe()
    }

    /// `c(r, p)` — bit-identical to
    /// [`Scoring::pair_score`](crate::score::Scoring::pair_score) on the
    /// boxed vectors (numerator summed in ascending topic order, then one
    /// division by the paper total).
    pub fn pair_score(&self, r: usize, p: usize) -> f64 {
        let total = self.paper_totals[p];
        if total <= 0.0 {
            return 0.0;
        }
        let row = self.reviewer_row(r);
        let mut raw = 0.0;
        if self.sparse() {
            let (idx, val) = self.paper_sparse(p);
            for (&t, &w) in idx.iter().zip(val) {
                raw += self.scoring.topic_contribution(row[t as usize], w);
            }
        } else {
            for (&e, &w) in row.iter().zip(self.paper_row(p)) {
                raw += self.scoring.topic_contribution(e, w);
            }
        }
        raw / total
    }

    /// The dense `P × R` pair-score matrix, built once per context (rows in
    /// parallel when the `rayon` feature is enabled — bit-identical either
    /// way) and cached for every subsequent solver.
    pub fn pair_matrix(&self) -> &PairMatrix {
        self.pair_cache.get_or_init(|| self.build_pair_matrix())
    }

    /// Build the pair matrix unconditionally (no cache) — the kernel behind
    /// [`ScoreContext::pair_matrix`], exposed for benchmarking.
    pub fn build_pair_matrix(&self) -> PairMatrix {
        let num_r = self.num_reviewers();
        let rows = par::map_indexed(self.num_papers(), |p| {
            let mut row = Vec::with_capacity(num_r);
            for r in 0..num_r {
                row.push(self.pair_score(r, p));
            }
            row
        });
        PairMatrix::from_rows(num_r, rows)
    }

    /// The untruncated candidate set (every positive-score reviewer per
    /// paper — the [`PruningPolicy::Auto`] lists), built once per context
    /// and shared by every solver pruning under `Auto`. Always certified.
    ///
    /// [`PruningPolicy::Auto`]: super::candidates::PruningPolicy::Auto
    pub fn auto_candidates(&self) -> &super::candidates::CandidateSet {
        self.auto_candidates.get_or_init(|| super::candidates::CandidateSet::build(self, None))
    }

    /// The auto candidate set if it has already been built or installed —
    /// never triggers a build. Single-paper consumers (the routed JRA BBA
    /// setup) use this to reuse a maintained set when one exists without
    /// forcing an all-papers build when one does not.
    pub fn cached_auto_candidates(&self) -> Option<&super::candidates::CandidateSet> {
        self.auto_candidates.get()
    }

    /// Take the cached auto candidate set out of the context (if it was ever
    /// built or installed), leaving the cache empty. Incremental-update
    /// callers take the set, patch it alongside the context, and
    /// [re-install](ScoreContext::install_auto_candidates) it.
    pub fn take_auto_candidates(&mut self) -> Option<super::candidates::CandidateSet> {
        self.auto_candidates.take()
    }

    /// The topic → reviewers index: per topic, every reviewer with positive
    /// expertise, ordered `(expertise desc, id asc)` under
    /// [`f64::total_cmp`] — the order in which BBA walks a topic's list
    /// (paper Figure 5(b)). Built once per context (`O(R·T)` plus a sort of
    /// the positive entries) and then kept in that order by
    /// [`push_reviewer`](ScoreContext::push_reviewer) and
    /// [`set_reviewer_row`](ScoreContext::set_reviewer_row), so a context
    /// that outlives many updates (a service snapshot) never rebuilds it.
    /// The candidate rows ([`CandidateSet`]) are built along it too.
    ///
    /// [`CandidateSet`]: super::candidates::CandidateSet
    pub fn topic_index(&self) -> &[Vec<u32>] {
        self.topic_index.get_or_init(|| {
            topic_index_over(0..self.num_reviewers() as u32, self.dim, |r| self.reviewer_row(r))
        })
    }

    /// Clone for a copy-on-write update. The paged matrices, the candidate
    /// rows and the instance's topic-vector slabs are all `Arc`-shared, so
    /// this is O(pages) refcount bumps plus a memcpy of the small unpaged
    /// state (normalisers, CSR, topic index) — **not** O((R+P)·T). Pages
    /// are copied lazily, one at a time, by whichever mutations follow. The
    /// cached dense `P × R` pair matrix does **not** carry over — the first
    /// mutation would drop it anyway, and at service scale it dwarfs
    /// everything else.
    pub fn clone_for_update(&self) -> ScoreContext<'static> {
        let auto_candidates = std::sync::OnceLock::new();
        if let Some(cands) = self.auto_candidates.get() {
            let _ = auto_candidates.set(cands.clone());
        }
        ScoreContext {
            inst: Cow::Owned(self.inst.as_ref().clone()),
            scoring: self.scoring,
            seed: self.seed,
            dim: self.dim,
            reviewers: self.reviewers.clone(),
            papers: self.papers.clone(),
            paper_totals: self.paper_totals.clone(),
            paper_inv_totals: self.paper_inv_totals.clone(),
            csr_ptr: self.csr_ptr.clone(),
            csr_idx: self.csr_idx.clone(),
            csr_val: self.csr_val.clone(),
            pair_cache: std::sync::OnceLock::new(),
            auto_candidates,
            topic_index: self.topic_index.clone(),
        }
    }

    /// Install a pre-built untruncated candidate set as this context's
    /// [`auto_candidates`](ScoreContext::auto_candidates) cache. The caller
    /// asserts the set matches what [`CandidateSet::build`] would produce on
    /// the current context — the service store's update proptests certify
    /// exactly that (bit-identity to a from-scratch rebuild).
    ///
    /// [`CandidateSet::build`]: super::candidates::CandidateSet::build
    pub fn install_auto_candidates(&mut self, cands: super::candidates::CandidateSet) {
        assert_eq!(cands.num_papers(), self.num_papers(), "candidate set has wrong paper count");
        assert_eq!(
            cands.num_reviewers(),
            self.num_reviewers(),
            "candidate set has wrong reviewer count"
        );
        self.auto_candidates = std::sync::OnceLock::new();
        let _ = self.auto_candidates.set(cands);
    }

    /// Drop the lazily-built score caches (pair matrix, auto candidates).
    /// Called by every mutation; the topic index is maintained instead.
    fn invalidate_caches(&mut self) {
        self.pair_cache = std::sync::OnceLock::new();
        self.auto_candidates = std::sync::OnceLock::new();
    }

    /// Append a paper, extending the flat matrix, the normalisers and the
    /// CSR sparse view in place — bit-identical to rebuilding the context
    /// from the extended instance, at `O(T)` instead of `O((R + P)·T)`.
    /// Returns the new paper's index. Fails (leaving the context untouched)
    /// if the dimension mismatches or capacity `R·δr ≥ (P+1)·δp` breaks.
    ///
    /// Drops the cached pair matrix and auto candidate set; incremental
    /// candidate maintenance lives in the service store, which re-installs
    /// the patched set.
    pub fn push_paper(&mut self, name: Option<String>, paper: TopicVector) -> Result<usize> {
        if paper.dim() != self.dim {
            return Err(Error::InvalidInstance(format!(
                "paper dimension {} != context dimension {}",
                paper.dim(),
                self.dim
            )));
        }
        let p = self.inst.to_mut().push_paper(name, paper)?;
        let row = self.inst.paper(p);
        // Mirror `from_cow` exactly: flat row, total, 1/total, CSR row.
        self.papers.extend_from_slice(row.as_slice());
        let total = row.total();
        self.paper_totals.push(total);
        self.paper_inv_totals.push(if total > 0.0 { 1.0 / total } else { 0.0 });
        for (t, &w) in row.as_slice().iter().enumerate() {
            if w > 0.0 {
                self.csr_idx.push(t as u32);
                self.csr_val.push(w);
            }
        }
        self.csr_ptr.push(self.csr_idx.len());
        self.invalidate_caches();
        Ok(p)
    }

    /// Append a reviewer, extending the flat expertise matrix in place.
    /// Returns the new reviewer's index. See
    /// [`push_paper`](ScoreContext::push_paper) for the cache contract.
    pub fn push_reviewer(&mut self, name: Option<String>, reviewer: TopicVector) -> Result<usize> {
        if reviewer.dim() != self.dim {
            return Err(Error::InvalidInstance(format!(
                "reviewer dimension {} != context dimension {}",
                reviewer.dim(),
                self.dim
            )));
        }
        let r = self.inst.to_mut().push_reviewer(name, reviewer)?;
        self.reviewers.extend_from_slice(self.inst.reviewer(r).as_slice());
        self.reindex(r, None);
        self.invalidate_caches();
        Ok(r)
    }

    /// Replace reviewer `r`'s expertise row in place (the `PatchScores` /
    /// `RetireReviewer` kernel — retiring is patching to the zero vector,
    /// after which every pair score involving `r` is exactly `0.0`). See
    /// [`push_paper`](ScoreContext::push_paper) for the cache contract.
    pub fn set_reviewer_row(&mut self, r: usize, expertise: TopicVector) -> Result<()> {
        if expertise.dim() != self.dim {
            return Err(Error::InvalidInstance(format!(
                "reviewer dimension {} != context dimension {}",
                expertise.dim(),
                self.dim
            )));
        }
        self.inst.to_mut().set_reviewer_vector(r, expertise)?;
        let old = self.topic_index.get().is_some().then(|| self.reviewer_row(r).to_vec());
        // Copy-on-writes exactly the page holding row `r`.
        self.reviewers.write(r * self.dim, self.inst.reviewer(r).as_slice());
        self.reindex(r, old.as_deref());
        self.invalidate_caches();
        Ok(())
    }

    /// Keep a built [`topic_index`](ScoreContext::topic_index) in order
    /// after reviewer `r`'s row changed from `old` (`None`: a new
    /// reviewer) to its current row: on every topic whose value changed,
    /// `r` leaves its old position and, if still positive, is inserted at
    /// its `(expertise desc, id asc)` position. `O(log n)` row reads per
    /// moved entry; a no-op until the index has been built.
    fn reindex(&mut self, r: usize, old: Option<&[f64]>) {
        let Some(index) = self.topic_index.get_mut() else { return };
        let (rows, dim, id) = (&self.reviewers, self.dim, r as u32);
        let value = |x: u32, t: usize| rows.slice(x as usize * dim, dim)[t];
        let new = rows.slice(r * dim, dim);
        for (t, list) in index.iter_mut().enumerate() {
            let was = old.map_or(0.0, |o| o[t]);
            if was.to_bits() == new[t].to_bits() {
                continue;
            }
            if was > 0.0 {
                // Every other entry still sits at its own row's value; only
                // `r`'s row moved, so compare against its old value.
                let at = list
                    .binary_search_by(|&x| {
                        let v = if x == id { was } else { value(x, t) };
                        was.total_cmp(&v).then(x.cmp(&id))
                    })
                    .expect("a positive entry is in its topic's list");
                list.remove(at);
            }
            if new[t] > 0.0 {
                let at = list
                    .partition_point(|&x| new[t].total_cmp(&value(x, t)).then(x.cmp(&id)).is_lt());
                list.insert(at, id);
            }
        }
    }

    /// Content bytes of the scoring state (paged matrices plus the unpaged
    /// normalisers and CSR view). Length-derived and deterministic, so safe
    /// to surface in golden-tested protocol output.
    pub fn memory_bytes(&self) -> usize {
        self.reviewers.memory_bytes()
            + self.papers.memory_bytes()
            + (self.paper_totals.len() + self.paper_inv_totals.len() + self.csr_val.len())
                * std::mem::size_of::<f64>()
            + self.csr_ptr.len() * std::mem::size_of::<usize>()
            + self.csr_idx.len() * std::mem::size_of::<u32>()
    }

    /// Total matrix pages (reviewers + papers).
    pub fn num_pages(&self) -> usize {
        self.reviewers.table().num_pages() + self.papers.table().num_pages()
    }

    /// Matrix pages physically shared with `other` (per-index
    /// `Arc::ptr_eq`) — the structural-sharing metric between the epoch
    /// snapshots the service publishes.
    pub fn shared_pages_with(&self, other: &ScoreContext<'_>) -> usize {
        self.reviewers.table().shared_pages_with(other.reviewers.table())
            + self.papers.table().shared_pages_with(other.papers.table())
    }

    /// Append each matrix page's `(address, bytes)` identity for
    /// cross-epoch retention accounting (see
    /// [`PageTable::page_identities`](super::pages::PageTable::page_identities)).
    pub fn page_identities(&self, out: &mut Vec<(usize, usize)>) {
        self.reviewers.table().page_identities(out);
        self.papers.table().page_identities(out);
    }

    /// Copy every shared matrix page so this context owns its storage
    /// privately — reconstructing the pre-paging full-memcpy clone. Kept
    /// for the paged-vs-flat benches and the paged≡flat certification
    /// tests; reads are unaffected.
    pub fn unshare_pages(&mut self) {
        self.reviewers.unshare();
        self.papers.unshare();
    }

    /// Declare `(reviewer, paper)` a conflict of interest on the underlying
    /// instance. COIs feed [`jra_view`](ScoreContext::jra_view) masks only —
    /// no score, candidate or index state depends on them, so caches
    /// survive.
    pub fn add_coi(&mut self, reviewer: usize, paper: usize) {
        self.inst.to_mut().add_coi(reviewer, paper);
    }

    /// A single-paper JRA view over this context's flat rows, with the
    /// instance's COI mask for `p` (set from the paper's own conflicts).
    pub fn jra_view(&self, p: usize) -> JraView<'_> {
        let mut forbidden = vec![false; self.num_reviewers()];
        for &r in self.inst.conflicts(p) {
            forbidden[r as usize] = true;
        }
        self.jra_view_with_forbidden(p, forbidden)
    }

    /// A single-paper JRA view with an explicit candidate mask (BRGG feeds
    /// in capacity exhaustion on top of COIs).
    pub fn jra_view_with_forbidden(&self, p: usize, forbidden: Vec<bool>) -> JraView<'_> {
        // A stored paper's CSR row already lists its non-zero topics.
        let active = if self.sparse() {
            Cow::Borrowed(self.paper_sparse(p).0)
        } else {
            Cow::Owned((0..self.dim as u32).collect())
        };
        JraView {
            paper: self.paper_row(p),
            total: self.paper_totals[p],
            inv_total: self.paper_inv_totals[p],
            rows: Rows::Paged { data: &self.reviewers, dim: self.dim, len: self.num_reviewers() },
            index: Some(&self.topic_index),
            active,
            forbidden,
            delta_p: self.inst.delta_p(),
            scoring: self.scoring,
        }
    }

    /// A JRA view for a paper that is **not** part of the instance — the
    /// online journal scenario, where a query paper arrives against the
    /// standing reviewer pool. The view scores `paper` against this
    /// context's flat reviewer rows under its scoring; `forbidden` masks
    /// per-query conflicts (no stored COI applies to an unknown paper) and
    /// `delta_p` is the requested group size.
    pub fn jra_view_adhoc<'v>(
        &'v self,
        paper: &'v TopicVector,
        forbidden: Vec<bool>,
        delta_p: usize,
    ) -> JraView<'v> {
        assert_eq!(paper.dim(), self.dim, "query paper dimension mismatch");
        assert_eq!(forbidden.len(), self.num_reviewers());
        let total = paper.total();
        JraView {
            paper: paper.as_slice(),
            total,
            inv_total: if total > 0.0 { 1.0 / total } else { 0.0 },
            rows: Rows::Paged { data: &self.reviewers, dim: self.dim, len: self.num_reviewers() },
            index: Some(&self.topic_index),
            active: Cow::Owned(active_topics(paper.as_slice(), self.scoring)),
            forbidden,
            delta_p,
            scoring: self.scoring,
        }
    }
}

/// Dense `P × R` pair-score matrix (`c(r, p)` per cell).
#[derive(Debug, Clone)]
pub struct PairMatrix {
    num_reviewers: usize,
    data: Vec<f64>,
}

impl PairMatrix {
    pub(crate) fn from_rows(num_reviewers: usize, rows: Vec<Vec<f64>>) -> Self {
        let mut data = Vec::with_capacity(rows.len() * num_reviewers);
        for row in rows {
            debug_assert_eq!(row.len(), num_reviewers);
            data.extend(row);
        }
        Self { num_reviewers, data }
    }

    /// `c(r, p)`.
    #[inline]
    pub fn get(&self, r: usize, p: usize) -> f64 {
        self.data[p * self.num_reviewers + r]
    }

    /// Paper `p`'s scores over all reviewers.
    #[inline]
    pub fn paper_row(&self, p: usize) -> &[f64] {
        &self.data[p * self.num_reviewers..(p + 1) * self.num_reviewers]
    }

    /// Number of papers.
    pub fn num_papers(&self) -> usize {
        self.data.len().checked_div(self.num_reviewers).unwrap_or(0)
    }

    /// Number of reviewers.
    pub fn num_reviewers(&self) -> usize {
        self.num_reviewers
    }
}

/// Reviewer-row storage behind a [`JraView`]: boxed legacy vectors or the
/// engine's paged row-major matrix. One enum dispatch per row access keeps
/// the exact JRA machinery (BBA, greedy seeding) generic over both without
/// monomorphisation or trait objects in the hot loop; paged rows are
/// whole-row in-page slices, so the kernels still see contiguous `&[f64]`.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    Boxed(&'a [TopicVector]),
    Paged { data: &'a PagedVec<f64>, dim: usize, len: usize },
}

/// The topics that can move a score of `paper` under `scoring`, ascending:
/// its non-zero topics when the scoring is
/// [sparse-safe](Scoring::sparse_safe), else all of them.
fn active_topics(paper: &[f64], scoring: Scoring) -> Vec<u32> {
    let all = 0..paper.len() as u32;
    if scoring.sparse_safe() {
        all.filter(|&t| paper[t as usize] > 0.0).collect()
    } else {
        all.collect()
    }
}

/// [`ScoreContext::topic_index`] over the rows of `ids` (`dim` topics
/// each): one scan of those rows, then a sort of each topic's positive
/// entries.
fn topic_index_over<'r>(
    ids: impl Iterator<Item = u32>,
    dim: usize,
    row: impl Fn(usize) -> &'r [f64],
) -> Vec<Vec<u32>> {
    let mut lists: Vec<Vec<(f64, u32)>> = vec![Vec::new(); dim];
    for r in ids {
        for (list, &e) in lists.iter_mut().zip(row(r as usize)) {
            if e > 0.0 {
                list.push((e, r));
            }
        }
    }
    lists
        .into_iter()
        .map(|mut list| {
            list.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            list.into_iter().map(|(_, r)| r).collect()
        })
        .collect()
}

/// A single-paper reviewer-selection view: the common substrate the exact
/// JRA solvers run on, whether fed from a legacy
/// [`JraProblem`](crate::jra::JraProblem) or a [`ScoreContext`].
#[derive(Debug, Clone)]
pub struct JraView<'a> {
    /// The paper's topic weights.
    pub paper: &'a [f64],
    /// `Σ_t paper[t]`.
    pub total: f64,
    /// `1/total`, or 0 for a zero paper.
    pub inv_total: f64,
    rows: Rows<'a>,
    /// The context's memoized topic index, if the rows are a context's
    /// (see [`JraView::topic_index`]).
    index: Option<&'a std::sync::OnceLock<Vec<Vec<u32>>>>,
    /// See [`JraView::active_topics`].
    active: Cow<'a, [u32]>,
    /// Conflicted / unavailable candidates.
    pub forbidden: Vec<bool>,
    /// Group size `δp`.
    pub delta_p: usize,
    /// Scoring function.
    pub scoring: Scoring,
}

impl<'a> JraView<'a> {
    /// View over boxed legacy vectors (the reference path).
    pub fn from_boxed(
        paper: &'a TopicVector,
        reviewers: &'a [TopicVector],
        forbidden: Vec<bool>,
        delta_p: usize,
        scoring: Scoring,
    ) -> Self {
        let total = paper.total();
        Self {
            paper: paper.as_slice(),
            total,
            inv_total: if total > 0.0 { 1.0 / total } else { 0.0 },
            rows: Rows::Boxed(reviewers),
            index: None,
            active: Cow::Owned(active_topics(paper.as_slice(), scoring)),
            forbidden,
            delta_p,
            scoring,
        }
    }

    /// Candidate count (including forbidden entries).
    #[inline]
    pub fn num_reviewers(&self) -> usize {
        match self.rows {
            Rows::Boxed(v) => v.len(),
            Rows::Paged { len, .. } => len,
        }
    }

    /// Reviewer `r`'s expertise row.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        match self.rows {
            Rows::Boxed(v) => v[r].as_slice(),
            Rows::Paged { data, dim, .. } => data.slice(r * dim, dim),
        }
    }

    /// The topics that can contribute to a score, ascending: the paper's
    /// non-zero topics under a [sparse-safe](Scoring::sparse_safe) scoring,
    /// all `T` under reviewer coverage. Every other topic's term in a gain,
    /// bound or score sum is a zero, and adding a zero to a non-negative
    /// sum changes no bit, so kernels that iterate only these topics are
    /// bit-identical to the dense loops (the same fact
    /// [`GainTable`](super::GainTable)'s sparse kernels rely on).
    #[inline]
    pub fn active_topics(&self) -> &[u32] {
        &self.active
    }

    /// Number of non-forbidden candidates.
    pub fn num_feasible(&self) -> usize {
        self.forbidden.iter().filter(|f| !**f).count()
    }

    /// The topic → reviewers index over this view's rows, in
    /// [`ScoreContext::topic_index`]'s order: borrowed from the context
    /// (built there on first use) when the rows are a context's, derived
    /// per call over boxed rows.
    pub(crate) fn topic_index(&self) -> Cow<'a, [Vec<u32>]> {
        let all = 0..self.num_reviewers() as u32;
        let build = || topic_index_over(all, self.paper.len(), |r| self.row(r));
        match self.index {
            Some(cell) => Cow::Borrowed(cell.get_or_init(build)),
            None => Cow::Owned(build()),
        }
    }

    /// The topic index as a search over `pool` (ascending ids) walks it:
    /// the context's index, whose outsiders the search skips, when it is
    /// built and holds no more entries than the pool's rows have topics;
    /// otherwise the index of the pool's own rows — an `O(|pool|·T)` scan
    /// and a sort of their positive entries, cheaper for a small pool than
    /// walking the whole index past every outsider.
    pub(crate) fn pool_topic_index(&self, pool: &[u32]) -> Cow<'a, [Vec<u32>]> {
        match self.index.and_then(|cell| cell.get()) {
            Some(index)
                if index.iter().map(Vec::len).sum::<usize>() <= pool.len() * self.paper.len() =>
            {
                Cow::Borrowed(index)
            }
            _ => Cow::Owned(topic_index_over(pool.iter().copied(), self.paper.len(), |r| {
                self.row(r)
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;

    #[test]
    fn flat_rows_match_boxed_vectors() {
        let inst = random_instance(6, 5, 4, 2, 9);
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        for r in 0..5 {
            assert_eq!(ctx.reviewer_row(r), inst.reviewer(r).as_slice());
        }
        for p in 0..6 {
            assert_eq!(ctx.paper_row(p), inst.paper(p).as_slice());
            assert_eq!(ctx.paper_total(p), inst.paper(p).total());
            let (idx, val) = ctx.paper_sparse(p);
            for (&t, &w) in idx.iter().zip(val) {
                assert_eq!(inst.paper(p)[t as usize], w);
            }
        }
    }

    #[test]
    fn pair_scores_bit_identical_for_all_scorings() {
        let inst = random_instance(7, 6, 5, 2, 3);
        for scoring in Scoring::ALL {
            let ctx = ScoreContext::new(&inst, scoring);
            let m = ctx.pair_matrix();
            let legacy = PairMatrix::from_instance(&inst, scoring);
            for p in 0..7 {
                for r in 0..6 {
                    let want = scoring.pair_score(inst.reviewer(r), inst.paper(p));
                    // Bit-identical, not approximately equal.
                    assert_eq!(ctx.pair_score(r, p).to_bits(), want.to_bits());
                    assert_eq!(m.get(r, p).to_bits(), want.to_bits());
                    assert_eq!(legacy.get(r, p).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn incremental_mutations_match_rebuild_bitwise() {
        let inst = random_instance(3, 4, 5, 1, 13);
        for scoring in Scoring::ALL {
            let mut ctx = ScoreContext::new(&inst, scoring).into_owned();
            // Warm the caches so invalidation is exercised.
            let _ = ctx.pair_matrix();
            let _ = ctx.auto_candidates();
            let extra_r = inst.reviewer(0).scaled(0.5);
            let extra_p = inst.paper(1).scaled(2.0);
            let r = ctx.push_reviewer(None, extra_r.clone()).unwrap();
            let p = ctx.push_paper(None, extra_p.clone()).unwrap();
            ctx.set_reviewer_row(1, extra_r.clone()).unwrap();
            ctx.add_coi(r, p);

            let mut want = inst.clone();
            want.push_reviewer(None, extra_r.clone()).unwrap();
            want.push_paper(None, extra_p.clone()).unwrap();
            want.set_reviewer_vector(1, extra_r.clone()).unwrap();
            want.add_coi(r, p);
            let rebuilt = ScoreContext::new(&want, scoring);

            assert_eq!(ctx.num_papers(), rebuilt.num_papers());
            assert_eq!(ctx.num_reviewers(), rebuilt.num_reviewers());
            for q in 0..ctx.num_papers() {
                assert_eq!(ctx.paper_row(q), rebuilt.paper_row(q));
                assert_eq!(ctx.paper_total(q).to_bits(), rebuilt.paper_total(q).to_bits());
                assert_eq!(ctx.paper_inv_total(q).to_bits(), rebuilt.paper_inv_total(q).to_bits());
                assert_eq!(ctx.paper_sparse(q), rebuilt.paper_sparse(q));
                for c in 0..ctx.num_reviewers() {
                    assert_eq!(
                        ctx.pair_score(c, q).to_bits(),
                        rebuilt.pair_score(c, q).to_bits(),
                        "{scoring:?} pair ({c},{q})"
                    );
                }
            }
            assert!(ctx.instance().is_coi(r, p));
            // The invalidated pair cache rebuilds to the new shape.
            assert_eq!(ctx.pair_matrix().num_papers(), 4);
            assert_eq!(ctx.pair_matrix().num_reviewers(), 5);
        }
    }

    #[test]
    fn clone_for_update_shares_pages_until_written() {
        let inst = random_instance(40, 60, 8, 2, 21);
        let base = ScoreContext::new(&inst, Scoring::WeightedCoverage).into_owned();
        let mut edited = base.clone_for_update();
        assert_eq!(edited.shared_pages_with(&base), base.num_pages());
        assert_eq!(edited.memory_bytes(), base.memory_bytes());

        let patch = inst.reviewer(7).scaled(0.5);
        edited.set_reviewer_row(7, patch.clone()).unwrap();
        // dim 8 => thousands of rows per 64 KiB page: everything still fits
        // in one reviewer page, so exactly one page was copied.
        assert_eq!(edited.shared_pages_with(&base), base.num_pages() - 1);
        // The base snapshot is frozen.
        assert_eq!(base.reviewer_row(7), inst.reviewer(7).as_slice());
        assert_eq!(edited.reviewer_row(7), patch.as_slice());
        assert_eq!(base.reviewer_row(3), edited.reviewer_row(3));

        // Unsharing reconstructs the flat full-copy layout bit-identically.
        let mut flat = edited.clone_for_update();
        flat.unshare_pages();
        assert_eq!(flat.shared_pages_with(&edited), 0);
        for r in 0..flat.num_reviewers() {
            assert_eq!(flat.reviewer_row(r), edited.reviewer_row(r));
        }
    }

    #[test]
    fn sparse_view_skips_zero_topics() {
        use crate::topic::TopicVector;
        let papers = vec![TopicVector::from_sparse(6, &[(1, 0.7), (4, 0.3)])];
        let reviewers = vec![
            TopicVector::new(vec![0.2, 0.3, 0.1, 0.1, 0.2, 0.1]),
            TopicVector::new(vec![0.0, 0.9, 0.0, 0.0, 0.1, 0.0]),
        ];
        let inst = Instance::new(papers, reviewers, 1, 1).unwrap();
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let (idx, _) = ctx.paper_sparse(0);
        assert_eq!(idx, &[1, 4]);
        for r in 0..2 {
            let want = Scoring::WeightedCoverage.pair_score(inst.reviewer(r), inst.paper(0));
            assert_eq!(ctx.pair_score(r, 0).to_bits(), want.to_bits());
        }
        // Reviewer coverage is not sparse-safe and must use the dense path.
        let dense_ctx = ScoreContext::new(&inst, Scoring::ReviewerCoverage);
        assert!(!dense_ctx.sparse());
        for r in 0..2 {
            let want = Scoring::ReviewerCoverage.pair_score(inst.reviewer(r), inst.paper(0));
            assert_eq!(dense_ctx.pair_score(r, 0).to_bits(), want.to_bits());
        }
    }
}
