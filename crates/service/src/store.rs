//! The versioned store: epoch-numbered copy-on-write snapshots over an
//! owned [`ScoreContext`] + [`CandidateSet`], with incremental instance
//! updates.
//!
//! # Snapshot / epoch model
//!
//! A [`Snapshot`] is an immutable, self-contained view of one instance
//! version: the owned flat scoring context, its untruncated (Auto)
//! candidate set, and the two inverted indexes (topic → reviewers,
//! topic → papers) that make incremental maintenance cheap. The topic →
//! reviewers index lives in the context ([`ScoreContext::topic_index`]),
//! ordered the way exact JRA walks it, so every query borrows it. Snapshots are
//! shared as `Arc<Snapshot>`; readers (JRA batches, CRA solves) **admit at
//! an epoch** by cloning the `Arc` and then run entirely lock-free against
//! that version — a long CRA solve never blocks updates, it just keeps an
//! old epoch alive until it finishes.
//!
//! [`VersionedStore::apply`] is the write path: it clones the current
//! snapshot's state and patches it incrementally. The clone is **paged**
//! (`wgrap_core::engine::pages`): the flat matrices and candidate rows are
//! `Arc`-shared slabs, so cloning bumps refcounts and the patch then
//! copy-on-writes only the pages the batch touches — a single-row update
//! copies one ~64 KiB matrix page plus the candidate rows the reviewer
//! appears in, never the whole O(R·T + nnz) state. The result publishes
//! under `epoch + 1`; untouched pages stay physically shared across
//! epochs, which makes retaining historical snapshots (time-travel reads)
//! cost only the per-epoch deltas. A batch of [`Update`]s is atomic: any
//! failure discards the scratch copy and the published state is unchanged.
//! Per-update page accounting (cloned vs shared pages, snapshot bytes) is
//! reported through [`VersionedStore::stats`].
//!
//! # Build / publish split (non-blocking admissions)
//!
//! The store is internally synchronized and its write path is **two-phase**:
//! [`VersionedStore::begin_update`] performs the whole copy-on-write build
//! (single-digit milliseconds at P=5k/R=10k) while holding only a *builder gate*
//! that serializes writers with each other; [`PendingUpdate::publish`] then
//! swaps the `Arc` under the snapshot lock — a pointer store. Readers
//! ([`VersionedStore::snapshot`], i.e. every `jra`/`batch`/`assign`
//! admission) share that lock only with the swap, never with the build, so
//! a concurrent admission waits at most an `Arc` clone even while an update
//! batch is mid-build. [`VersionedStore::apply`] is the one-call spelling
//! (`begin_update` + `publish`), and [`VersionedStore::stats`] reports the
//! measured build-vs-publish timings so the split is observable from the
//! `stats` op.
//!
//! # Incremental updates, bit-identically
//!
//! Each [`Update`] patches exactly the state it touches:
//!
//! * [`Update::AddPaper`] extends the flat paper matrix and the CSR view
//!   ([`ScoreContext::push_paper`]) and computes the one new candidate row
//!   through the topic → reviewers inverted index — reviewers with no
//!   overlap are never even scored.
//! * [`Update::AddReviewer`] appends one expertise row and splices the new
//!   reviewer into exactly the candidate lists of papers it scores
//!   positively on (found through topic → papers); unaffected papers'
//!   entries are copied verbatim, never re-scored. The context inserts the
//!   reviewer into the topic → reviewers index at its ordered positions.
//! * [`Update::RetireReviewer`] zeroes the expertise row (every pair score
//!   involving the reviewer becomes exactly `0.0`, so no solver prefers
//!   them over any positive candidate — ids stay stable) and removes the
//!   reviewer from every candidate list.
//! * [`Update::PatchScores`] replaces an expertise row and re-scores only
//!   papers overlapping the old or new topic support; the context moves the
//!   reviewer's index entries on every topic whose value changed.
//!
//! The contract — certified by this crate's `apply ≡ rebuild` proptests
//! across all four scorings — is that after **any** update sequence the
//! snapshot is **bit-identical** to [`Snapshot::build`] on the final
//! instance: same flat arrays, same CSR, same candidate rows, score for
//! score. Updates are therefore invisible to every solver guarantee the
//! engine makes.

use crate::durable::Durability;
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry};
use crate::{Error, Result};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};
use wgrap_core::engine::{CandidateSet, ScoreContext};
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;

/// One incremental change to the served instance.
#[derive(Debug, Clone)]
pub enum Update {
    /// Add a paper to the standing instance (it becomes queryable by id and
    /// participates in future `assign` runs). Fails if capacity
    /// `R·δr ≥ (P+1)·δp` would break.
    AddPaper {
        /// Optional display name.
        name: Option<String>,
        /// The paper's topic vector (instance dimension).
        topics: TopicVector,
        /// Conflicted reviewer ids.
        coi: Vec<u32>,
    },
    /// Add a reviewer to the standing pool.
    AddReviewer {
        /// Optional display name.
        name: Option<String>,
        /// The reviewer's expertise vector (instance dimension).
        expertise: TopicVector,
    },
    /// Retire a reviewer: their expertise is zeroed (ids stay stable, every
    /// pair score becomes exactly `0.0`) and they leave every candidate
    /// list.
    RetireReviewer {
        /// The reviewer to retire.
        reviewer: u32,
    },
    /// Replace a reviewer's expertise vector (profile re-scoring).
    PatchScores {
        /// The reviewer to patch.
        reviewer: u32,
        /// The new expertise vector (instance dimension).
        expertise: TopicVector,
    },
}

/// An immutable instance version: owned context + candidate set + the
/// inverted indexes incremental maintenance runs on. See the module docs
/// for the epoch model.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    /// Owns the topic → reviewers index too ([`ScoreContext::topic_index`]).
    ctx: ScoreContext<'static>,
    /// topic → papers with positive weight, ids ascending.
    topic_papers: Vec<Vec<u32>>,
}

impl Snapshot {
    /// Build epoch-0 state from scratch — also the reference the
    /// incremental path is proptested bit-identical against.
    pub fn build(inst: Instance, scoring: Scoring, seed: u64) -> Self {
        let mut ctx = ScoreContext::from_owned(inst, scoring).with_seed(seed);
        // The context's one topic index serves the candidate build, every
        // JRA query and the update probes; the built Auto set is installed
        // now so every clone carries it and `apply` can patch instead of
        // rebuild.
        ctx.topic_index();
        let cands = CandidateSet::build(&ctx, None);
        ctx.install_auto_candidates(cands);
        let mut topic_papers = vec![Vec::new(); ctx.num_topics()];
        for p in 0..ctx.num_papers() {
            let (idx, _) = ctx.paper_sparse(p);
            for &t in idx {
                topic_papers[t as usize].push(p as u32);
            }
        }
        Self { epoch: 0, ctx, topic_papers }
    }

    /// [`Snapshot::build`] published under an explicit epoch — recovery
    /// rebuilds a checkpointed instance and must resume the epoch sequence
    /// where the previous process left it, not restart at 0.
    pub(crate) fn build_at(inst: Instance, scoring: Scoring, seed: u64, epoch: u64) -> Self {
        let mut snap = Self::build(inst, scoring, seed);
        snap.epoch = epoch;
        snap
    }

    /// The epoch this snapshot was published under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The owned scoring context (solvers run directly on this).
    pub fn ctx(&self) -> &ScoreContext<'static> {
        &self.ctx
    }

    /// The instance behind the context.
    pub fn instance(&self) -> &Instance {
        self.ctx.instance()
    }

    /// The maintained untruncated (Auto) candidate set.
    pub fn candidates(&self) -> &CandidateSet {
        self.ctx.auto_candidates()
    }

    /// The maintained inverted indexes `(topic → reviewers,
    /// topic → papers)` — exposed so the equivalence proptests can compare
    /// the *entire* incremental state against a rebuild, not just the
    /// solver-visible parts.
    #[doc(hidden)]
    pub fn indexes(&self) -> (&[Vec<u32>], &[Vec<u32>]) {
        (self.ctx.topic_index(), &self.topic_papers)
    }

    /// The certified candidate pool for a paper that is *not* part of the
    /// instance (an ad-hoc JRA query): every reviewer with positive pair
    /// score against `paper`, as `(id, pair score)` ascending by id — the
    /// scores are computed once here, summed over the paper's non-zero
    /// topics exactly as [`ScoreContext::pair_score`] sums a stored paper's
    /// CSR row, so `TopK` consumers rank without a second scoring pass.
    /// Probes the shared topic → reviewers index, so only overlapping
    /// reviewers are scored. `None` when the scoring is not sparse-safe
    /// (zero-overlap reviewers can score positively, so no index-driven
    /// pool exists — callers fall back to the dense scan).
    pub fn candidate_pool_adhoc(&self, paper: &TopicVector) -> Option<Vec<(u32, f64)>> {
        if !self.ctx.sparse() {
            return None;
        }
        let total = paper.total();
        if total <= 0.0 {
            return Some(Vec::new());
        }
        let scoring = self.ctx.scoring();
        let support: Vec<(usize, f64)> =
            paper.as_slice().iter().copied().enumerate().filter(|&(_, w)| w > 0.0).collect();
        let mut hits: Vec<u32> =
            support.iter().flat_map(|&(t, _)| self.ctx.topic_index()[t].iter().copied()).collect();
        hits.sort_unstable();
        hits.dedup();
        Some(
            hits.into_iter()
                .filter_map(|r| {
                    let row = self.ctx.reviewer_row(r as usize);
                    let mut raw = 0.0;
                    for &(t, w) in &support {
                        raw += scoring.topic_contribution(row[t], w);
                    }
                    let s = raw / total;
                    (s > 0.0).then_some((r, s))
                })
                .collect(),
        )
    }

    /// Content bytes this snapshot holds: paged matrices, CSR, candidate
    /// rows and the inverted indexes. Length-derived and deterministic
    /// (shared pages count at full size — see
    /// [`page_delta`](Snapshot::page_delta) for what is actually new per
    /// epoch), so it is safe to surface in golden-tested protocol output.
    pub fn memory_bytes(&self) -> usize {
        let index_bytes = |idx: &[Vec<u32>]| {
            idx.iter().map(|v| v.len() * std::mem::size_of::<u32>()).sum::<usize>()
        };
        self.ctx.memory_bytes()
            + self.candidates().memory_bytes()
            + index_bytes(self.ctx.topic_index())
            + index_bytes(&self.topic_papers)
    }

    /// `(pages cloned, pages shared)` of this snapshot relative to `prev`:
    /// matrix pages plus candidate row slabs, compared by physical identity
    /// (`Arc::ptr_eq`). "Cloned" counts pages this snapshot owns privately
    /// — including rows appended beyond `prev`'s length.
    pub fn page_delta(&self, prev: &Snapshot) -> (u64, u64) {
        let total = (self.ctx.num_pages() + self.candidates().num_pages()) as u64;
        let shared = (self.ctx.shared_pages_with(&prev.ctx)
            + self.candidates().shared_rows_with(prev.candidates())) as u64;
        (total - shared, shared)
    }

    /// Every page's `(address, content bytes)` identity — the retention
    /// benches dedupe these across many retained epochs to measure what
    /// structural sharing actually saves.
    #[doc(hidden)]
    pub fn page_identities(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.ctx.page_identities(&mut out);
        self.candidates().page_identities(&mut out);
        out
    }
}

/// Cumulative write-path accounting: how long builds take vs how long the
/// published swap takes (the gap is what the build/publish split buys
/// concurrent admissions), plus per-update page metrics that make the
/// structural sharing observable: how many pages each published epoch
/// cloned vs shared with its predecessor, and how big snapshots are.
///
/// The page counters and byte sizes are deterministic (derived from update
/// contents and lengths, never wall clocks), so protocol v2 surfaces them
/// unconditionally in golden-tested `stats` responses.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Published update batches.
    pub batches: u64,
    /// Individual [`Update`]s across all published batches.
    pub updates: u64,
    /// Wall time of the most recent copy-on-write build.
    pub last_build: Duration,
    /// Total wall time spent in copy-on-write builds.
    pub total_build: Duration,
    /// Wall time of the most recent publish (`Arc` swap under the lock).
    pub last_publish: Duration,
    /// Total wall time spent publishing.
    pub total_publish: Duration,
    /// Pages (matrix pages + candidate row slabs) the most recent batch
    /// copied or newly created.
    pub last_pages_cloned: u64,
    /// Pages the most recent batch left physically shared with the
    /// previous epoch.
    pub last_pages_shared: u64,
    /// Total pages cloned across all published batches.
    pub total_pages_cloned: u64,
    /// Total pages shared across all published batches.
    pub total_pages_shared: u64,
    /// [`Snapshot::memory_bytes`] of the most recently published snapshot.
    pub last_snapshot_bytes: u64,
    /// Largest [`Snapshot::memory_bytes`] ever published.
    pub peak_snapshot_bytes: u64,
}

/// The mutable front of the snapshot chain: holds the current
/// `Arc<Snapshot>` and applies updates copy-on-write, build split from
/// publish. Internally synchronized — `&self` everywhere, share it behind a
/// plain `Arc`. See the module docs.
#[derive(Debug)]
pub struct VersionedStore {
    /// Readers hold this only for an `Arc` clone; publish holds it only for
    /// the pointer swap.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers with each other across the whole build+publish
    /// window (held by [`PendingUpdate`]), so epochs are assigned in
    /// publish order and builds never race.
    builder: Mutex<()>,
    stats: Mutex<StoreStats>,
    /// Registry handles, present once a [`Telemetry`] is attached (the
    /// [`Service`](crate::api::Service) attaches its registry; standalone
    /// stores record nothing). Updated alongside [`StoreStats`] at publish
    /// time, so the `stats` op and the metrics endpoint always agree.
    met: Option<StoreMetrics>,
    /// The durability sink, present when the store was recovered from a
    /// `--data-dir` ([`crate::durable::recover`]). When set, every publish
    /// appends + fsyncs its batch to the WAL *before* the snapshot swap and
    /// cuts a checkpoint on the configured cadence. `None` means the
    /// durable path simply does not exist — in-memory stores pay nothing.
    durable: Option<Durability>,
}

/// Pre-resolved write-path series of the telemetry registry.
#[derive(Debug)]
struct StoreMetrics {
    batches: Arc<Counter>,
    updates: Arc<Counter>,
    pages_cloned: Arc<Counter>,
    pages_shared: Arc<Counter>,
    epoch: Arc<Gauge>,
    snapshot_bytes: Arc<Gauge>,
    peak_snapshot_bytes: Arc<Gauge>,
    build: Arc<Histogram>,
    publish: Arc<Histogram>,
}

impl VersionedStore {
    /// Serve `inst` under `scoring`; `seed` feeds stochastic CRA solvers.
    pub fn new(inst: Instance, scoring: Scoring, seed: u64) -> Self {
        Self::from_snapshot(Snapshot::build(inst, scoring, seed))
    }

    /// Wrap an already-built snapshot (the recovery path: a rebuilt
    /// checkpoint at its original epoch). Stats start from zero — counters
    /// never leak across a restart.
    pub(crate) fn from_snapshot(snapshot: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(snapshot)),
            builder: Mutex::new(()),
            stats: Mutex::new(StoreStats::default()),
            met: None,
            durable: None,
        }
    }

    /// Attach the durability sink (recovery does this after WAL replay, so
    /// replayed batches are never re-logged).
    pub(crate) fn attach_durability(&mut self, durable: Durability) {
        self.durable = Some(durable);
    }

    /// Zero the stats counters (recovery calls this after replay: the
    /// replayed batches belong to past sessions, not this one).
    pub(crate) fn reset_stats(&self) {
        *self.stats.lock().expect("store stats lock") = StoreStats::default();
    }

    /// The durability sink, if this store persists to a data dir.
    pub fn durability(&self) -> Option<&Durability> {
        self.durable.as_ref()
    }

    /// Register the write path's series in `telemetry` and record into
    /// them from now on: `store_batches_total`, `store_updates_total`,
    /// `store_pages_{cloned,shared}_total`, the `store_epoch` /
    /// `store_snapshot_bytes` / `store_peak_snapshot_bytes` gauges, and
    /// the `store_{build,publish}_seconds` histograms.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let met = StoreMetrics {
            batches: telemetry.counter("store_batches_total"),
            updates: telemetry.counter("store_updates_total"),
            pages_cloned: telemetry.counter("store_pages_cloned_total"),
            pages_shared: telemetry.counter("store_pages_shared_total"),
            epoch: telemetry.gauge("store_epoch"),
            snapshot_bytes: telemetry.gauge("store_snapshot_bytes"),
            peak_snapshot_bytes: telemetry.gauge("store_peak_snapshot_bytes"),
            build: telemetry.histogram("store_build_seconds"),
            publish: telemetry.histogram("store_publish_seconds"),
        };
        let current = self.snapshot();
        met.epoch.set(current.epoch() as i64);
        met.snapshot_bytes.set(current.memory_bytes() as i64);
        met.peak_snapshot_bytes.set_max(current.memory_bytes() as i64);
        self.met = Some(met);
        if let Some(durable) = &mut self.durable {
            durable.attach_telemetry(telemetry);
        }
    }

    /// Admit at the current epoch: an `Arc` to the live snapshot, safe to
    /// hold across long solves while updates continue. Never waits on a
    /// build — only on an in-flight publish's pointer swap.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("store snapshot lock"))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Write-path timing counters (build vs publish).
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("store stats lock")
    }

    /// Apply a batch of updates atomically and publish `epoch + 1`.
    /// Returns the new epoch. On error nothing is published: readers keep
    /// seeing the old epoch and the scratch copy is dropped. An empty batch
    /// is a no-op: no copy, no new epoch.
    ///
    /// One-call spelling of [`begin_update`](VersionedStore::begin_update) +
    /// [`publish`](PendingUpdate::publish).
    pub fn apply(&self, updates: &[Update]) -> Result<u64> {
        self.begin_update(updates)?.publish()
    }

    /// Phase one of the write path: perform the whole copy-on-write build
    /// off the read path. Holds the builder gate (serializing only against
    /// other writers) until the returned [`PendingUpdate`] is published or
    /// dropped; concurrent [`snapshot`](VersionedStore::snapshot) admissions
    /// proceed untouched for the entire build. Dropping the pending update
    /// abandons the build: nothing is published.
    pub fn begin_update(&self, updates: &[Update]) -> Result<PendingUpdate<'_>> {
        self.begin_update_hooked(updates, || ())
    }

    /// [`begin_update`](VersionedStore::begin_update) with a mid-build hook,
    /// called after the copy-on-write clone while the builder gate is held —
    /// the deterministic window the concurrent-admission tests park a build
    /// in to prove admissions never wait on it.
    #[doc(hidden)]
    pub fn begin_update_hooked(
        &self,
        updates: &[Update],
        mid_build: impl FnOnce(),
    ) -> Result<PendingUpdate<'_>> {
        let gate = self.builder.lock().expect("store builder lock");
        if updates.is_empty() {
            mid_build();
            return Ok(PendingUpdate {
                store: self,
                _gate: gate,
                built: None,
                logged: None,
                build: Duration::ZERO,
                applied: 0,
                pages_cloned: 0,
                pages_shared: 0,
                snapshot_bytes: 0,
            });
        }
        let start = Instant::now();
        let cur = self.snapshot();
        // The copy in copy-on-write: a paged clone — every matrix page and
        // candidate row slab is Arc-shared with `cur`, and the patches below
        // copy only what they touch. The cached dense pair matrix never
        // carries over (a reader may have built one through the shared
        // snapshot; mutation would drop it unused); the topic index does,
        // and the context's row mutations keep it in order.
        let mut ctx = cur.ctx.clone_for_update();
        let mut cands =
            ctx.take_auto_candidates().unwrap_or_else(|| CandidateSet::build(&ctx, None));
        let mut topic_papers = cur.topic_papers.clone();
        mid_build();
        for update in updates {
            apply_one(&mut ctx, &mut cands, &mut topic_papers, update)?;
        }
        ctx.install_auto_candidates(cands);
        let epoch = cur.epoch + 1;
        let built = Snapshot { epoch, ctx, topic_papers };
        let (pages_cloned, pages_shared) = built.page_delta(&cur);
        let snapshot_bytes = built.memory_bytes() as u64;
        Ok(PendingUpdate {
            store: self,
            _gate: gate,
            built: Some(built),
            // The WAL logs the batch verbatim at publish time; the clone is
            // only taken when a durable sink exists.
            logged: self.durable.is_some().then(|| updates.to_vec()),
            build: start.elapsed(),
            applied: updates.len(),
            pages_cloned,
            pages_shared,
            snapshot_bytes,
        })
    }
}

/// A fully built but not yet visible snapshot — phase two of the write
/// path. [`publish`](PendingUpdate::publish) makes it the store's current
/// epoch with a bare `Arc` swap; dropping it instead abandons the build
/// with nothing published. Holds the store's builder gate, so at most one
/// pending update exists per store at a time.
#[must_use = "a pending update publishes nothing until .publish() is called"]
#[derive(Debug)]
pub struct PendingUpdate<'a> {
    store: &'a VersionedStore,
    _gate: MutexGuard<'a, ()>,
    built: Option<Snapshot>,
    /// The batch itself, kept only when the store is durable — publish
    /// appends it to the WAL before the swap.
    logged: Option<Vec<Update>>,
    build: Duration,
    applied: usize,
    pages_cloned: u64,
    pages_shared: u64,
    snapshot_bytes: u64,
}

impl PendingUpdate<'_> {
    /// The epoch [`publish`](PendingUpdate::publish) will return: `current
    /// + 1`, or the unchanged current epoch for an empty (no-op) batch.
    pub fn epoch(&self) -> u64 {
        match &self.built {
            Some(s) => s.epoch,
            None => self.store.epoch(),
        }
    }

    /// Wall time the copy-on-write build took (off the read path).
    pub fn build_time(&self) -> Duration {
        self.build
    }

    /// The snapshot [`publish`](PendingUpdate::publish) will install
    /// (`None` for an empty, no-op batch). Lets callers read the
    /// post-update state **consistently with the epoch they are about to
    /// publish** — a fresh [`VersionedStore::snapshot`] taken after
    /// `publish` returns may already belong to a later writer.
    pub fn built(&self) -> Option<&Snapshot> {
        self.built.as_ref()
    }

    /// Make the built snapshot current. This is the only write-path step
    /// readers can ever wait on, and it is a pointer swap.
    ///
    /// On a durable store the batch is appended + fsync'd to the WAL
    /// *first*: an `Err` means nothing was published (readers keep the old
    /// epoch, the gate is released on drop) and nothing was acknowledged.
    /// A checkpoint on the configured cadence runs after the swap, still
    /// under the builder gate; a checkpoint failure is reported to stderr
    /// but does not fail the already-visible publish — every frame stays
    /// in the WAL, so no durability is lost.
    pub fn publish(self) -> Result<u64> {
        let Some(snapshot) = self.built else {
            return Ok(self.store.epoch());
        };
        let epoch = snapshot.epoch;
        if let (Some(durable), Some(updates)) = (&self.store.durable, &self.logged) {
            durable.log_batch(epoch, updates)?;
        }
        let start = Instant::now();
        let published = Arc::new(snapshot);
        {
            let mut cur = self.store.current.write().expect("store publish lock");
            *cur = Arc::clone(&published);
        }
        let publish = start.elapsed();
        let mut stats = self.store.stats.lock().expect("store stats lock");
        stats.batches += 1;
        stats.updates += self.applied as u64;
        stats.last_build = self.build;
        stats.total_build += self.build;
        stats.last_publish = publish;
        stats.total_publish += publish;
        stats.last_pages_cloned = self.pages_cloned;
        stats.last_pages_shared = self.pages_shared;
        stats.total_pages_cloned += self.pages_cloned;
        stats.total_pages_shared += self.pages_shared;
        stats.last_snapshot_bytes = self.snapshot_bytes;
        stats.peak_snapshot_bytes = stats.peak_snapshot_bytes.max(self.snapshot_bytes);
        if let Some(met) = &self.store.met {
            met.batches.inc();
            met.updates.add(self.applied as u64);
            met.pages_cloned.add(self.pages_cloned);
            met.pages_shared.add(self.pages_shared);
            met.epoch.set(epoch as i64);
            met.snapshot_bytes.set(self.snapshot_bytes as i64);
            met.peak_snapshot_bytes.set_max(self.snapshot_bytes as i64);
            met.build.observe_duration(self.build);
            met.publish.observe_duration(publish);
        }
        drop(stats);
        if let Some(durable) = &self.store.durable {
            if durable.should_checkpoint(epoch) {
                if let Err(e) = durable.checkpoint(&published) {
                    eprintln!("wgrap: {e} (state remains safe in the WAL)");
                }
            }
        }
        Ok(epoch)
    }
}

fn apply_one(
    ctx: &mut ScoreContext<'static>,
    cands: &mut CandidateSet,
    topic_papers: &mut [Vec<u32>],
    update: &Update,
) -> Result<()> {
    match update {
        Update::AddPaper { name, topics, coi } => {
            for &r in coi {
                if r as usize >= ctx.num_reviewers() {
                    return Err(Error::InvalidInstance(format!(
                        "coi reviewer {r} out of range (R = {})",
                        ctx.num_reviewers()
                    )));
                }
            }
            let p = ctx.push_paper(name.clone(), topics.clone())?;
            // The new candidate row, probed through topic → reviewers for
            // sparse-safe scorings — bit-identical to what a full
            // `CandidateSet::build` computes for this paper.
            let mut row: Vec<(u32, f64)> = Vec::new();
            if ctx.sparse() {
                let (tidx, _) = ctx.paper_sparse(p);
                let topic_reviewers = ctx.topic_index();
                let mut hits: Vec<u32> = tidx
                    .iter()
                    .flat_map(|&t| topic_reviewers[t as usize].iter().copied())
                    .collect();
                hits.sort_unstable();
                hits.dedup();
                for r in hits {
                    let s = ctx.pair_score(r as usize, p);
                    if s > 0.0 {
                        row.push((r, s));
                    }
                }
            } else {
                for r in 0..ctx.num_reviewers() {
                    let s = ctx.pair_score(r, p);
                    if s > 0.0 {
                        row.push((r as u32, s));
                    }
                }
            }
            cands.append_paper(&row);
            let (tidx, _) = ctx.paper_sparse(p);
            for &t in tidx {
                topic_papers[t as usize].push(p as u32);
            }
            for &r in coi {
                ctx.add_coi(r as usize, p);
            }
        }
        Update::AddReviewer { name, expertise } => {
            let r = ctx.push_reviewer(name.clone(), expertise.clone())?;
            let scores = scores_against_papers(ctx, topic_papers, r, None);
            cands.patch_reviewer(r as u32, &scores);
        }
        Update::RetireReviewer { reviewer } => {
            let dim = ctx.num_topics();
            patch_reviewer_row(ctx, cands, topic_papers, *reviewer, TopicVector::zeros(dim))?;
        }
        Update::PatchScores { reviewer, expertise } => {
            patch_reviewer_row(ctx, cands, topic_papers, *reviewer, expertise.clone())?;
        }
    }
    Ok(())
}

/// Shared kernel of `RetireReviewer` / `PatchScores`: swap reviewer `r`'s
/// expertise row (the context re-sorts its topic index entries) and
/// re-score exactly the papers overlapping the old or new topic support.
fn patch_reviewer_row(
    ctx: &mut ScoreContext<'static>,
    cands: &mut CandidateSet,
    topic_papers: &[Vec<u32>],
    reviewer: u32,
    expertise: TopicVector,
) -> Result<()> {
    let r = reviewer as usize;
    if r >= ctx.num_reviewers() {
        return Err(Error::InvalidInstance(format!(
            "reviewer {r} out of range (R = {})",
            ctx.num_reviewers()
        )));
    }
    let old: Vec<f64> = ctx.reviewer_row(r).to_vec();
    ctx.set_reviewer_row(r, expertise)?;
    let scores = scores_against_papers(ctx, topic_papers, r, Some(&old));
    cands.patch_reviewer(reviewer, &scores);
    Ok(())
}

/// `(paper, pair score)` for every paper reviewer `r` now scores positive
/// on, ascending by paper id. For sparse-safe scorings only papers
/// overlapping the old or new topic support are probed (via
/// topic → papers); otherwise all papers are scanned. `old_row` is the
/// pre-patch expertise (None for a freshly appended reviewer).
fn scores_against_papers(
    ctx: &ScoreContext<'static>,
    topic_papers: &[Vec<u32>],
    r: usize,
    old_row: Option<&[f64]>,
) -> Vec<(u32, f64)> {
    let mut scores: Vec<(u32, f64)> = Vec::new();
    if ctx.sparse() {
        let row = ctx.reviewer_row(r);
        let mut affected: Vec<u32> = (0..ctx.num_topics())
            .filter(|&t| row[t] > 0.0 || old_row.is_some_and(|o| o[t] > 0.0))
            .flat_map(|t| topic_papers[t].iter().copied())
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for p in affected {
            let s = ctx.pair_score(r, p as usize);
            if s > 0.0 {
                scores.push((p, s));
            }
        }
    } else {
        for p in 0..ctx.num_papers() {
            let s = ctx.pair_score(r, p);
            if s > 0.0 {
                scores.push((p as u32, s));
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    fn base() -> Instance {
        Instance::new(
            vec![tv(&[0.5, 0.5, 0.0]), tv(&[1.0, 0.0, 0.0])],
            vec![tv(&[0.3, 0.7, 0.0]), tv(&[0.6, 0.4, 0.0]), tv(&[0.0, 0.0, 1.0])],
            1,
            2,
        )
        .unwrap()
    }

    use crate::testutil::{assert_snapshot_bit_eq, reference_apply};

    #[test]
    fn epochs_advance_and_old_snapshots_survive() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let before = store.snapshot();
        assert_eq!(before.epoch(), 0);
        let e = store
            .apply(&[Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) }])
            .unwrap();
        assert_eq!(e, 1);
        // The admitted snapshot still sees the old pool.
        assert_eq!(before.instance().num_reviewers(), 3);
        assert_eq!(store.snapshot().instance().num_reviewers(), 4);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let before = store.snapshot();
        assert_eq!(store.apply(&[]).unwrap(), 0);
        assert_eq!(store.epoch(), 0);
        // No copy was made: the published Arc is still the same snapshot.
        assert!(Arc::ptr_eq(&before, &store.snapshot()));
    }

    #[test]
    fn failed_batch_is_atomic() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let err = store.apply(&[
            Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) },
            Update::RetireReviewer { reviewer: 99 },
        ]);
        assert!(err.is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.snapshot().instance().num_reviewers(), 3);
    }

    #[test]
    fn add_paper_capacity_check() {
        // base: R=3, delta_r=2, delta_p=1 -> at most 6 papers.
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        for _ in 0..4 {
            store
                .apply(&[Update::AddPaper {
                    name: None,
                    topics: tv(&[0.2, 0.8, 0.0]),
                    coi: vec![],
                }])
                .unwrap();
        }
        let err = store.apply(&[Update::AddPaper {
            name: None,
            topics: tv(&[0.2, 0.8, 0.0]),
            coi: vec![],
        }]);
        assert!(err.is_err(), "7th paper must break R*delta_r >= P*delta_p");
    }

    #[test]
    fn update_sequence_matches_rebuild_for_all_scorings() {
        for scoring in Scoring::ALL {
            let updates = vec![
                Update::AddReviewer { name: Some("dave".into()), expertise: tv(&[0.2, 0.2, 0.6]) },
                Update::AddPaper {
                    name: Some("p-new".into()),
                    topics: tv(&[0.0, 0.4, 0.6]),
                    coi: vec![1],
                },
                Update::PatchScores { reviewer: 0, expertise: tv(&[0.0, 0.9, 0.1]) },
                Update::RetireReviewer { reviewer: 2 },
                Update::AddPaper { name: None, topics: tv(&[0.1, 0.0, 0.9]), coi: vec![] },
            ];
            let store = VersionedStore::new(base(), scoring, 7);
            let epoch = store.apply(&updates).unwrap();
            assert_eq!(epoch, 1);
            let want = reference_apply(&base(), scoring, 7, &updates).unwrap();
            assert_snapshot_bit_eq(&store.snapshot(), &want);
            // COIs carried over.
            let snap = store.snapshot();
            assert!(snap.instance().is_coi(1, 2));
            assert_eq!(snap.instance().paper_name(2), "p-new");
        }
    }

    #[test]
    fn begin_update_is_invisible_until_publish() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let before = store.snapshot();
        let pending = store
            .begin_update(&[Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) }])
            .unwrap();
        // Fully built, nothing published: readers still see epoch 0.
        assert_eq!(pending.epoch(), 1);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.snapshot().instance().num_reviewers(), 3);
        assert!(Arc::ptr_eq(&before, &store.snapshot()));
        assert_eq!(pending.publish().unwrap(), 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().instance().num_reviewers(), 4);
        let stats = store.stats();
        assert_eq!((stats.batches, stats.updates), (1, 1));
        assert!(stats.total_build >= stats.last_build);
    }

    #[test]
    fn dropped_pending_update_publishes_nothing() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let pending = store
            .begin_update(&[Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) }])
            .unwrap();
        drop(pending);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.stats().batches, 0);
        // The gate was released on drop: the next writer proceeds.
        assert_eq!(
            store
                .apply(&[Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) }])
                .unwrap(),
            1
        );
    }

    /// The acceptance-criteria scenario: a `jra` request is admitted and
    /// fully solved while an update batch is parked **mid-build**. Under the
    /// old design (build under the snapshot write lock) this test would
    /// deadlock; under the split it passes because admissions only ever
    /// share a lock with the publish swap.
    #[test]
    fn jra_admitted_while_update_is_mid_build() {
        use crate::api::{Answer, JraSpec, PaperRef, ServeOptions, Service, SolveRequest};
        use std::sync::mpsc;
        use wgrap_core::engine::PruningPolicy;

        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let service = Arc::new(Service::from_store(store, ServeOptions::default()));
        let (in_build_tx, in_build_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let pending = service
                    .store()
                    .begin_update_hooked(
                        &[Update::AddReviewer { name: None, expertise: tv(&[0.9, 0.1, 0.0]) }],
                        || {
                            in_build_tx.send(()).expect("test channel");
                            release_rx.recv().expect("test channel"); // park mid-build
                        },
                    )
                    .expect("update builds");
                pending.publish().expect("publish succeeds")
            })
        };
        in_build_rx.recv().expect("builder reached mid-build");
        // The build is parked right now. Admission + solve must complete.
        let request = SolveRequest::Jra(JraSpec {
            pruning: Some(PruningPolicy::Auto),
            ..JraSpec::new(PaperRef::Id(0))
        });
        let outcome = service.execute(&request).expect("executes");
        assert_eq!(outcome.diag.epoch, 0, "admitted at the still-current epoch");
        let Answer::Jra(answers) = &outcome.answer else { unreachable!("a jra request") };
        assert!(answers[0].is_ok(), "jra solved during the in-flight build");
        release_tx.send(()).expect("test channel");
        assert_eq!(builder.join().expect("builder thread"), 1);
        assert_eq!(service.store().epoch(), 1);
        assert_eq!(service.store().stats().batches, 1);
    }

    #[test]
    fn page_metrics_track_structural_sharing() {
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let before = store.snapshot();
        store
            .apply(&[Update::PatchScores { reviewer: 0, expertise: tv(&[0.1, 0.8, 0.1]) }])
            .unwrap();
        let after = store.snapshot();
        let stats = store.stats();
        let (cloned, shared) = after.page_delta(&before);
        assert_eq!((stats.last_pages_cloned, stats.last_pages_shared), (cloned, shared));
        // The paper matrix is untouched by a reviewer patch: its page must
        // still be physically shared with the pre-update epoch.
        assert!(shared > 0, "untouched pages must stay shared");
        assert!(cloned > 0, "the patched reviewer page must be cloned");
        assert_eq!(
            cloned + shared,
            (after.ctx().num_pages() + after.candidates().num_pages()) as u64
        );
        assert_eq!(stats.last_snapshot_bytes, after.memory_bytes() as u64);
        assert_eq!(stats.peak_snapshot_bytes, stats.last_snapshot_bytes);
        assert_eq!(
            (stats.total_pages_cloned, stats.total_pages_shared),
            (stats.last_pages_cloned, stats.last_pages_shared)
        );
    }

    #[test]
    fn retained_epoch_reads_after_later_publishes() {
        // Time-travel: hold epoch snapshots while the store moves on; every
        // retained epoch stays fully readable and frozen.
        let store = VersionedStore::new(base(), Scoring::WeightedCoverage, 0);
        let e0 = store.snapshot();
        store
            .apply(&[Update::PatchScores { reviewer: 0, expertise: tv(&[0.1, 0.8, 0.1]) }])
            .unwrap();
        let e1 = store.snapshot();
        store.apply(&[Update::RetireReviewer { reviewer: 1 }]).unwrap();
        let e2 = store.snapshot();
        store
            .apply(&[Update::AddPaper { name: None, topics: tv(&[0.0, 0.5, 0.5]), coi: vec![] }])
            .unwrap();
        assert_eq!(store.epoch(), 3);
        // Epoch 0 still serves its original state, bit for bit.
        assert_eq!(e0.epoch(), 0);
        assert_eq!(e0.ctx().reviewer_row(0), base().reviewer(0).as_slice());
        assert_eq!(e0.instance().num_papers(), 2);
        let want0 = Snapshot::build(base(), Scoring::WeightedCoverage, 0);
        assert_snapshot_bit_eq(&e0, &want0);
        // Epoch 1 matches a rebuild of its prefix.
        let want1 = reference_apply(
            &base(),
            Scoring::WeightedCoverage,
            0,
            &[Update::PatchScores { reviewer: 0, expertise: tv(&[0.1, 0.8, 0.1]) }],
        )
        .unwrap();
        assert_snapshot_bit_eq(&e1, &want1);
        // And the retained epoch still shares untouched pages with current:
        // adding a paper leaves the reviewer matrix page and the existing
        // candidate rows physically shared with epoch 2.
        let cur = store.snapshot();
        let (_, shared) = cur.page_delta(&e2);
        assert!(shared > 0, "retained epochs share structure with current");
    }

    #[test]
    fn adhoc_pool_matches_stored_candidates() {
        // Query with each stored paper's exact vector: under every
        // sparse-safe scoring the ad-hoc pool must equal the stored paper's
        // candidate row, score for score, bit for bit.
        let inst = Instance::new(
            vec![
                tv(&[0.5, 0.5, 0.0, 0.0, 0.0]),
                tv(&[1.0, 0.0, 0.0, 0.0, 0.0]),
                tv(&[0.0, 0.13, 0.0, 0.29, 0.58]),
                tv(&[0.07, 0.0, 0.41, 0.0, 0.0]),
                tv(&[0.0, 0.0, 0.0, 0.0, 3.0]),
            ],
            vec![
                tv(&[0.3, 0.7, 0.0, 0.0, 0.0]),
                tv(&[0.6, 0.4, 0.0, 0.2, 0.0]),
                tv(&[0.0, 0.0, 1.0, 0.0, 0.0]),
                tv(&[0.11, 0.0, 0.33, 0.0, 0.9]),
                tv(&[0.0, 0.05, 0.0, 0.3, 0.0]),
            ],
            1,
            2,
        )
        .unwrap();
        for scoring in [Scoring::WeightedCoverage, Scoring::PaperCoverage, Scoring::DotProduct] {
            let snap = VersionedStore::new(inst.clone(), scoring, 0).snapshot();
            let mut compared = 0;
            for p in 0..inst.num_papers() {
                let pool = snap.candidate_pool_adhoc(inst.paper(p)).unwrap();
                let (stored, scores) = snap.candidates().candidates(p);
                compared += stored.len();
                assert_eq!(pool.iter().map(|&(r, _)| r).collect::<Vec<_>>(), stored);
                for (&(_, got), want) in pool.iter().zip(scores) {
                    assert_eq!(got.to_bits(), want.to_bits(), "{scoring:?} paper {p}");
                }
            }
            assert!(compared >= 5, "{scoring:?}: {compared} candidates");
            // Zero paper -> empty pool, not dense fallback.
            assert!(snap.candidate_pool_adhoc(&tv(&[0.0; 5])).unwrap().is_empty());
        }
        // Non-sparse-safe scoring -> None.
        let dense_store = VersionedStore::new(inst.clone(), Scoring::ReviewerCoverage, 0);
        assert!(dense_store.snapshot().candidate_pool_adhoc(inst.paper(0)).is_none());
    }
}
