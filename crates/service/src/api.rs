//! The typed Request/Plan/Outcome API: **one entry point** from the CLI to
//! `wgrap serve`.
//!
//! Every consumer of the engine used to re-encode the same knobs (method,
//! scoring, pruning, seed, per-query overrides) through its own entry
//! point — `CraAlgorithm::solver_with`, the since-removed `run_pruned` /
//! `solver_by_label` shims, the CLI flag table, `serve`'s stringly
//! `match op` — each with its own validation and defaults. This module
//! replaces all of them with one three-stage pipeline:
//!
//! 1. **[`SolveRequest`]** — the typed request: a CRA run, a single JRA
//!    query, a JRA batch, an update batch, or a stats probe, with
//!    per-request overrides. Requests are plain values: build them from
//!    CLI flags, NDJSON fields, or library code, identically.
//! 2. **[`Service::plan`]** — admission, checks and canonicalization: the
//!    request is admitted at the store's current epoch (an `Arc<Snapshot>`
//!    clone — never blocked by an in-flight update build), each JRA query
//!    is checked against that snapshot, and the request is canonicalized
//!    into a stable, hashable [`RequestKey`]: names resolve to ids,
//!    excludes sort and dedup, defaulted knobs resolve to their effective
//!    values. Two semantically equal requests — however spelled — get
//!    **identical** keys (proptested). Every per-query check runs here and
//!    nowhere else (see [`PlannedQuery`]), so a bad query fails before it
//!    takes a solve slot or probes the cache.
//! 3. **[`Service::execute`]** — the [`Plan`] runs against its admitted
//!    snapshot and returns an [`Outcome`]: the answer plus structured
//!    [`Diagnostics`] (epoch, cache hit/miss, plan/exec timings, `TopK`
//!    stage-loss bound). JRA cache misses solve on the engine's
//!    deterministic parallel substrate with positional writes, so a
//!    batch's answers are bit-identical to solving its queries one at a
//!    time, under any worker count.
//!
//! # The per-epoch result cache
//!
//! Solves are deterministic functions of `(snapshot, canonical request)`,
//! so the service memoizes them: a [`RequestKey`] that was answered at the
//! current epoch is served from the cache, **bit-identical** to a cold
//! solve (proptested across all four scorings — the cache stores the
//! actual result values, and publishes invalidate it wholesale). CRA
//! answers and individual JRA queries are cached — a batch probes per
//! query, so a repeated query hits even when the surrounding batch differs.
//! [`Service::cache_counters`] (surfaced by the `stats` op) reports
//! size/hit/miss.
//!
//! ```
//! use wgrap_core::prelude::*;
//! use wgrap_core::topic::TopicVector;
//! use wgrap_service::api::{Answer, PaperRef, Service, SolveRequest};
//!
//! let inst = Instance::new(
//!     vec![TopicVector::new(vec![0.6, 0.4])],
//!     vec![TopicVector::new(vec![0.9, 0.1]), TopicVector::new(vec![0.2, 0.8])],
//!     1,
//!     2,
//! )?;
//! let service = Service::new(inst, Scoring::WeightedCoverage, 42);
//! let request = SolveRequest::jra(PaperRef::Adhoc(TopicVector::new(vec![0.1, 0.9])));
//! let outcome = service.execute(&request)?;
//! let Answer::Jra(answers) = &outcome.answer else { unreachable!() };
//! assert_eq!(answers[0].as_ref().unwrap().results[0].group, vec![1]);
//! // The same request again is a cache hit — bit-identical by contract.
//! let again = service.execute(&request)?;
//! assert!(again.diag.cache.is_hit());
//! # Ok::<(), wgrap_core::error::Error>(())
//! ```

use crate::store::{Snapshot, StoreStats, Update, VersionedStore};
use crate::telemetry::trace::{FinishedTrace, Trace};
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry};
use crate::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wgrap_core::engine::candidates::CoverageStats;
use wgrap_core::engine::spec::MethodKind;
use wgrap_core::engine::{par, truncate_row, PruningPolicy};
use wgrap_core::jra::bba::{self, BbaOptions};
use wgrap_core::jra::JraResult;
use wgrap_core::prelude::{Assignment, CraAlgorithm, Instance, Scoring};
use wgrap_core::topic::TopicVector;

/// Default result-cache capacity ([`ServeOptions::cache_cap`], the CLI's
/// `--cache-cap`): entries retained per epoch before LRU eviction.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// The largest `top_k` a JRA query may ask for (at least Figure 15's
/// largest k, 1000). The bound cannot prune until `top_k` groups are held,
/// so a larger `top_k` would make the search visit and keep every group.
pub const MAX_TOP_K: usize = 1024;

/// Service-level defaults (the CLI's knobs): what a request that does not
/// override them resolves against during planning.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Default candidate pruning for CRA and JRA solves.
    pub pruning: PruningPolicy,
    /// Default method for CRA solves.
    pub method: MethodKind,
    /// Result-cache capacity: at most this many entries are retained
    /// (least-recently-used eviction); `0` disables caching entirely. A hot
    /// epoch can therefore never grow memory without bound.
    pub cache_cap: usize,
    /// Record telemetry (metrics + request traces). On by default; `false`
    /// swaps in [`Telemetry::disabled`] so every counter bump, histogram
    /// observation, and span record becomes a single-branch no-op — the
    /// baseline the telemetry-overhead benchmark compares against. Answer
    /// bytes never depend on this flag; observability surfaces (v2 `stats`
    /// counters, the `metrics` op, traces) read zeros when off.
    pub telemetry: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            pruning: PruningPolicy::default(),
            method: MethodKind::Cra(CraAlgorithm::SdgaSra),
            cache_cap: DEFAULT_CACHE_CAP,
            telemetry: true,
        }
    }
}

/// How a JRA request names its paper. Names and ids resolve against the
/// admitted snapshot during planning; ad-hoc vectors are the classic
/// journal query (a fresh submission against the standing pool).
#[derive(Debug, Clone)]
pub enum PaperRef {
    /// A stored paper by id (its COI mask applies).
    Id(usize),
    /// A stored paper by display name (resolved to an id at plan time).
    Name(String),
    /// A paper not in the instance.
    Adhoc(TopicVector),
}

/// One typed JRA query (the `jra` op, or one entry of a `batch`).
#[derive(Debug, Clone)]
pub struct JraSpec {
    /// The paper to find reviewers for.
    pub paper: PaperRef,
    /// Group size override (default: the instance's `δp`).
    pub delta_p: Option<usize>,
    /// Number of best groups to return.
    pub top_k: usize,
    /// Extra conflicted reviewer ids (order and duplicates are
    /// canonicalized away).
    pub exclude: Vec<u32>,
    /// Per-query pruning override (default: the service's).
    pub pruning: Option<PruningPolicy>,
}

impl JraSpec {
    /// A query with every knob defaulted.
    pub fn new(paper: PaperRef) -> Self {
        Self { paper, delta_p: None, top_k: 1, exclude: Vec::new(), pruning: None }
    }
}

/// The one typed request every entry point builds: CLI subcommands, both
/// NDJSON protocol versions, benches and examples all plan and execute
/// exactly this.
#[derive(Debug, Clone)]
pub enum SolveRequest {
    /// A full conference assignment at the admitted epoch.
    Cra {
        /// Method override (default: the service's).
        method: Option<MethodKind>,
        /// Pruning override (default: the service's).
        pruning: Option<PruningPolicy>,
        /// Seed override for stochastic refinement (default: the store's).
        seed: Option<u64>,
    },
    /// One JRA query.
    Jra(JraSpec),
    /// Many JRA queries admitted at one epoch, answered positionally.
    JraBatch(Vec<JraSpec>),
    /// An atomic update batch (publishes `epoch + 1`).
    Update(Vec<Update>),
    /// Instance + cache + store statistics at the admitted epoch.
    Stats,
}

impl SolveRequest {
    /// A CRA request with every knob defaulted.
    pub fn cra() -> Self {
        SolveRequest::Cra { method: None, pruning: None, seed: None }
    }

    /// A single-query JRA request with every knob defaulted.
    pub fn jra(paper: PaperRef) -> Self {
        SolveRequest::Jra(JraSpec::new(paper))
    }
}

/// The canonical identity of a solve: stable across semantically equal
/// spellings (reordered/duplicated excludes, defaulted vs explicit knobs,
/// paper named vs paper id), distinct whenever any effective knob differs.
/// Hashable — this is the result-cache key — and `Display`s as a compact
/// diagnostic string (`jra|s=weighted|seed=42|prune=auto|p=#3|dp=2|k=1|ex=`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey(String);

impl RequestKey {
    /// The canonical string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RequestKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The paper a planned JRA query asks about.
#[derive(Debug, Clone)]
pub(crate) enum QueryPaper {
    /// A stored paper (its COI mask applies).
    Stored(usize),
    /// A paper that is not part of the instance.
    Adhoc(TopicVector),
}

/// A checked, canonicalized JRA query: the one form the executor runs.
///
/// Only [`Service::plan`] builds one, after every per-query check passed
/// against the admitted snapshot, in this order: the paper (a known name,
/// an id below `P`, or an ad-hoc vector that passes
/// [`Instance::check_vector`]), then
/// `delta_p`, then `top_k`, then the excludes. Its fields stay private to
/// the crate because its ids are valid for that snapshot alone; solving it
/// there can fail only when conflicts and excludes leave fewer than
/// `delta_p` reviewers.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The query's own cache key (batches probe per query).
    pub(crate) key: RequestKey,
    /// The resolved paper (a name resolves to its id).
    pub(crate) paper: QueryPaper,
    /// Group size, in `1..=R`.
    pub(crate) delta_p: usize,
    /// Number of best groups to return, in `1..=MAX_TOP_K`.
    pub(crate) top_k: usize,
    /// Extra conflicted reviewer ids: sorted, deduplicated, each below `R`.
    pub(crate) exclude: Vec<u32>,
    /// The effective candidate pruning.
    pub(crate) pruning: PruningPolicy,
    /// Upper bound on the objective loss `TopK` truncation can cause for
    /// this query (`0.0` when nothing was truncated; `None` for stored
    /// papers only under `Exact`/`Auto`, and for ad-hoc papers, where the
    /// pool is not known until execution).
    pub(crate) loss_bound: Option<f64>,
}

/// What [`Service::plan`] resolved a request into.
#[derive(Debug)]
pub enum PlanAction {
    /// Run a full assignment.
    Cra {
        /// The resolved method.
        method: MethodKind,
        /// The resolved pruning policy.
        pruning: PruningPolicy,
        /// The resolved seed.
        seed: u64,
    },
    /// Run JRA queries (one per entry, positionally). Entries that failed
    /// a plan-time check carry their error and fail independently.
    Jra {
        /// Per-entry planned queries or canonicalization errors.
        queries: Vec<std::result::Result<PlannedQuery, String>>,
        /// Was this a `JraBatch` request (affects only response shape)?
        batched: bool,
    },
    /// Apply an update batch.
    Update(Vec<Update>),
    /// Report statistics.
    Stats,
}

/// An admitted, canonicalized request: the epoch is pinned (solves run
/// lock-free on the snapshot even while updates build), the effective
/// knobs are resolved, and the [`RequestKey`] identifies the work.
///
/// Its fields are read-only outside the crate: the planned queries were
/// checked against this snapshot alone, so the two never part.
#[derive(Debug)]
pub struct Plan {
    pub(crate) key: Option<RequestKey>,
    pub(crate) snapshot: Arc<Snapshot>,
    pub(crate) action: PlanAction,
    pub(crate) plan_time: Duration,
}

impl Plan {
    /// The request's canonical identity (`None` for `Update`/`Stats`,
    /// which are not cacheable, and for a batch with a failed entry).
    pub fn key(&self) -> Option<&RequestKey> {
        self.key.as_ref()
    }

    /// The epoch this plan was admitted at.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The resolved action.
    pub fn action(&self) -> &PlanAction {
        &self.action
    }
}

/// Did the result cache answer this solve?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the per-epoch cache (bit-identical to a cold solve).
    Hit,
    /// Solved cold (and stored for the next identical request).
    Miss,
    /// Not a cacheable request (updates, stats, mixed batches).
    Uncacheable,
}

impl CacheStatus {
    /// Is this a hit?
    pub fn is_hit(self) -> bool {
        matches!(self, CacheStatus::Hit)
    }

    /// The wire label (`"hit"` / `"miss"` / `"uncacheable"`).
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Uncacheable => "uncacheable",
        }
    }
}

/// Structured diagnostics every [`Outcome`] carries.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// The epoch the request was admitted (for updates: published) at.
    pub epoch: u64,
    /// The request's canonical identity, when it has one.
    pub key: Option<RequestKey>,
    /// Cache disposition for the request as a whole (a batch is `Hit` only
    /// if every entry hit).
    pub cache: CacheStatus,
    /// Wall time spent planning (admission + canonicalization).
    pub plan_time: Duration,
    /// Wall time spent executing (zero-ish on a pure cache hit).
    pub exec_time: Duration,
    /// Upper bound on the objective loss `TopK` pruning can cause for this
    /// request (`None` under `Exact`/`Auto`, or when no bound is known
    /// pre-execution).
    pub loss_bound: Option<f64>,
}

/// One JRA query's answer, with its own cache disposition.
#[derive(Debug, Clone)]
pub struct JraAnswer {
    /// The best group(s), best first.
    pub results: Vec<JraResult>,
    /// Whether this particular query hit the cache.
    pub cache: CacheStatus,
    /// This query's canonical identity.
    pub key: RequestKey,
}

/// A CRA run's answer.
#[derive(Debug, Clone)]
pub struct CraAnswer {
    /// The method that ran.
    pub method: MethodKind,
    /// The complete assignment (validated).
    pub assignment: Assignment,
    /// Its coverage under the store's scoring.
    pub coverage: f64,
}

/// An update batch's answer.
#[derive(Debug, Clone, Copy)]
pub struct UpdateAnswer {
    /// Updates applied.
    pub applied: usize,
    /// Papers after the batch.
    pub papers: usize,
    /// Reviewers after the batch.
    pub reviewers: usize,
    /// How long the copy-on-write build took (off the read path).
    pub build_time: Duration,
}

/// Result-cache counters ([`Service::cache_counters`], the `stats` op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries cached at the current epoch.
    pub size: usize,
    /// Capacity bound ([`ServeOptions::cache_cap`]); `size <= capacity`.
    pub capacity: usize,
    /// Lifetime cache hits.
    pub hits: u64,
    /// Lifetime cache misses (cacheable requests that solved cold).
    pub misses: u64,
    /// Lifetime LRU evictions (entries dropped for capacity, not by a
    /// publish — publish invalidation is not an eviction).
    pub evictions: u64,
}

/// The `stats` answer: instance shape plus cache and store accounting.
#[derive(Debug, Clone)]
pub struct StatsAnswer {
    /// Papers in the admitted snapshot.
    pub papers: usize,
    /// Reviewers in the admitted snapshot.
    pub reviewers: usize,
    /// Topic dimension.
    pub topics: usize,
    /// Reviewers per paper.
    pub delta_p: usize,
    /// Papers per reviewer.
    pub delta_r: usize,
    /// The store's scoring function.
    pub scoring: Scoring,
    /// Per-paper candidate support.
    pub support: Option<CoverageStats>,
    /// Result-cache counters.
    pub cache: CacheCounters,
    /// Store write-path accounting (build vs publish).
    pub store: StoreStats,
    /// Durability counters (WAL, checkpoints, recovery) — present only
    /// when the store persists to a `--data-dir`, so durability-off
    /// sessions stay byte-identical to their pre-durability goldens.
    pub durability: Option<crate::durable::DurabilityStats>,
}

/// The answer payload of an [`Outcome`].
///
/// `Stats` is the largest variant (the page-metric counters widened
/// [`StoreStats`]); one `Answer` exists per executed request, so the size
/// skew costs nothing on any hot path.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    /// A CRA run.
    Cra(CraAnswer),
    /// JRA answers, positional with the request's queries; entries fail
    /// independently (the `String` is the per-entry error message).
    Jra(Vec<std::result::Result<JraAnswer, String>>),
    /// An applied update batch.
    Update(UpdateAnswer),
    /// A statistics probe.
    Stats(StatsAnswer),
}

/// What a request executed into: the answer plus diagnostics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The answer payload.
    pub answer: Answer,
    /// Epoch, cache disposition, timings, loss bound.
    pub diag: Diagnostics,
    /// The request's recorded span tree (also retained in the telemetry
    /// trace ring and slow-query log). Span names, order, nesting, and
    /// counts are deterministic for a fixed session; durations are wall
    /// clock and stay behind the timings opt-in on the wire.
    pub trace: Option<Arc<FinishedTrace>>,
}

impl Outcome {
    /// The one-line stderr diagnostic the CLI prints (`# epoch … |
    /// cache … | plan … | exec …`). Stage timings come straight from the
    /// recorded trace — the same spans the trace ring and slow-query log
    /// retain — so the CLI has no timing code path of its own.
    pub fn diag_line(&self) -> String {
        use std::fmt::Write as _;
        let d = &self.diag;
        let mut line = format!("# epoch {} | cache {}", d.epoch, d.cache.label());
        match &self.trace {
            Some(t) => {
                for s in t.spans.iter().filter(|s| s.depth == 0) {
                    let _ = write!(line, " | {} {:.1?}", s.name, s.dur);
                }
            }
            None => {
                let _ = write!(line, " | plan {:.1?} | exec {:.1?}", d.plan_time, d.exec_time);
            }
        }
        if let Some(b) = d.loss_bound {
            let _ = write!(line, ", topk loss bound {b:.4}");
        }
        line
    }
}

/// What the per-epoch cache stores: the actual result values, so a hit is
/// bit-identical to the solve that populated it.
#[derive(Debug, Clone)]
enum CachedAnswer {
    Jra(Vec<JraResult>),
    Cra { method: MethodKind, assignment: Assignment, coverage: f64, loss_bound: Option<f64> },
}

/// The bounded per-epoch result cache: an LRU keyed on [`RequestKey`].
///
/// Recency is tracked with a monotone tick per entry plus a `tick → key`
/// index, so a probe or insert re-ranks in `O(log n)` and eviction drops
/// the genuinely least-recently-used entry. Capacity `0` disables storage
/// entirely (every probe is a miss); any capacity preserves the cache
/// contract — a hit is bit-identical to the cold solve — because eviction
/// only ever *removes* entries, it never mutates a stored answer.
#[derive(Debug)]
struct ResultCache {
    /// The epoch every entry belongs to.
    /// Advances monotonically — see [`ResultCache::roll_to`].
    epoch: u64,
    /// Capacity bound; entries never exceed it.
    cap: usize,
    entries: HashMap<RequestKey, (CachedAnswer, u64)>,
    /// Recency index: tick of last use → key. Oldest tick = LRU victim.
    order: BTreeMap<u64, RequestKey>,
    tick: u64,
    /// Lifetime accounting lives in the telemetry registry (the `stats`
    /// op and the Prometheus endpoint read the same counters).
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    /// Live entry count, mirrored after every mutation.
    size: Arc<Gauge>,
}

impl ResultCache {
    fn with_capacity(cap: usize, telemetry: &Telemetry) -> Self {
        Self {
            epoch: 0,
            cap,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            hits: telemetry.counter("cache_hits_total"),
            misses: telemetry.counter("cache_misses_total"),
            evictions: telemetry.counter("cache_evictions_total"),
            size: telemetry.gauge("cache_size"),
        }
    }

    /// Advance to a newer epoch, dropping everything the old one cached.
    /// Never regresses: a straggler request admitted at an older epoch
    /// must not wipe entries the *current* epoch already paid to solve.
    fn roll_to(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.entries.clear();
            self.order.clear();
            self.epoch = epoch;
            self.size.set(0);
        }
    }

    /// Probe for a cached answer at `epoch`. Counts a hit or miss and
    /// refreshes the hit entry's recency. A probe from an older epoch than
    /// the cache holds is always a miss (its result will also not be
    /// stored): old-epoch answers must never be served at a newer epoch,
    /// and vice versa.
    fn probe(&mut self, epoch: u64, key: &RequestKey) -> Option<CachedAnswer> {
        self.roll_to(epoch);
        let entry = (epoch == self.epoch).then(|| self.entries.get_mut(key)).flatten();
        match entry {
            Some((value, tick)) => {
                self.hits.inc();
                let value = value.clone();
                let old = std::mem::replace(tick, self.tick + 1);
                self.tick += 1;
                let moved = self.order.remove(&old).expect("every entry is indexed");
                self.order.insert(self.tick, moved);
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store a cold result — only if the cache still holds this epoch
    /// (a publish may have raced the solve; never mix epochs) — then
    /// evict least-recently-used entries down to capacity.
    fn store(&mut self, epoch: u64, key: RequestKey, value: CachedAnswer) {
        if self.epoch != epoch || self.cap == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, old)) = self.entries.insert(key.clone(), (value, self.tick)) {
            // A concurrent solve of the same key raced us here: replace its
            // recency slot rather than leak it (both answers are
            // bit-identical by determinism, so which value wins is moot).
            self.order.remove(&old);
        }
        self.order.insert(self.tick, key);
        while self.entries.len() > self.cap {
            let (_, victim) = self.order.pop_first().expect("order tracks entries");
            self.entries.remove(&victim);
            self.evictions.inc();
        }
        self.size.set(self.entries.len() as i64);
    }
}

/// The service: a [`VersionedStore`] plus the per-epoch result cache and
/// the request defaults, behind the one typed entry point
/// ([`plan`](Service::plan) / [`execute`](Service::execute)). Internally
/// synchronized — share it behind an `Arc` across connections/threads.
#[derive(Debug)]
pub struct Service {
    store: VersionedStore,
    cache: Mutex<ResultCache>,
    options: ServeOptions,
    telemetry: Arc<Telemetry>,
    met: SvcMetrics,
}

/// Pre-resolved telemetry handles for the solve hot path. Looking a
/// metric up by name takes the registry lock, so the service resolves
/// each series exactly once at construction.
#[derive(Debug)]
struct SvcMetrics {
    plan: Arc<Histogram>,
    probe: Arc<Histogram>,
    solve: Arc<Histogram>,
    query_solve: Arc<Histogram>,
    op_cra: Arc<Histogram>,
    op_jra: Arc<Histogram>,
    op_batch: Arc<Histogram>,
    op_update: Arc<Histogram>,
    op_stats: Arc<Histogram>,
}

impl SvcMetrics {
    fn new(t: &Telemetry) -> Self {
        SvcMetrics {
            plan: t.histogram("stage_seconds{stage=\"plan\"}"),
            probe: t.histogram("stage_seconds{stage=\"cache_probe\"}"),
            solve: t.histogram("stage_seconds{stage=\"solve\"}"),
            query_solve: t.histogram("query_solve_seconds"),
            op_cra: t.histogram("op_latency_seconds{op=\"cra\"}"),
            op_jra: t.histogram("op_latency_seconds{op=\"jra\"}"),
            op_batch: t.histogram("op_latency_seconds{op=\"batch\"}"),
            op_update: t.histogram("op_latency_seconds{op=\"update\"}"),
            op_stats: t.histogram("op_latency_seconds{op=\"stats\"}"),
        }
    }

    fn op(&self, op: &str) -> &Histogram {
        match op {
            "cra" => &self.op_cra,
            "jra" => &self.op_jra,
            "batch" => &self.op_batch,
            "update" => &self.op_update,
            _ => &self.op_stats,
        }
    }
}

impl Service {
    /// Serve `inst` under `scoring` with default options; `seed` feeds
    /// stochastic CRA solvers.
    pub fn new(inst: Instance, scoring: Scoring, seed: u64) -> Self {
        Self::with_options(inst, scoring, seed, ServeOptions::default())
    }

    /// [`Service::new`] with explicit request defaults.
    pub fn with_options(
        inst: Instance,
        scoring: Scoring,
        seed: u64,
        options: ServeOptions,
    ) -> Self {
        Self::from_store(VersionedStore::new(inst, scoring, seed), options)
    }

    /// Wrap an existing store.
    pub fn from_store(store: VersionedStore, options: ServeOptions) -> Self {
        let mut store = store;
        let telemetry =
            Arc::new(if options.telemetry { Telemetry::new() } else { Telemetry::disabled() });
        store.attach_telemetry(&telemetry);
        let met = SvcMetrics::new(&telemetry);
        let cache = ResultCache::with_capacity(options.cache_cap, &telemetry);
        Self { store, cache: Mutex::new(cache), options, telemetry, met }
    }

    /// The telemetry registry (metrics + trace ring) every layer above
    /// shares: the frontend, the protocol servers, the `metrics` op, and
    /// the CLI's Prometheus endpoint all read and record through this.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The underlying versioned store (snapshots, two-phase updates).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// The request defaults.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Admit at the current epoch (see [`VersionedStore::snapshot`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// Result-cache counters.
    pub fn cache_counters(&self) -> CacheCounters {
        let cache = self.cache.lock().expect("cache lock");
        CacheCounters {
            size: cache.entries.len(),
            capacity: cache.cap,
            hits: cache.hits.get(),
            misses: cache.misses.get(),
            evictions: cache.evictions.get(),
        }
    }

    /// Stage 2 of the pipeline: admit the request at the current epoch and
    /// canonicalize it into a [`Plan`]. Planning never solves anything and
    /// never blocks on an in-flight update build.
    pub fn plan(&self, request: &SolveRequest) -> Plan {
        let start = Instant::now();
        let snapshot = self.store.snapshot();
        let (key, action) = match request {
            SolveRequest::Cra { method, pruning, seed } => {
                let method = method.unwrap_or(self.options.method);
                let pruning = pruning.unwrap_or(self.options.pruning);
                let seed = seed.unwrap_or_else(|| snapshot.ctx().seed());
                let key = RequestKey(format!(
                    "cra|s={}|seed={seed}|prune={pruning}|m={}",
                    snapshot.ctx().scoring().label(),
                    method.label(),
                ));
                (Some(key), PlanAction::Cra { method, pruning, seed })
            }
            SolveRequest::Jra(spec) => {
                let planned = self.plan_query(&snapshot, spec);
                let key = planned.as_ref().ok().map(|p| p.key.clone());
                (key, PlanAction::Jra { queries: vec![planned], batched: false })
            }
            SolveRequest::JraBatch(specs) => {
                let queries: Vec<_> =
                    specs.iter().map(|spec| self.plan_query(&snapshot, spec)).collect();
                // A batch's identity is the ordered tuple of its entries'
                // identities; any entry that fails planning makes the batch
                // (but not its neighbours) uncacheable as a whole.
                let key = queries
                    .iter()
                    .map(|q| q.as_ref().ok().map(|p| p.key.as_str()))
                    .collect::<Option<Vec<_>>>()
                    .map(|keys| RequestKey(format!("batch[{}]", keys.join(";"))));
                (key, PlanAction::Jra { queries, batched: true })
            }
            SolveRequest::Update(updates) => (None, PlanAction::Update(updates.clone())),
            SolveRequest::Stats => (None, PlanAction::Stats),
        };
        let plan_time = start.elapsed();
        self.met.plan.observe_duration(plan_time);
        Plan { key, snapshot, action, plan_time }
    }

    /// Admit one JRA spec at the current epoch, check it and canonicalize
    /// it — the front-end's `jra` planning entry point
    /// ([`crate::frontend`]): it plans *before* asking for a solve slot, so
    /// the request pins its snapshot at admission and a bad request fails
    /// fast without waiting for a slot.
    pub(crate) fn plan_jra_one(
        &self,
        spec: &JraSpec,
    ) -> (Arc<Snapshot>, std::result::Result<PlannedQuery, String>) {
        let start = Instant::now();
        let snapshot = self.store.snapshot();
        let planned = self.plan_query(&snapshot, spec);
        self.met.plan.observe_duration(start.elapsed());
        (snapshot, planned)
    }

    /// Check one JRA query against the admitted snapshot and canonicalize
    /// it: resolve the paper reference, fill defaults, sort+dedup excludes,
    /// pin the effective pruning, and derive the query's [`RequestKey`].
    /// The checks run in [`PlannedQuery`]'s order; the first that fails is
    /// the query's error.
    fn plan_query(
        &self,
        snapshot: &Snapshot,
        spec: &JraSpec,
    ) -> std::result::Result<PlannedQuery, String> {
        let inst = snapshot.instance();
        let (num_p, num_r) = (inst.num_papers(), inst.num_reviewers());
        let invalid = |message: String| Error::InvalidInstance(message).to_string();
        let (paper, paper_key) = match &spec.paper {
            PaperRef::Id(p) if *p >= num_p => {
                return Err(invalid(format!("paper {p} out of range (P = {num_p})")));
            }
            PaperRef::Id(p) => (QueryPaper::Stored(*p), format!("#{p}")),
            PaperRef::Name(name) => {
                let p = (0..num_p)
                    .find(|&p| inst.paper_name(p) == *name)
                    .ok_or_else(|| format!("unknown paper '{name}'"))?;
                (QueryPaper::Stored(p), format!("#{p}"))
            }
            PaperRef::Adhoc(v) => {
                inst.check_vector("query paper", v).map_err(|e| e.to_string())?;
                // Exact canonical form: the non-zero entries' bit patterns.
                // Explicit zeros are dropped — adding `±0.0` terms is an
                // exact no-op in every scoring, so vectors differing only
                // in zeros solve bit-identically.
                let mut key = String::from("@");
                for (t, &w) in v.as_slice().iter().enumerate() {
                    if w != 0.0 {
                        let _ = write!(key, "{t}:{:016x},", w.to_bits());
                    }
                }
                (QueryPaper::Adhoc(v.clone()), key)
            }
        };
        let delta_p = spec.delta_p.unwrap_or_else(|| inst.delta_p());
        if delta_p == 0 || delta_p > num_r {
            return Err(invalid(format!(
                "need 1 <= delta_p <= R, got delta_p={delta_p} R={num_r}"
            )));
        }
        if spec.top_k == 0 {
            return Err(invalid("top_k must be >= 1".into()));
        }
        if spec.top_k > MAX_TOP_K {
            return Err(invalid(format!("top_k must be <= {MAX_TOP_K}")));
        }
        let mut exclude = spec.exclude.clone();
        exclude.sort_unstable();
        exclude.dedup();
        if let Some(r) = exclude.iter().find(|&&r| r as usize >= num_r) {
            return Err(invalid(format!("excluded reviewer {r} out of range (R = {num_r})")));
        }
        let pruning = spec.pruning.unwrap_or(self.options.pruning);
        // The loss bound is known pre-execution for stored papers: replay
        // the `TopK` truncation of the paper's candidate row and take the
        // dropped maximum (the same CELF-style bound `CandidateSet` keeps).
        let loss_bound = match (&paper, pruning) {
            (QueryPaper::Stored(p), PruningPolicy::TopK(k)) => {
                let (ids, scores) = snapshot.candidates().candidates(*p);
                let mut row: Vec<(u32, f64)> =
                    ids.iter().copied().zip(scores.iter().copied()).collect();
                Some(truncate_row(&mut row, k))
            }
            _ => None,
        };
        let excludes = exclude.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let key = RequestKey(format!(
            "jra|s={}|seed={}|prune={pruning}|p={paper_key}|dp={delta_p}|k={}|ex={excludes}",
            snapshot.ctx().scoring().label(),
            snapshot.ctx().seed(),
            spec.top_k,
        ));
        Ok(PlannedQuery { key, paper, delta_p, top_k: spec.top_k, exclude, pruning, loss_bound })
    }

    /// Stage 2 + 3 in one call: plan, then execute.
    pub fn execute(&self, request: &SolveRequest) -> Result<Outcome> {
        self.execute_plan(self.plan(request))
    }

    /// Stage 3 of the pipeline: run a plan against its admitted snapshot.
    /// Cacheable work (CRA runs, individual JRA queries) is served from the
    /// per-epoch result cache when possible. `Err` is reserved for
    /// request-level failures (a CRA solve or update batch failing);
    /// per-query JRA failures stay inside [`Answer::Jra`].
    ///
    /// Every successful execution records a span tree — `plan`, then the
    /// action's stages (`cache_probe`/`solve`/`fanout`, `build`/`publish`)
    /// nested under a closing `exec` span — into the telemetry trace ring,
    /// and observes the per-op latency histogram.
    pub fn execute_plan(&self, plan: Plan) -> Result<Outcome> {
        let op = match &plan.action {
            PlanAction::Cra { .. } => "cra",
            PlanAction::Jra { batched, .. } => {
                if *batched {
                    "batch"
                } else {
                    "jra"
                }
            }
            PlanAction::Update(_) => "update",
            PlanAction::Stats => "stats",
        };
        let nqueries = match &plan.action {
            PlanAction::Jra { queries, .. } => queries.len() as u64,
            _ => 1,
        };
        // Only pay the key-string allocation when a trace will retain it.
        let key_str = if self.telemetry.is_enabled() {
            plan.key.as_ref().map(|k| k.as_str().to_string())
        } else {
            None
        };
        let plan_time = plan.plan_time;
        // Spans are recorded on completion (post-order): a depth-1 span's
        // parent is the next depth-0 span after it.
        let trace = self.telemetry.new_trace();
        trace.record("plan", 0, nqueries, plan_time);
        let exec_start = Instant::now();
        let mut outcome = self.execute_plan_core(plan, &trace)?;
        let exec = exec_start.elapsed();
        trace.record("exec", 0, 1, exec);
        self.met.op(op).observe_duration(plan_time + exec);
        if self.telemetry.is_enabled() {
            let finished = trace.finish(op, key_str);
            self.telemetry.traces().push(finished.clone());
            outcome.trace = Some(finished);
        }
        Ok(outcome)
    }

    /// [`Service::execute_plan`]'s action dispatch, recording the per-stage
    /// spans into `trace` as each stage completes.
    fn execute_plan_core(&self, plan: Plan, trace: &Trace) -> Result<Outcome> {
        let start = Instant::now();
        let epoch = plan.epoch();
        match plan.action {
            PlanAction::Cra { method, pruning, seed } => {
                let key = plan.key.expect("CRA plans always carry a key");
                let probe_start = Instant::now();
                let cached = self.cache.lock().expect("cache lock").probe(epoch, &key);
                let probe_time = probe_start.elapsed();
                trace.record("cache_probe", 1, 1, probe_time);
                self.met.probe.observe_duration(probe_time);
                let solve_start = Instant::now();
                let (answer, cache, loss_bound) = match cached {
                    Some(CachedAnswer::Cra { method, assignment, coverage, loss_bound }) => {
                        (CraAnswer { method, assignment, coverage }, CacheStatus::Hit, loss_bound)
                    }
                    Some(CachedAnswer::Jra(_)) => unreachable!("jra entry under a cra key"),
                    None => {
                        let ctx = plan.snapshot.ctx();
                        let solver = method.solver_with(pruning);
                        let assignment = if seed == ctx.seed() {
                            solver.solve(ctx)?
                        } else {
                            // Seed overrides re-key the context; the clone
                            // is the price of a per-request seed.
                            solver.solve(&ctx.clone_for_update().with_seed(seed))?
                        };
                        assignment.validate(plan.snapshot.instance())?;
                        let coverage =
                            assignment.coverage_score(plan.snapshot.instance(), ctx.scoring());
                        // The TopK stage-loss bound is an O(P·support)
                        // scan, so it is computed once per cold solve and
                        // rides the cache entry — hits return it for free.
                        let loss_bound = match pruning {
                            PruningPolicy::TopK(k) => {
                                Some(topk_stage_loss_bound(&plan.snapshot, k))
                            }
                            _ => None,
                        };
                        self.cache.lock().expect("cache lock").store(
                            epoch,
                            key.clone(),
                            CachedAnswer::Cra {
                                method,
                                assignment: assignment.clone(),
                                coverage,
                                loss_bound,
                            },
                        );
                        let solve_time = solve_start.elapsed();
                        trace.record("solve", 1, 1, solve_time);
                        self.met.solve.observe_duration(solve_time);
                        (CraAnswer { method, assignment, coverage }, CacheStatus::Miss, loss_bound)
                    }
                };
                Ok(Outcome {
                    answer: Answer::Cra(answer),
                    trace: None,
                    diag: Diagnostics {
                        epoch,
                        key: Some(key),
                        cache,
                        plan_time: plan.plan_time,
                        exec_time: start.elapsed(),
                        loss_bound,
                    },
                })
            }
            PlanAction::Jra { queries, batched: _ } => {
                let answers = self.exec_jra(&plan.snapshot, &queries, trace);
                // The request-level disposition: Hit only if every entry
                // hit; Miss if any solved cold; Uncacheable if nothing was
                // cacheable (e.g. every entry failed canonicalization).
                let cache = {
                    let ok: Vec<_> = answers.iter().filter_map(|a| a.as_ref().ok()).collect();
                    if ok.is_empty() {
                        CacheStatus::Uncacheable
                    } else if ok.iter().all(|a| a.cache.is_hit()) {
                        CacheStatus::Hit
                    } else {
                        CacheStatus::Miss
                    }
                };
                let loss_bound = queries
                    .iter()
                    .filter_map(|q| q.as_ref().ok().and_then(|p| p.loss_bound))
                    .reduce(f64::max);
                Ok(Outcome {
                    answer: Answer::Jra(answers),
                    trace: None,
                    diag: Diagnostics {
                        epoch,
                        key: plan.key,
                        cache,
                        plan_time: plan.plan_time,
                        exec_time: start.elapsed(),
                        loss_bound,
                    },
                })
            }
            PlanAction::Update(updates) => {
                let pending = self.store.begin_update(&updates)?;
                let build_time = pending.build_time();
                trace.record("build", 1, updates.len() as u64, build_time);
                // Counts come from the snapshot this publish installs — a
                // fresh `store.snapshot()` after `publish` returns could
                // already belong to a later writer, decoupling the
                // reported epoch from the reported counts.
                let after = pending.built().unwrap_or(&plan.snapshot).instance();
                let answer = UpdateAnswer {
                    applied: updates.len(),
                    papers: after.num_papers(),
                    reviewers: after.num_reviewers(),
                    build_time,
                };
                let publish_start = Instant::now();
                let epoch = pending.publish()?;
                // Publish invalidation: entries from older epochs can never
                // answer again (the probe's epoch check also enforces this
                // lazily), so free them now.
                self.cache.lock().expect("cache lock").roll_to(epoch);
                trace.record("publish", 1, 1, publish_start.elapsed());
                Ok(Outcome {
                    answer: Answer::Update(answer),
                    trace: None,
                    diag: Diagnostics {
                        epoch,
                        key: None,
                        cache: CacheStatus::Uncacheable,
                        plan_time: plan.plan_time,
                        exec_time: start.elapsed(),
                        loss_bound: None,
                    },
                })
            }
            PlanAction::Stats => {
                let inst = plan.snapshot.instance();
                let answer = StatsAnswer {
                    papers: inst.num_papers(),
                    reviewers: inst.num_reviewers(),
                    topics: inst.num_topics(),
                    delta_p: inst.delta_p(),
                    delta_r: inst.delta_r(),
                    scoring: plan.snapshot.ctx().scoring(),
                    support: plan.snapshot.candidates().coverage_stats(),
                    cache: self.cache_counters(),
                    store: self.store.stats(),
                    durability: self.store.durability().map(|d| d.stats()),
                };
                Ok(Outcome {
                    answer: Answer::Stats(answer),
                    trace: None,
                    diag: Diagnostics {
                        epoch,
                        key: None,
                        cache: CacheStatus::Uncacheable,
                        plan_time: plan.plan_time,
                        exec_time: start.elapsed(),
                        loss_bound: None,
                    },
                })
            }
        }
    }

    /// Execute planned JRA queries against the snapshot they were planned
    /// at: probe the cache per query, [`solve`] the misses, then store the
    /// cold results.
    ///
    /// The misses fan out on the engine's deterministic parallel substrate
    /// (`wgrap-par` work-stealing under the `rayon` feature) and are
    /// written positionally, so `answers[i]` answers `queries[i]`
    /// bit-identically to solving the queries one at a time in order,
    /// under any worker count (the skew proptest pins that down). Each
    /// phase records a depth-1 span (`cache_probe` / `solve` / `fanout`)
    /// into `trace`, and each solved query one `query_solve_seconds`
    /// observation.
    pub(crate) fn exec_jra(
        &self,
        snapshot: &Snapshot,
        queries: &[std::result::Result<PlannedQuery, String>],
        trace: &Trace,
    ) -> Vec<std::result::Result<JraAnswer, String>> {
        let epoch = snapshot.epoch();
        // Probe phase (one lock acquisition for the whole batch).
        let probe_start = Instant::now();
        let probed: Vec<Option<CachedAnswer>> = {
            let mut cache = self.cache.lock().expect("cache lock");
            queries
                .iter()
                .map(|q| q.as_ref().ok().and_then(|p| cache.probe(epoch, &p.key)))
                .collect()
        };
        let probe_time = probe_start.elapsed();
        trace.record("cache_probe", 1, queries.len() as u64, probe_time);
        self.met.probe.observe_duration(probe_time);
        // Solve phase: the misses, positionally, lock-free.
        let misses: Vec<&PlannedQuery> = queries
            .iter()
            .zip(&probed)
            .filter_map(|(q, hit)| q.as_ref().ok().filter(|_| hit.is_none()))
            .collect();
        // A fully cache-served batch records no solve span: trace
        // structure reflects the work actually done (and the stage
        // histogram is not polluted with empty runs).
        let mut solved = if misses.is_empty() {
            Vec::new()
        } else {
            let solve_start = Instant::now();
            let query_solve = &self.met.query_solve;
            let solved = par::map_indexed(misses.len(), |i| {
                let start = Instant::now();
                let result = solve(snapshot, misses[i]);
                // Recorded on the solving worker: the histogram shards per
                // thread, so the fan-out never contends.
                query_solve.observe_duration(start.elapsed());
                result
            });
            let solve_time = solve_start.elapsed();
            trace.record("solve", 1, misses.len() as u64, solve_time);
            self.met.solve.observe_duration(solve_time);
            solved
        }
        .into_iter();
        let fanout_start = Instant::now();
        // Merge phase: hits, cold results, and per-entry errors, positional.
        let mut to_store: Vec<(RequestKey, CachedAnswer)> = Vec::new();
        let answers: Vec<std::result::Result<JraAnswer, String>> = queries
            .iter()
            .zip(probed)
            .map(|(q, hit)| {
                let planned = q.as_ref().map_err(Clone::clone)?;
                let (results, cache) = match hit {
                    Some(CachedAnswer::Jra(results)) => (results, CacheStatus::Hit),
                    Some(CachedAnswer::Cra { .. }) => unreachable!("cra entry under a jra key"),
                    None => {
                        let results = solved.next().expect("one result per miss");
                        let results = results.map_err(|e| e.to_string())?;
                        to_store.push((planned.key.clone(), CachedAnswer::Jra(results.clone())));
                        (results, CacheStatus::Miss)
                    }
                };
                Ok(JraAnswer { results, cache, key: planned.key.clone() })
            })
            .collect();
        if !to_store.is_empty() {
            let mut cache = self.cache.lock().expect("cache lock");
            for (key, value) in to_store {
                cache.store(epoch, key, value);
            }
        }
        trace.record("fanout", 1, queries.len() as u64, fanout_start.elapsed());
        answers
    }
}

/// Solve one planned query against the snapshot it was planned at. Its
/// inputs were checked then, so the only failure left is BBA's
/// `Infeasible`.
fn solve(snapshot: &Snapshot, query: &PlannedQuery) -> Result<Vec<JraResult>> {
    let ctx = snapshot.ctx();
    let opts = BbaOptions { top_k: query.top_k, ..Default::default() };
    let results = match &query.paper {
        QueryPaper::Stored(p) => {
            let mut view = ctx.jra_view(*p);
            view.delta_p = query.delta_p;
            for &r in &query.exclude {
                view.forbidden[r as usize] = true;
            }
            let row = || {
                let (ids, scores) = snapshot.candidates().candidates(*p);
                Some(ids.iter().copied().zip(scores.iter().copied()).collect())
            };
            bba::solve_view_pruned(&view, query.pruning, row, &opts)
        }
        QueryPaper::Adhoc(paper) => {
            let mut forbidden = vec![false; ctx.num_reviewers()];
            for &r in &query.exclude {
                forbidden[r as usize] = true;
            }
            let view = ctx.jra_view_adhoc(paper, forbidden, query.delta_p);
            // The scored pool from the shared index ranks — and
            // tie-breaks — exactly like the same vector stored as a paper
            // (scores are the `raw / total` pair-score form), so `TopK`
            // truncates without a second scoring pass.
            let row = || snapshot.candidate_pool_adhoc(paper);
            bba::solve_view_pruned(&view, query.pruning, row, &opts)
        }
    };
    results.ok_or_else(|| Error::Infeasible("fewer than δp non-conflicted reviewers".into()))
}

/// The total `TopK(k)` stage-loss bound over the snapshot's papers:
/// `Σ_p max_{r dropped}(score)` — what one SDGA stage can lose to
/// truncation (each paper's bound is the same CELF-style dropped maximum
/// `CandidateSet::build(ctx, Some(k))` would record). Computed from the
/// maintained Auto rows, so no rebuild.
fn topk_stage_loss_bound(snapshot: &Snapshot, k: usize) -> f64 {
    let cands = snapshot.candidates();
    (0..cands.num_papers())
        .map(|p| {
            let (ids, scores) = cands.candidates(p);
            if ids.len() <= k {
                return 0.0;
            }
            let mut row: Vec<(u32, f64)> =
                ids.iter().copied().zip(scores.iter().copied()).collect();
            truncate_row(&mut row, k)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    /// P = 2 papers, R = 4 reviewers, T = 3 topics, δp = 2, no COIs.
    fn instance() -> Instance {
        Instance::new(
            vec![tv(&[0.5, 0.5, 0.0]), tv(&[0.0, 0.3, 0.7])],
            vec![
                tv(&[0.3, 0.7, 0.0]),
                tv(&[0.6, 0.4, 0.0]),
                tv(&[0.0, 0.2, 0.8]),
                tv(&[0.1, 0.1, 0.8]),
            ],
            2,
            2,
        )
        .unwrap()
    }

    fn service() -> Service {
        Service::new(instance(), Scoring::WeightedCoverage, 7)
    }

    /// A service that solves every query cold (caching off).
    fn cold_service() -> Service {
        let options = ServeOptions { cache_cap: 0, ..ServeOptions::default() };
        Service::with_options(instance(), Scoring::WeightedCoverage, 7, options)
    }

    fn jra_results(outcome: &Outcome) -> &[JraResult] {
        let Answer::Jra(answers) = &outcome.answer else { panic!("not a jra answer") };
        &answers[0].as_ref().unwrap().results
    }

    /// Execute `specs` as one `batch` request.
    fn run_batch(
        service: &Service,
        specs: Vec<JraSpec>,
    ) -> Vec<std::result::Result<JraAnswer, String>> {
        let outcome = service.execute(&SolveRequest::JraBatch(specs)).unwrap();
        let Answer::Jra(answers) = outcome.answer else { panic!("not a jra answer") };
        answers
    }

    #[test]
    fn batch_matches_sequential_one_at_a_time() {
        let service = cold_service();
        for pruning in [PruningPolicy::Exact, PruningPolicy::Auto, PruningPolicy::TopK(2)] {
            let spec = |paper| JraSpec { pruning: Some(pruning), ..JraSpec::new(paper) };
            let specs = vec![
                spec(PaperRef::Id(0)),
                spec(PaperRef::Id(1)),
                JraSpec { top_k: 3, ..spec(PaperRef::Adhoc(tv(&[0.2, 0.2, 0.6]))) },
                JraSpec { exclude: vec![2], ..spec(PaperRef::Id(1)) },
                JraSpec { delta_p: Some(1), ..spec(PaperRef::Id(0)) },
            ];
            let batched = run_batch(&service, specs.clone());
            assert_eq!(batched.len(), specs.len());
            for (i, spec) in specs.into_iter().enumerate() {
                let alone = service.execute(&SolveRequest::Jra(spec)).unwrap();
                let (a, b) = (&batched[i].as_ref().unwrap().results, jra_results(&alone));
                assert_eq!(a.len(), b.len(), "{pruning:?} query {i}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.group, y.group, "{pruning:?} query {i}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                    assert_eq!(x.nodes, y.nodes);
                }
            }
        }
    }

    #[test]
    fn auto_pruning_preserves_exact_scores() {
        let service = cold_service();
        let papers = [PaperRef::Id(0), PaperRef::Id(1), PaperRef::Adhoc(tv(&[0.9, 0.1, 0.0]))];
        let run = |pruning| {
            let spec = |p: &PaperRef| JraSpec { pruning: Some(pruning), ..JraSpec::new(p.clone()) };
            run_batch(&service, papers.iter().map(spec).collect())
        };
        for (e, a) in run(PruningPolicy::Exact).iter().zip(&run(PruningPolicy::Auto)) {
            let (e, a) = (&e.as_ref().unwrap().results, &a.as_ref().unwrap().results);
            assert_eq!(e[0].score.to_bits(), a[0].score.to_bits());
        }
    }

    #[test]
    fn query_validation_fails_per_entry() {
        let service = service();
        let plan = service.plan(&SolveRequest::JraBatch(vec![
            JraSpec::new(PaperRef::Id(99)),
            JraSpec { delta_p: Some(0), ..JraSpec::new(PaperRef::Id(0)) },
            JraSpec { top_k: 0, ..JraSpec::new(PaperRef::Id(0)) },
            JraSpec { top_k: MAX_TOP_K + 1, ..JraSpec::new(PaperRef::Id(0)) },
            JraSpec::new(PaperRef::Adhoc(tv(&[1.0]))),
            JraSpec { exclude: vec![9], ..JraSpec::new(PaperRef::Id(0)) },
            JraSpec { top_k: MAX_TOP_K, ..JraSpec::new(PaperRef::Id(0)) },
        ]));
        // Every check runs at plan time: the bad entries carry their
        // errors in the plan, and the batch as a whole has no key.
        assert!(plan.key.is_none());
        let PlanAction::Jra { queries, .. } = &plan.action else { panic!() };
        let errors: Vec<&str> =
            queries[..6].iter().map(|q| q.as_ref().unwrap_err().as_str()).collect();
        assert_eq!(
            errors,
            [
                "invalid instance: paper 99 out of range (P = 2)",
                "invalid instance: need 1 <= delta_p <= R, got delta_p=0 R=4",
                "invalid instance: top_k must be >= 1",
                "invalid instance: top_k must be <= 1024",
                "invalid instance: query paper dimension 1 != instance dimension 3",
                "invalid instance: excluded reviewer 9 out of range (R = 4)",
            ]
        );
        let outcome = service.execute_plan(plan).unwrap();
        let Answer::Jra(answers) = &outcome.answer else { panic!() };
        assert!(answers[..6].iter().all(|a| a.is_err()));
        // `top_k = MAX_TOP_K` is allowed and returns all C(4, 2) = 6 groups.
        assert_eq!(answers[6].as_ref().unwrap().results.len(), 6);
        assert_eq!(service.cache_counters().misses, 1, "only the valid entry probed the cache");
    }

    /// Library values obey the weight-sum rule the wire parser applies: an
    /// ad-hoc paper fails at plan time, an update fails its whole batch.
    #[test]
    fn unusable_weight_sums_are_refused_off_the_wire() {
        let service = service();
        let sum = "weights must sum to 0 or a finite normal number";
        let plan = service.plan(&SolveRequest::jra(PaperRef::Adhoc(tv(&[5e-324, 5e-324, 0.0]))));
        let PlanAction::Jra { queries, .. } = &plan.action else { panic!() };
        assert_eq!(
            queries[0].as_ref().unwrap_err(),
            &format!("invalid instance: query paper {sum}")
        );
        let update = Update::AddPaper { name: None, topics: tv(&[0.0, 3e-309, 0.0]), coi: vec![] };
        let err = service.execute(&SolveRequest::Update(vec![update])).unwrap_err();
        assert_eq!(err.to_string(), format!("invalid instance: paper {sum}"));
        assert_eq!((service.snapshot().epoch(), service.cache_counters().misses), (0, 0));
    }

    #[test]
    fn excluding_everyone_is_infeasible() {
        let service = service();
        let outcome = service
            .execute(&SolveRequest::Jra(JraSpec {
                exclude: vec![0, 1, 2, 3],
                pruning: Some(PruningPolicy::Auto),
                ..JraSpec::new(PaperRef::Id(0))
            }))
            .unwrap();
        assert_eq!(outcome.diag.epoch, 0);
        let Answer::Jra(answers) = &outcome.answer else { panic!() };
        let error = answers[0].as_ref().unwrap_err();
        assert!(error.starts_with("infeasible: "), "{error}");
    }

    #[test]
    fn canonicalization_makes_equal_requests_equal() {
        let service = service();
        let spelled_out = SolveRequest::Jra(JraSpec {
            paper: PaperRef::Name("paper-0".into()),
            delta_p: Some(2), // the instance default, explicit
            top_k: 1,
            exclude: vec![3, 1, 3],              // unsorted, duplicated
            pruning: Some(PruningPolicy::Exact), // the service default, explicit
        });
        let defaulted = SolveRequest::Jra(JraSpec {
            paper: PaperRef::Id(0),
            delta_p: None,
            top_k: 1,
            exclude: vec![1, 3],
            pruning: None,
        });
        let (a, b) = (service.plan(&spelled_out), service.plan(&defaulted));
        assert_eq!(a.key, b.key);
        assert!(a.key.is_some());
        // A genuinely different knob must change the key.
        let different = SolveRequest::Jra(JraSpec {
            paper: PaperRef::Id(0),
            delta_p: None,
            top_k: 2,
            exclude: vec![1, 3],
            pruning: None,
        });
        assert_ne!(service.plan(&different).key, b.key);
    }

    #[test]
    fn default_paper_names_resolve_and_unknown_names_fail_per_entry() {
        let service = service();
        let plan = service.plan(&SolveRequest::JraBatch(vec![
            JraSpec::new(PaperRef::Id(0)),
            JraSpec::new(PaperRef::Name("no-such-paper".into())),
        ]));
        // Batch with an unresolvable entry: no batch-level key, the good
        // entry still planned.
        assert!(plan.key.is_none());
        let PlanAction::Jra { queries, batched: true } = &plan.action else { panic!() };
        assert!(queries[0].is_ok());
        assert_eq!(queries[1].as_ref().unwrap_err(), "unknown paper 'no-such-paper'");
        let outcome = service.execute_plan(plan).unwrap();
        let Answer::Jra(answers) = &outcome.answer else { panic!() };
        assert!(answers[0].is_ok());
        assert!(answers[1].is_err());
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let service = service();
        let request = SolveRequest::jra(PaperRef::Id(1));
        let cold = service.execute(&request).unwrap();
        assert_eq!(cold.diag.cache, CacheStatus::Miss);
        let warm = service.execute(&request).unwrap();
        assert!(warm.diag.cache.is_hit());
        let (c, w) = (jra_results(&cold), jra_results(&warm));
        assert_eq!(c.len(), w.len());
        for (x, y) in c.iter().zip(w) {
            assert_eq!(x.group, y.group);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.nodes, y.nodes);
        }
        let counters = service.cache_counters();
        assert_eq!((counters.hits, counters.misses, counters.size), (1, 1, 1));
    }

    #[test]
    fn publish_invalidates_the_cache() {
        let service = service();
        let request = SolveRequest::jra(PaperRef::Adhoc(tv(&[0.0, 0.0, 1.0])));
        service.execute(&request).unwrap();
        assert_eq!(service.cache_counters().size, 1);
        service
            .execute(&SolveRequest::Update(vec![Update::AddReviewer {
                name: None,
                expertise: tv(&[0.0, 0.0, 1.0]),
            }]))
            .unwrap();
        // The old entry must not answer at the new epoch.
        let after = service.execute(&request).unwrap();
        assert_eq!(after.diag.cache, CacheStatus::Miss);
        assert_eq!(after.diag.epoch, 1);
    }

    #[test]
    fn stale_epoch_probe_does_not_wipe_current_entries() {
        let service = service();
        // A plan admitted at epoch 0, executed only after the world moves on.
        let straggler = service.plan(&SolveRequest::jra(PaperRef::Id(0)));
        service
            .execute(&SolveRequest::Update(vec![Update::RetireReviewer { reviewer: 3 }]))
            .unwrap();
        service.execute(&SolveRequest::jra(PaperRef::Id(1))).unwrap();
        assert_eq!(service.cache_counters().size, 1);
        // The straggler solves against its own admitted snapshot, misses,
        // and must not clear (or be stored into) the epoch-1 cache.
        let outcome = service.execute_plan(straggler).unwrap();
        assert_eq!(outcome.diag.epoch, 0);
        assert_eq!(outcome.diag.cache, CacheStatus::Miss);
        assert_eq!(service.cache_counters().size, 1, "epoch-1 entries must survive");
        let warm = service.execute(&SolveRequest::jra(PaperRef::Id(1))).unwrap();
        assert!(warm.diag.cache.is_hit(), "current-epoch entry still answers");
    }

    #[test]
    fn batches_probe_per_query() {
        let service = service();
        service.execute(&SolveRequest::jra(PaperRef::Id(0))).unwrap();
        // The same query inside a batch hits; its neighbour misses.
        let outcome = service
            .execute(&SolveRequest::JraBatch(vec![
                JraSpec::new(PaperRef::Id(0)),
                JraSpec::new(PaperRef::Id(1)),
            ]))
            .unwrap();
        let Answer::Jra(answers) = &outcome.answer else { panic!() };
        assert!(answers[0].as_ref().unwrap().cache.is_hit());
        assert_eq!(answers[1].as_ref().unwrap().cache, CacheStatus::Miss);
        assert_eq!(outcome.diag.cache, CacheStatus::Miss);
    }

    #[test]
    fn cra_runs_cache_and_validate() {
        let service = service();
        let cold = service.execute(&SolveRequest::cra()).unwrap();
        let warm = service.execute(&SolveRequest::cra()).unwrap();
        let (Answer::Cra(c), Answer::Cra(w)) = (&cold.answer, &warm.answer) else { panic!() };
        assert_eq!(c.assignment, w.assignment);
        assert_eq!(c.coverage.to_bits(), w.coverage.to_bits());
        assert!(warm.diag.cache.is_hit());
        assert_eq!(c.method.label(), "SDGA-SRA");
        // A different method is a different key.
        let sm = service
            .execute(&SolveRequest::Cra {
                method: Some(MethodKind::Cra(CraAlgorithm::StableMatching)),
                pruning: None,
                seed: None,
            })
            .unwrap();
        assert_eq!(sm.diag.cache, CacheStatus::Miss);
    }

    #[test]
    fn stats_reports_cache_and_store_accounting() {
        let service = service();
        service.execute(&SolveRequest::jra(PaperRef::Id(0))).unwrap();
        service.execute(&SolveRequest::jra(PaperRef::Id(0))).unwrap();
        service
            .execute(&SolveRequest::Update(vec![Update::RetireReviewer { reviewer: 3 }]))
            .unwrap();
        let outcome = service.execute(&SolveRequest::Stats).unwrap();
        let Answer::Stats(stats) = &outcome.answer else { panic!() };
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.store.batches, 1);
        assert_eq!(stats.store.updates, 1);
        assert!(stats.store.total_build >= stats.store.last_publish);
        assert_eq!(outcome.diag.epoch, 1);
    }

    #[test]
    fn topk_loss_bound_is_reported_and_zero_when_lossless() {
        let service = service();
        let lossy = service
            .execute(&SolveRequest::Jra(JraSpec {
                pruning: Some(PruningPolicy::TopK(1)),
                ..JraSpec::new(PaperRef::Id(0))
            }))
            .unwrap();
        assert!(lossy.diag.loss_bound.unwrap() > 0.0);
        let lossless = service
            .execute(&SolveRequest::Jra(JraSpec {
                pruning: Some(PruningPolicy::TopK(100)),
                ..JraSpec::new(PaperRef::Id(0))
            }))
            .unwrap();
        assert_eq!(lossless.diag.loss_bound.unwrap(), 0.0);
        let auto = service.execute(&SolveRequest::jra(PaperRef::Id(0))).unwrap();
        assert!(auto.diag.loss_bound.is_none());
    }
}
