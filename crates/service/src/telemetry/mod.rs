//! Unified telemetry: a metrics registry, per-request span tracing, and
//! Prometheus text exposition — the one home for every counter, gauge,
//! and latency distribution the service records.
//!
//! Three pieces, three files:
//!
//! - **Registry** (this file) — named [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed latency [`Histogram`]s, created on first use and
//!   snapshotted in deterministic (lexicographic) order. Histograms keep
//!   one shard per recording thread so the solve fan-out never contends
//!   on a shared lock; [`Telemetry::snapshot`] merges the shards
//!   ([`hist`] proves merge ≡ pooling).
//! - **Tracing** ([`trace`]) — every solve-path request records a span
//!   tree (plan → admit → queue wait → cache probe → solve → fan-out,
//!   closed by the execution span) into a bounded ring buffer with a
//!   slow-query log; the v2 protocol returns it inline for `"trace":true`
//!   requests.
//! - **Exposition** — [`MetricsSnapshot::to_prometheus`] renders the
//!   Prometheus text format for the CLI's `--metrics-listen` endpoint,
//!   and [`MetricsSnapshot::to_json`] backs the v2 `metrics` op. Both
//!   are hand-rolled in the same no-dependency spirit as
//!   [`crate::json`].
//!
//! Determinism contract: counter values, gauge values, histogram
//! *counts*, and trace *structure* are deterministic for a fixed request
//! session and are golden-tested; durations and quantiles are wall-clock
//! and only rendered behind an explicit opt-in (`"timings":true`) or on
//! the Prometheus endpoint, which is never golden-diffed.

pub mod hist;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;
use hist::HistData;
use trace::TraceRing;

/// A monotonically increasing event counter. Handles minted by a
/// disabled registry ([`Telemetry::disabled`]) drop every write, so the
/// call sites never branch on a config flag.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: bool,
}

impl Default for Counter {
    fn default() -> Self {
        Counter { value: AtomicU64::new(0), enabled: true }
    }
}

impl Counter {
    fn with_enabled(enabled: bool) -> Self {
        Counter { value: AtomicU64::new(0), enabled }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (in-flight requests, queue depth, bytes).
/// Writes are dropped on handles from a disabled registry, like
/// [`Counter`].
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: bool,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { value: AtomicI64::new(0), enabled: true }
    }
}

impl Gauge {
    fn with_enabled(enabled: bool) -> Self {
        Gauge { value: AtomicI64::new(0), enabled }
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise to `v` if it exceeds the current value (high-water marks).
    pub fn set_max(&self, v: i64) {
        if self.enabled {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Add a delta (may be negative).
    pub fn add(&self, d: i64) {
        if self.enabled {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Shard count for concurrent histograms: recording threads are striped
/// across this many [`HistData`] shards (assigned round-robin per
/// thread), so concurrent `observe` calls almost never share a lock.
const HIST_SHARDS: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// This thread's stable shard index.
    static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
}

/// A concurrent log-bucketed latency histogram: per-thread
/// [`HistData`] shards merged on [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    shards: Vec<Mutex<HistData>>,
    enabled: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_enabled(true)
    }
}

impl Histogram {
    fn with_enabled(enabled: bool) -> Self {
        Histogram {
            shards: (0..HIST_SHARDS).map(|_| Mutex::new(HistData::new())).collect(),
            enabled,
        }
    }

    /// Record one observation (nanoseconds by convention). Dropped on
    /// handles from a disabled registry.
    pub fn observe(&self, v: u64) {
        if !self.enabled {
            return;
        }
        let i = THREAD_SHARD.with(|s| *s);
        self.shards[i].lock().unwrap().observe(v);
    }

    /// Record a duration as nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge all shards into one plain histogram.
    pub fn snapshot(&self) -> HistData {
        let mut out = HistData::new();
        for s in &self.shards {
            out.merge(&s.lock().unwrap());
        }
        out
    }
}

/// The process-wide telemetry registry: named metrics created on first
/// use, plus the trace ring. One instance lives in the
/// [`Service`](crate::api::Service); everything downstream (frontend,
/// server, CLI, metrics endpoint) shares it through `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    traces: TraceRing,
    enabled: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh registry with default trace ring sizing.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A registry whose handles drop every write: names still resolve (so
    /// the `metrics` op and Prometheus endpoint keep their shape), but
    /// `inc`/`observe`/`record` are single-branch no-ops. This is the
    /// [`ServeOptions::telemetry`](crate::api::ServeOptions::telemetry)
    /// `= false` backend, and what the telemetry-off benchmark measures
    /// against.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Telemetry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            traces: TraceRing::new(trace::DEFAULT_RING_CAP, trace::DEFAULT_SLOW_CAP),
            enabled,
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh [`trace::Trace`] recorder honoring the registry's enabled
    /// flag — disabled registries hand out drop-everything recorders.
    pub fn new_trace(&self) -> trace::Trace {
        if self.enabled {
            trace::Trace::new()
        } else {
            trace::Trace::disabled()
        }
    }

    /// Get or create the named counter. Resolve once and keep the `Arc`
    /// on hot paths; the lookup itself takes the registry lock.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::with_enabled(self.enabled))),
        )
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::with_enabled(self.enabled))),
        )
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.hists
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_enabled(self.enabled))),
        )
    }

    /// The trace ring + slow-query log.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// A point-in-time snapshot of every registered metric, in
    /// deterministic lexicographic order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            hists: self
                .hists
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen view of the registry: name/value pairs in lexicographic
/// order, histograms merged across shards.
#[derive(Debug)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → merged shard data.
    pub hists: Vec<(String, HistData)>,
}

/// Split a series name like `op_latency{op="jra"}` into its base name
/// (for `# TYPE` lines) and its baked-in label block.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(&name[i..])),
        None => (name, None),
    }
}

/// Splice an extra `quantile` label into a series name's label block.
fn with_quantile(name: &str, q: &str) -> String {
    let (base, labels) = split_labels(name);
    match labels {
        Some(l) => format!("{base}{},quantile=\"{q}\"}}", &l[..l.len() - 1]),
        None => format!("{base}{{quantile=\"{q}\"}}"),
    }
}

const NANOS_PER_SEC: f64 = 1_000_000_000.0;

impl MetricsSnapshot {
    /// Render the Prometheus text exposition format (version 0.0.4):
    /// counters and gauges verbatim, histograms as summaries with
    /// `quantile` labels (p50/p90/p99/p999) plus `_sum`/`_count`/`_min`/
    /// `_max`, durations converted from nanoseconds to seconds. Series
    /// order is deterministic; values are wall-clock.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_base = "";
        for (name, v) in &self.counters {
            let (base, _) = split_labels(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE wgrap_{base} counter");
                last_base = base;
            }
            let _ = writeln!(out, "wgrap_{name} {v}");
        }
        last_base = "";
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE wgrap_{base} gauge");
                last_base = base;
            }
            let _ = writeln!(out, "wgrap_{name} {v}");
        }
        last_base = "";
        for (name, h) in &self.hists {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE wgrap_{base} summary");
                last_base = base;
            }
            if let Some([p50, p90, p99, p999]) = h.quantiles() {
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99), ("0.999", p999)] {
                    let _ = writeln!(
                        out,
                        "wgrap_{} {}",
                        with_quantile(name, q),
                        v as f64 / NANOS_PER_SEC
                    );
                }
            }
            let l = labels.unwrap_or("");
            let _ = writeln!(out, "wgrap_{base}_sum{l} {}", h.sum() as f64 / NANOS_PER_SEC);
            let _ = writeln!(out, "wgrap_{base}_count{l} {}", h.count());
            if let (Some(min), Some(max)) = (h.min(), h.max()) {
                let _ = writeln!(out, "wgrap_{base}_min{l} {}", min as f64 / NANOS_PER_SEC);
                let _ = writeln!(out, "wgrap_{base}_max{l} {}", max as f64 / NANOS_PER_SEC);
            }
        }
        out
    }

    /// Render the snapshot for the v2 `metrics` op. The default shape is
    /// fully deterministic for a fixed session — counters, gauges, and
    /// per-histogram observation counts. With `timings`, each histogram
    /// gains wall-clock microsecond quantiles (p50/p90/p99/p999) and
    /// min/max/mean, mirroring the `stats` op's `"timings":true` opt-in.
    pub fn to_json(&self, timings: bool) -> Json {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let gauges = self.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| {
                let mut m = vec![("count".to_string(), Json::Num(h.count() as f64))];
                if timings {
                    if let Some([p50, p90, p99, p999]) = h.quantiles() {
                        let us = |n: u64| Json::Num(n as f64 / 1000.0);
                        m.push(("p50_us".to_string(), us(p50)));
                        m.push(("p90_us".to_string(), us(p90)));
                        m.push(("p99_us".to_string(), us(p99)));
                        m.push(("p999_us".to_string(), us(p999)));
                        m.push(("min_us".to_string(), us(h.min().unwrap_or(0))));
                        m.push(("max_us".to_string(), us(h.max().unwrap_or(0))));
                        m.push((
                            "mean_us".to_string(),
                            Json::Num(h.sum() as f64 / h.count().max(1) as f64 / 1000.0),
                        ));
                    }
                }
                (k.clone(), Json::Obj(m))
            })
            .collect();
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("hist", Json::Obj(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_get_or_create() {
        let t = Telemetry::new();
        let a = t.counter("requests_total");
        let b = t.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(t.counter("requests_total").get(), 3);
    }

    #[test]
    fn snapshot_orders_lexicographically() {
        let t = Telemetry::new();
        t.counter("zeta").inc();
        t.counter("alpha").add(5);
        t.gauge("mid").set(-2);
        let s = t.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(s.gauges[0], ("mid".to_string(), -2));
    }

    #[test]
    fn histogram_shards_merge_in_snapshot() {
        let h = Histogram::default();
        h.observe(10);
        let h = std::sync::Arc::new(h);
        let mut joins = Vec::new();
        for v in [100u64, 1000, 10_000] {
            let h = std::sync::Arc::clone(&h);
            joins.push(std::thread::spawn(move || h.observe(v)));
        }
        for j in joins {
            j.join().unwrap();
        }
        let d = h.snapshot();
        assert_eq!(d.count(), 4);
        assert_eq!(d.min(), Some(10));
        assert_eq!(d.max(), Some(10_000));
    }

    #[test]
    fn prometheus_text_shape() {
        let t = Telemetry::new();
        t.counter("requests_total{op=\"jra\"}").add(7);
        t.gauge("inflight").set(1);
        let h = t.histogram("op_latency_seconds{op=\"jra\"}");
        h.observe(1_000_000); // 1ms
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE wgrap_requests_total counter"));
        assert!(text.contains("wgrap_requests_total{op=\"jra\"} 7"));
        assert!(text.contains("# TYPE wgrap_inflight gauge"));
        assert!(text.contains("# TYPE wgrap_op_latency_seconds summary"));
        assert!(text.contains("wgrap_op_latency_seconds{op=\"jra\",quantile=\"0.5\"}"));
        assert!(text.contains("wgrap_op_latency_seconds_count{op=\"jra\"} 1"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let val = parts.next().unwrap();
            assert!(val.parse::<f64>().is_ok(), "bad sample value in {line:?}");
            assert!(parts.next().unwrap().starts_with("wgrap_"), "bad series in {line:?}");
        }
    }

    #[test]
    fn metrics_json_counts_only_by_default() {
        let t = Telemetry::new();
        t.counter("cache_hits_total").add(3);
        t.histogram("plan_seconds").observe(500);
        let plain = t.snapshot().to_json(false).to_string();
        assert!(plain.contains("\"cache_hits_total\":3"));
        assert!(plain.contains("\"plan_seconds\":{\"count\":1}"));
        assert!(!plain.contains("p50"), "quantiles must stay behind timings: {plain}");
        let timed = t.snapshot().to_json(true).to_string();
        assert!(timed.contains("p50_us"));
    }
}
