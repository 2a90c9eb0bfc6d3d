//! Per-request span trees: plan → admit → queue wait → cache probe →
//! solve → fan-out, closed by the execution span.
//!
//! Every solve-path request carries a [`Trace`] recorder through the
//! [`Frontend`](crate::frontend::Frontend) and
//! [`Service`](crate::api::Service) layers on the thread that serves it;
//! each stage records a [`SpanRec`] (name, nesting depth, a
//! stage-specific count, and a wall duration). Finished traces land in a
//! bounded ring buffer (fixed capacity, lock-free slot claim, per-slot
//! write lock) and in a slow-query log retaining the worst N by total
//! duration.
//!
//! Determinism contract: for a fixed session the *structure* of a trace —
//! span names, order, nesting, counts — is deterministic and
//! golden-tested; durations are wall-clock and only ever rendered behind
//! the same opt-in (`"timings":true`) as every other timing field.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;

/// One recorded stage of a request: a flattened pre-order node of the
/// span tree (`depth` encodes nesting).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Stage name (`"plan"`, `"admit"`, `"queue_wait"`, `"cache_probe"`,
    /// `"solve"`, `"fanout"`, `"coalesce"`, ...).
    pub name: &'static str,
    /// Nesting depth under the request root (root spans are depth 0).
    pub depth: u8,
    /// Stage-specific cardinality (queries planned, probed, solved, ...);
    /// part of the deterministic structure.
    pub count: u64,
    /// Wall-clock duration of the stage. Never rendered without the
    /// timings opt-in.
    pub dur: Duration,
}

/// A finished request trace: the op label, its canonical request key (when
/// one exists), and the recorded spans in pre-order.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// Which protocol op produced this trace (`"jra"`, `"batch"`, ...).
    pub op: &'static str,
    /// Canonical request key, when the request had one.
    pub key: Option<String>,
    /// Recorded spans, pre-order.
    pub spans: Vec<SpanRec>,
}

impl FinishedTrace {
    /// Total duration: the sum of root-level (depth 0) spans.
    pub fn total(&self) -> Duration {
        self.spans.iter().filter(|s| s.depth == 0).map(|s| s.dur).sum()
    }

    /// Render the span tree as JSON. Structure-only by default; with
    /// `timings` each span gains a `"us"` microsecond field (wall clock,
    /// non-deterministic — kept behind the same opt-in as every other
    /// timing in the protocol).
    pub fn to_json(&self, timings: bool) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut m = vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("depth".to_string(), Json::Num(s.depth as f64)),
                    ("count".to_string(), Json::Num(s.count as f64)),
                ];
                if timings {
                    m.push(("us".to_string(), Json::Num(s.dur.as_micros() as f64)));
                }
                Json::Obj(m)
            })
            .collect();
        let mut m = vec![("op".to_string(), Json::Str(self.op.to_string()))];
        if let Some(k) = &self.key {
            m.push(("key".to_string(), Json::Str(k.clone())));
        }
        m.push(("spans".to_string(), Json::Arr(spans)));
        Json::Obj(m)
    }
}

/// A live recorder for one request's spans, owned by the thread serving
/// the request.
#[derive(Debug)]
pub struct Trace {
    spans: Option<RefCell<Vec<SpanRec>>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A fresh, empty trace.
    pub fn new() -> Self {
        Trace { spans: Some(RefCell::new(Vec::with_capacity(8))) }
    }

    /// A recorder that drops everything — the handle threaded through the
    /// solve path when the service runs with telemetry off
    /// ([`ServeOptions::telemetry`](crate::api::ServeOptions::telemetry)),
    /// so the stage plumbing stays branch-free at the call sites.
    pub fn disabled() -> Self {
        Trace { spans: None }
    }

    /// Record one finished stage (no-op on a disabled trace).
    pub fn record(&self, name: &'static str, depth: u8, count: u64, dur: Duration) {
        if let Some(spans) = &self.spans {
            spans.borrow_mut().push(SpanRec { name, depth, count, dur });
        }
    }

    /// Seal the trace into an immutable, shared [`FinishedTrace`] (empty
    /// when disabled). The spans move out rather than copy, and the one
    /// allocation (the `Arc`) is shared by the ring, the slow log, and the
    /// response, so the serve hot path never duplicates a span vector.
    pub fn finish(self, op: &'static str, key: Option<String>) -> Arc<FinishedTrace> {
        let spans = self.spans.map(RefCell::into_inner).unwrap_or_default();
        Arc::new(FinishedTrace { op, key, spans })
    }
}

/// Bounded ring of recently finished traces plus the slow-query log.
///
/// The ring claims slots with a single `fetch_add` (lock-free claim,
/// wrapping overwrite of the oldest entry); each slot is then written
/// under its own short mutex so readers never observe a torn trace. The
/// slow log keeps the `slow_cap` worst traces by total duration.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Mutex<Option<Arc<FinishedTrace>>>]>,
    next: AtomicUsize,
    slow: Mutex<Vec<Arc<FinishedTrace>>>,
    slow_cap: usize,
    /// Total-duration (nanos) of the slowest retained slow-log entry once
    /// the log is full; `0` until then. Lets the hot path skip the slow
    /// lock entirely for fast requests (the overwhelmingly common case
    /// once the log has warmed up with genuinely slow traces).
    slow_floor: AtomicU64,
}

/// Default ring capacity: enough for a scrape interval of recent traffic.
pub const DEFAULT_RING_CAP: usize = 256;
/// Default slow-query log depth.
pub const DEFAULT_SLOW_CAP: usize = 16;

impl TraceRing {
    /// A ring holding the last `cap` traces and the `slow_cap` slowest.
    pub fn new(cap: usize, slow_cap: usize) -> Self {
        let slots = (0..cap.max(1)).map(|_| Mutex::new(None)).collect::<Vec<_>>();
        TraceRing {
            slots: slots.into_boxed_slice(),
            next: AtomicUsize::new(0),
            slow: Mutex::new(Vec::new()),
            slow_cap,
            slow_floor: AtomicU64::new(0),
        }
    }

    /// Publish a finished trace: overwrite the oldest ring slot and fold
    /// it into the slow-query log if it ranks. Requests faster than the
    /// full log's floor take a lock-free early exit past the slow log.
    pub fn push(&self, t: Arc<FinishedTrace>) {
        let total = t.total();
        let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
        if self.slow_cap > 0 && total_ns > self.slow_floor.load(Ordering::Relaxed) {
            let mut slow = self.slow.lock().unwrap();
            if slow.len() < self.slow_cap {
                slow.push(t.clone());
                slow.sort_by_key(|s| std::cmp::Reverse(s.total()));
            } else if let Some(last) = slow.last_mut() {
                if last.total() < total {
                    *last = t.clone();
                    slow.sort_by_key(|s| std::cmp::Reverse(s.total()));
                }
            }
            if slow.len() == self.slow_cap {
                let floor = slow.last().map(|s| s.total().as_nanos() as u64).unwrap_or(0);
                self.slow_floor.store(floor, Ordering::Relaxed);
            }
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[i].lock().unwrap() = Some(t);
    }

    /// Number of traces ever pushed (not the number retained).
    pub fn pushed(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<FinishedTrace>> {
        let n = self.next.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let start = n.saturating_sub(cap);
        (start..n).filter_map(|i| self.slots[i % cap].lock().unwrap().clone()).collect()
    }

    /// The slow-query log, worst first.
    pub fn slow(&self) -> Vec<Arc<FinishedTrace>> {
        self.slow.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_taking(ms: u64) -> Arc<FinishedTrace> {
        let t = Trace::new();
        t.record("solve", 0, 1, Duration::from_millis(ms));
        t.finish("jra", None)
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = TraceRing::new(2, 8);
        for ms in [1, 2, 3] {
            ring.push(trace_taking(ms));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].total(), Duration::from_millis(2));
        assert_eq!(recent[1].total(), Duration::from_millis(3));
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn slow_log_keeps_worst() {
        let ring = TraceRing::new(8, 2);
        for ms in [5, 1, 9, 3, 7] {
            ring.push(trace_taking(ms));
        }
        let slow: Vec<u64> = ring.slow().iter().map(|t| t.total().as_millis() as u64).collect();
        assert_eq!(slow, vec![9, 7]);
    }

    #[test]
    fn trace_json_structure_is_duration_free_by_default() {
        let t = Trace::new();
        t.record("plan", 0, 3, Duration::from_micros(123));
        t.record("solve", 1, 3, Duration::from_micros(456));
        let f = t.finish("batch", Some("k".into()));
        let s = f.to_json(false).to_string();
        assert!(s.contains("\"name\":\"plan\""));
        assert!(s.contains("\"depth\":1"));
        assert!(s.contains("\"count\":3"));
        assert!(!s.contains("us"), "durations must stay behind the timings opt-in: {s}");
        let with = f.to_json(true).to_string();
        assert!(with.contains("\"us\":123"));
    }
}
