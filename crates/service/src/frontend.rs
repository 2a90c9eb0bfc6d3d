//! The concurrent front-end: admission control over [`Service`].
//!
//! A [`Frontend`] sits between connection handlers ([`crate::server`]) and
//! the typed [`api`](crate::api) layer and adds the one thing a
//! multi-client server needs that a single request stream does not:
//! **admission control**. Every solve request (`jra`, `batch`, `assign`)
//! takes a solve slot through [`Frontend::permit`] and holds it for its
//! own execution. At most [`FrontendOptions::max_inflight`] slots are
//! held at once, at most [`FrontendOptions::queue_depth`] requests wait
//! for one in a single waiting room, and anything beyond that is
//! *rejected immediately* with a structured `"busy"` response instead of
//! queueing unboundedly. Updates and `stats` bypass admission entirely:
//! the write path is never blocked behind reads (the store's
//! build/publish split already makes it cheap), and observability must
//! work precisely when the server is saturated.
//!
//! A `jra` plans before it asks for a slot, and planning runs every
//! per-query check ([`PlannedQuery`](crate::api::PlannedQuery)): a query
//! naming an unknown paper, or with a paper id, `delta_p`, `top_k`,
//! excluded reviewer or ad-hoc dimension out of range, fails fast without
//! taking a slot, probing the cache or counting as an execution. The
//! snapshot a `jra` pins at plan time is the one it answers at, however
//! long it waits for the slot.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::api::{JraAnswer, JraSpec, Service};
use crate::server::RequestCounters;
use crate::store::Snapshot;
use crate::telemetry::trace::{FinishedTrace, Trace};
use crate::telemetry::{Counter, Gauge, Histogram};

/// Tuning knobs for a [`Frontend`] (the CLI's `--max-inflight` and
/// `--queue-depth`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendOptions {
    /// Concurrent solves allowed (each `jra`, `batch` and `assign` holds
    /// one slot while it executes). Clamped to at least 1.
    pub max_inflight: usize,
    /// Solve requests allowed to wait for a slot beyond the in-flight
    /// bound, all ops together; `0` means "reject the moment every slot is
    /// taken".
    pub queue_depth: usize,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        Self { max_inflight: 4, queue_depth: 64 }
    }
}

/// Everything guarded by the one front-end mutex. The lifetime counters
/// live in the registry ([`FrontMetrics`]).
#[derive(Default)]
struct FrontState {
    /// Solve slots in use.
    inflight: usize,
    /// Requests in the waiting room (bounded by `queue_depth`).
    waiting: usize,
}

/// Registry handles for the front-end's series — the single source of
/// truth for its counters. [`Frontend::counters`] (the v2 `stats`
/// `"frontend"` object) reads these, and the same series surface through
/// the `metrics` op and the Prometheus endpoint.
struct FrontMetrics {
    connections: Arc<Counter>,
    rejected: Arc<Counter>,
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
    /// High-water mark of requests per `jra` execution (a gauge so
    /// `set_max` applies; it never decreases).
    max_batch: Arc<Gauge>,
    inflight: Arc<Gauge>,
    queued: Arc<Gauge>,
    op_jra: Arc<Histogram>,
    requests: RequestCounters,
}

impl FrontMetrics {
    fn new(service: &Service) -> Self {
        let t = service.telemetry();
        FrontMetrics {
            connections: t.counter("frontend_connections_total"),
            rejected: t.counter("frontend_rejected_total"),
            batches: t.counter("frontend_batches_total"),
            batched_requests: t.counter("frontend_batched_requests_total"),
            max_batch: t.gauge("frontend_max_batch"),
            inflight: t.gauge("frontend_inflight"),
            queued: t.gauge("frontend_queued"),
            op_jra: t.histogram("op_latency_seconds{op=\"jra\"}"),
            requests: RequestCounters::new(t),
        }
    }
}

/// Front-end counters ([`Frontend::counters`], v2 `stats`'s `"frontend"`
/// object). Every `jra` executes alone, so `batches` and
/// `batched_requests` both count executed `jra` requests and `max_batch`
/// is at most 1; the member names are part of the v2 wire format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCounters {
    /// Sessions served ([`crate::server::serve_connection`] calls).
    pub connections: u64,
    /// Requests currently waiting for a solve slot (a gauge, not a total).
    pub queued: usize,
    /// Lifetime admissions rejected with `"busy"`.
    pub rejected: u64,
    /// Executed `jra` requests.
    pub batches: u64,
    /// Requests those executions served (equal to `batches`).
    pub batched_requests: u64,
    /// Most requests one `jra` execution served (0 before the first, then 1).
    pub max_batch: u64,
}

/// The outcome of submitting one `jra` through the front-end.
pub enum JraOutcome {
    /// Planned (and, unless planning failed, solved). Everything the wire
    /// layer renders: the admitted snapshot, the answer or plan error, and
    /// the planned `TopK` stage-loss bound.
    Done {
        /// The snapshot the request was admitted at.
        snapshot: Arc<Snapshot>,
        /// The answer, or the plan/solve error for this one query.
        answer: std::result::Result<JraAnswer, String>,
        /// The `TopK` stage-loss bound pinned at plan time.
        loss_bound: Option<f64>,
        /// The request's span tree. Structure (names, order, counts) is
        /// deterministic; durations stay behind the timings opt-in.
        trace: Arc<FinishedTrace>,
    },
    /// Rejected by admission control: every solve slot busy and the
    /// waiting room full. The request never waited or solved.
    Busy,
}

/// A held solve slot; released on drop.
pub struct Permit<'a> {
    frontend: &'a Frontend,
    /// When admission accepted the request: the moment it took a free
    /// slot or a place in the waiting room.
    admitted_at: Instant,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.frontend.release();
    }
}

/// The admission-controlled front-end. See the [module docs](self).
/// Internally synchronized: every method takes `&self`.
pub struct Frontend {
    service: Arc<Service>,
    max_inflight: usize,
    queue_depth: usize,
    state: Mutex<FrontState>,
    /// Signalled when a slot frees while requests wait for one.
    slot_freed: Condvar,
    met: FrontMetrics,
}

impl Frontend {
    /// Wrap a service with the given admission bounds.
    pub fn new(service: Arc<Service>, options: FrontendOptions) -> Self {
        let met = FrontMetrics::new(&service);
        Self {
            service,
            max_inflight: options.max_inflight.max(1),
            queue_depth: options.queue_depth,
            state: Mutex::new(FrontState::default()),
            slot_freed: Condvar::new(),
            met,
        }
    }

    /// Wrap a service with [default](FrontendOptions::default) bounds.
    pub fn with_defaults(service: Arc<Service>) -> Self {
        Self::new(service, FrontendOptions::default())
    }

    /// The wrapped service (updates and `stats` route straight through —
    /// admission never blocks the write path).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Count one served session (see [`FrontendCounters::connections`]).
    pub fn note_connection(&self) {
        self.met.connections.inc();
    }

    /// The wire layer's `requests_total` counters in this front-end's
    /// registry.
    pub(crate) fn requests(&self) -> &RequestCounters {
        &self.met.requests
    }

    /// Snapshot the front-end counters (reads the registry series; the
    /// instantaneous `queued` comes from the state under its lock).
    pub fn counters(&self) -> FrontendCounters {
        let queued = self.state.lock().expect("frontend lock").waiting;
        FrontendCounters {
            connections: self.met.connections.get(),
            queued,
            rejected: self.met.rejected.get(),
            batches: self.met.batches.get(),
            batched_requests: self.met.batched_requests.get(),
            max_batch: self.met.max_batch.get() as u64,
        }
    }

    /// Serve one `jra`: plan it (a query that fails a check fails here,
    /// before admission), take a solve slot through [`Frontend::permit`],
    /// run its one query at the planned snapshot, and release the slot.
    ///
    /// Its span tree reads `plan, admit, queue_wait`, then the execution's
    /// `cache_probe, [solve], fanout` (depth 1) under a closing `coalesce`
    /// span. `admit` ends when admission accepts the request, `queue_wait`
    /// when it holds a slot.
    pub fn jra(&self, spec: &JraSpec) -> JraOutcome {
        let start = Instant::now();
        let trace = self.service.telemetry().new_trace();
        let (snapshot, planned) = self.service.plan_jra_one(spec);
        // Adjacent stages share one clock read: each boundary timestamp
        // ends one span and starts the next.
        let planned_at = Instant::now();
        trace.record("plan", 0, 1, planned_at.saturating_duration_since(start));
        let planned = match planned {
            Ok(p) => p,
            Err(e) => {
                // Plan failures still finish (and publish) their trace —
                // structure [plan] only, so goldens stay deterministic.
                let trace = self.finish_jra(trace);
                self.met.op_jra.observe_duration(start.elapsed());
                return JraOutcome::Done { snapshot, answer: Err(e), loss_bound: None, trace };
            }
        };
        let Some(permit) = self.permit() else {
            // Rejected requests never wait or solve; their trace is
            // dropped (the rejection itself is counted).
            return JraOutcome::Busy;
        };
        let held_at = Instant::now();
        trace.record("admit", 0, 1, permit.admitted_at.saturating_duration_since(planned_at));
        trace.record("queue_wait", 0, 1, held_at.saturating_duration_since(permit.admitted_at));
        self.met.batches.inc();
        self.met.batched_requests.inc();
        self.met.max_batch.set_max(1);
        let loss_bound = planned.loss_bound;
        // Probes the result cache, solves on a miss, and records
        // cache_probe/solve/fanout (depth 1) into the trace.
        let answer = self.service.exec_jra(&snapshot, &[Ok(planned)], &trace).pop();
        let answer = answer.expect("one answer per query");
        let exec_time = held_at.elapsed();
        drop(permit);
        trace.record("coalesce", 0, 1, exec_time);
        let trace = self.finish_jra(trace);
        self.met.op_jra.observe_duration(start.elapsed());
        JraOutcome::Done { snapshot, answer, loss_bound, trace }
    }

    /// Seal a `jra` trace and retain it in the trace ring.
    fn finish_jra(&self, trace: Trace) -> Arc<FinishedTrace> {
        let finished = trace.finish("jra", None);
        if self.service.telemetry().is_enabled() {
            self.service.telemetry().traces().push(finished.clone());
        }
        finished
    }

    /// Take a solve slot — the one admission path for `jra`, `batch` and
    /// `assign`. Waits if all slots are busy but the waiting room has
    /// space; returns `None` ("busy") otherwise. The slot is released when
    /// the [`Permit`] drops.
    pub fn permit(&self) -> Option<Permit<'_>> {
        let mut state = self.state.lock().expect("frontend lock");
        let full = state.inflight >= self.max_inflight;
        if full && state.waiting >= self.queue_depth {
            self.met.rejected.inc();
            return None;
        }
        let admitted_at = Instant::now();
        if full {
            state.waiting += 1;
            self.met.queued.set(state.waiting as i64);
            state = self
                .slot_freed
                .wait_while(state, |s| s.inflight >= self.max_inflight)
                .expect("frontend lock");
            state.waiting -= 1;
            self.met.queued.set(state.waiting as i64);
        }
        state.inflight += 1;
        self.met.inflight.set(state.inflight as i64);
        Some(Permit { frontend: self, admitted_at })
    }

    /// Free a slot and wake one waiter, if any waits. Runs in
    /// [`Permit`]'s `Drop`, so it must not panic: a poisoned lock is
    /// recovered, since every update leaves the two counts valid.
    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.inflight -= 1;
        self.met.inflight.set(state.inflight as i64);
        let waiters = state.waiting > 0;
        drop(state);
        if waiters {
            self.slot_freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PaperRef, ServeOptions, SolveRequest};
    use crate::Answer;
    use std::time::{Duration, Instant};
    use wgrap_core::prelude::Scoring;
    use wgrap_core::topic::TopicVector;

    fn test_service() -> Arc<Service> {
        let text = "\
topics 3
delta_p 2
delta_r 3
reviewer alice 0.7 0.2 0.1
reviewer bob   0.1 0.8 0.1
reviewer carol 0.2 0.2 0.6
paper p-17 0.5 0.4 0.1
paper p-23 0.0 0.3 0.7
coi alice p-17
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        Arc::new(Service::new(inst, Scoring::WeightedCoverage, 42))
    }

    fn spec(paper: usize) -> JraSpec {
        JraSpec {
            paper: PaperRef::Id(paper),
            delta_p: None,
            top_k: 1,
            exclude: vec![],
            pruning: None,
        }
    }

    fn wait_until(frontend: &Frontend, cond: impl Fn(FrontendCounters) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(frontend.counters()) {
            assert!(Instant::now() < deadline, "condition not reached in time");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn answer_of(outcome: JraOutcome) -> JraAnswer {
        match outcome {
            JraOutcome::Done { answer, .. } => answer.unwrap(),
            JraOutcome::Busy => panic!("unexpected busy"),
        }
    }

    #[test]
    fn frontend_jra_matches_service_bitwise() {
        let service = test_service();
        let frontend = Frontend::with_defaults(Arc::clone(&service));
        let via_front = answer_of(frontend.jra(&spec(1)));
        // A second, independent service answers cold for comparison.
        let reference = test_service();
        let outcome = reference.execute(&SolveRequest::Jra(spec(1))).unwrap();
        let Answer::Jra(answers) = outcome.answer else { panic!() };
        let reference = answers.into_iter().next().unwrap().unwrap();
        assert_eq!(via_front.results.len(), reference.results.len());
        for (a, b) in via_front.results.iter().zip(&reference.results) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn plan_errors_fail_fast_without_queueing() {
        let frontend = Frontend::with_defaults(test_service());
        // R = 3 reviewers over T = 3 topics, P = 2 papers.
        let bad = [
            (JraSpec::new(PaperRef::Name("p-99".into())), "unknown paper 'p-99'"),
            (spec(2), "invalid instance: paper 2 out of range (P = 2)"),
            (
                JraSpec { delta_p: Some(0), ..spec(0) },
                "invalid instance: need 1 <= delta_p <= R, got delta_p=0 R=3",
            ),
            (
                JraSpec { delta_p: Some(4), ..spec(0) },
                "invalid instance: need 1 <= delta_p <= R, got delta_p=4 R=3",
            ),
            (JraSpec { top_k: 0, ..spec(0) }, "invalid instance: top_k must be >= 1"),
            (JraSpec { top_k: 1025, ..spec(0) }, "invalid instance: top_k must be <= 1024"),
            (
                JraSpec { exclude: vec![1, 3], ..spec(0) },
                "invalid instance: excluded reviewer 3 out of range (R = 3)",
            ),
            (
                JraSpec::new(PaperRef::Adhoc(TopicVector::new(vec![1.0, 0.0]))),
                "invalid instance: query paper dimension 2 != instance dimension 3",
            ),
        ];
        for (bad, want) in bad {
            match frontend.jra(&bad) {
                JraOutcome::Done { answer, .. } => assert_eq!(answer.unwrap_err(), want),
                JraOutcome::Busy => panic!("plan errors must not hit admission"),
            }
        }
        let c = frontend.counters();
        assert_eq!((c.queued, c.batches), (0, 0));
        assert_eq!(frontend.service().cache_counters().misses, 0, "no bad query probed the cache");
    }

    /// A `jra` that waits for a slot while an update publishes still
    /// executes (its `coalesce` span) at the epoch it was admitted at.
    #[test]
    fn coalescing_never_mixes_epochs() {
        let service = test_service();
        let frontend = Arc::new(Frontend::new(
            Arc::clone(&service),
            FrontendOptions { max_inflight: 1, queue_depth: 16 },
        ));
        let permit = frontend.permit().expect("slot free");
        let waiting = {
            let frontend = Arc::clone(&frontend);
            std::thread::spawn(move || match frontend.jra(&spec(0)) {
                JraOutcome::Done { snapshot, answer, .. } => (snapshot.epoch(), answer.unwrap()),
                JraOutcome::Busy => panic!("unexpected busy"),
            })
        };
        wait_until(&frontend, |c| c.queued == 1);
        // Publish a new epoch while the jra waits for the slot — the write
        // path bypasses admission, so this cannot deadlock on the held
        // permit.
        service
            .execute(&SolveRequest::Update(vec![crate::store::Update::RetireReviewer {
                reviewer: 2,
            }]))
            .unwrap();
        drop(permit);
        let (epoch, answer) = waiting.join().unwrap();
        assert_eq!(epoch, 0, "a waiting jra answers at the epoch it was admitted at");
        let at_epoch_0 = answer_of(Frontend::with_defaults(test_service()).jra(&spec(0)));
        assert_eq!(answer.results[0].group, at_epoch_0.results[0].group);
        assert_eq!(answer.results[0].score.to_bits(), at_epoch_0.results[0].score.to_bits());
        // A jra admitted after the publish sees the retired reviewer.
        let after = answer_of(frontend.jra(&spec(0)));
        assert_ne!(after.results[0].score.to_bits(), answer.results[0].score.to_bits());
        let c = frontend.counters();
        assert_eq!((c.batches, c.batched_requests, c.max_batch, c.queued), (2, 2, 1, 0));
    }

    #[test]
    fn one_waiting_room_for_every_solve_request() {
        let frontend = Arc::new(Frontend::new(
            test_service(),
            FrontendOptions { max_inflight: 1, queue_depth: 1 },
        ));
        let permit = frontend.permit().expect("slot free");
        let jra = {
            let frontend = Arc::clone(&frontend);
            std::thread::spawn(move || answer_of(frontend.jra(&spec(0))))
        };
        wait_until(&frontend, |c| c.queued == 1);
        // The waiting jra fills the room, so a batch is refused at once
        // instead of waiting beside it.
        let batch = {
            let frontend = Arc::clone(&frontend);
            std::thread::spawn(move || {
                crate::server::handle_line(
                    &*frontend,
                    r#"{"op":"batch","queries":[{"paper_id":1}]}"#,
                )
            })
        };
        wait_until(&frontend, |c| c.rejected == 1 || c.queued == 2);
        let waited = frontend.counters().queued;
        drop(permit);
        let reply = batch.join().unwrap();
        assert!(jra.join().unwrap().results[0].score > 0.0);
        assert_eq!(waited, 1, "one waiting room bounds jra and batch together");
        assert_eq!(reply.get("busy").and_then(crate::json::Json::as_bool), Some(true), "{reply}");
        assert_eq!(frontend.counters().rejected, 1);
    }

    #[test]
    fn admission_rejects_when_saturated() {
        let frontend =
            Frontend::new(test_service(), FrontendOptions { max_inflight: 1, queue_depth: 0 });
        let permit = frontend.permit().expect("first permit");
        // Queue depth 0: with the only slot held, both paths reject.
        assert!(matches!(frontend.jra(&spec(0)), JraOutcome::Busy));
        assert!(frontend.permit().is_none());
        assert_eq!(frontend.counters().rejected, 2);
        drop(permit);
        // Capacity back: both paths admit again.
        assert!(matches!(frontend.jra(&spec(0)), JraOutcome::Done { .. }));
        assert!(frontend.permit().is_some());
        assert_eq!(frontend.counters().rejected, 2);
    }

    #[test]
    fn cache_capacity_zero_still_answers_through_frontend() {
        let text = "\
topics 2
delta_p 1
delta_r 2
reviewer a 1.0 0.0
reviewer b 0.0 1.0
paper p 0.5 0.5
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        let service = Arc::new(Service::from_store(
            crate::store::VersionedStore::new(inst, Scoring::PaperCoverage, 7),
            ServeOptions { cache_cap: 0, ..ServeOptions::default() },
        ));
        let frontend = Frontend::with_defaults(Arc::clone(&service));
        let first = answer_of(frontend.jra(&spec(0)));
        let second = answer_of(frontend.jra(&spec(0)));
        assert_eq!(first.results[0].score.to_bits(), second.results[0].score.to_bits());
        let c = service.cache_counters();
        assert_eq!((c.size, c.hits, c.capacity), (0, 0, 0), "cap 0 never stores");
        assert_eq!(c.misses, 2);
    }
}
