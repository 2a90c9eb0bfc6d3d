//! The `wgrap serve` wire layer: newline-delimited JSON over stdin/stdout or
//! `std::net` TCP, in front of either a local [`Frontend`] or the sharding
//! [`Router`](crate::shard::Router).
//!
//! One request per line, one response line per request, in request order —
//! offline-friendly (no TLS, no HTTP, no registry dependencies), trivially
//! scriptable (`wgrap serve inst.wgrap < requests.ndjson`), and
//! deterministic: the same request stream against the same instance
//! produces byte-identical responses, which the golden-file smoke tests
//! rely on (one golden per protocol version, shared by rayon on/off).
//!
//! This module is the only copy of the protocol's framing: the line loop
//! and its bounds, the TCP accept loop, `"v"` negotiation, the error and
//! `"busy"` shapes, `requests_total` counting and the `metrics` op. The
//! five data ops (`jra`, `batch`, `update`, `assign`, `stats`) dispatch to
//! a [`Backend`]. For a [`Frontend`] each is a thin JSON skin over the
//! typed [`api`](crate::api) layer: requests parse into a
//! [`SolveRequest`], plan and execute through [`Service`](crate::api::Service), and the
//! [`Outcome`](crate::api::Outcome) renders in the wire shape of the requested protocol
//! version. The server owns **no** solving or defaulting logic of its own.
//!
//! Checks are split by what they need. The wire layer checks what a line
//! alone determines: JSON syntax, member names and types, and each weight
//! vector (`paper`, `topics`, `expertise`), whose weights must be finite
//! and non-negative and whose sum must be 0 or a finite normal number
//! (the rule [`Instance::check_vector`](wgrap_core::prelude::Instance::check_vector)
//! applies to every vector an instance takes in).
//! Every check of a JRA query against the instance runs in
//! [`Service::plan`](crate::api::Service::plan), before a `jra` takes a
//! solve slot: paper names and ids, `delta_p`, `top_k` (at most
//! [`MAX_TOP_K`](crate::api::MAX_TOP_K)), excludes and ad-hoc dimensions.
//! The store checks an update batch's ids while it builds the next epoch.
//!
//! # Protocol versions
//!
//! A request opts into version 2 with `"v":2`; requests without a `"v"`
//! field (or with `"v":1`) speak version 1, whose responses are
//! byte-identical to the pre-`api` server — v1 sessions replay exactly
//! against their existing goldens.
//!
//! ```text
//! v1 (implicit):
//! {"op":"jra","paper":[0.2,0.8],"delta_p":2,"top_k":3,"exclude":[4]}
//! {"op":"jra","paper_id":0}            |  {"op":"jra","paper_name":"p-17"}
//! {"op":"batch","queries":[{...},...]} -- many jra queries, one snapshot
//! {"op":"update","updates":[{"kind":"add_reviewer","name":"dave","expertise":[...]},
//!                           {"kind":"add_paper","topics":[...],"coi":[0]},
//!                           {"kind":"retire_reviewer","reviewer":3},
//!                           {"kind":"patch_scores","reviewer":0,"expertise":[...]}]}
//! {"op":"assign","method":"sdga-sra"}  -- full CRA at the admitted epoch
//! {"op":"stats"}
//!
//! v2 (same ops and fields, plus):
//! {"v":2,"op":"jra","paper_id":0}      -- response carries "cache" and "key"
//! {"v":2,"op":"batch","queries":[{"paper_id":0,"pruning":"exact"},...]}
//!                                      -- per-entry pruning override + per-entry
//!                                         "cache"/"key" in the response
//! {"v":2,"op":"stats"}                 -- adds result-cache counters and the
//!                                         store's build-vs-publish batch counts
//! {"v":2,"op":"stats","timings":true}  -- adds wall-clock build/publish timings
//!                                         (non-deterministic; excluded from goldens)
//! ```
//!
//! v2 responses add `"cache"` (`"hit"`/`"miss"` — a hit is **bit-identical**
//! to the cold solve by the cache contract), the request's canonical
//! `"key"`, and `"loss_bound"` under `TopK` pruning. Wall-clock timings from
//! [`Diagnostics`](crate::api::Diagnostics) are deliberately **not** rendered on solve responses:
//! responses stay byte-deterministic (library consumers read
//! [`Outcome::diag`](crate::api::Outcome) instead; `stats` exposes timings only
//! on request).
//!
//! # Input bounds
//!
//! A request line longer than [`MAX_LINE_BYTES`] is answered with an error
//! and skipped without buffering the rest of it, and JSON nested deeper
//! than [`json::MAX_DEPTH`] fails to parse. Either way the reply is a
//! plain `{"ok":false,...}` and the session continues. On the metrics
//! endpoint, a request line plus headers longer than
//! [`MAX_METRICS_REQUEST_BYTES`] is answered `431` and the connection
//! closed, and a client that sends nothing for [`METRICS_READ_TIMEOUT`]
//! is disconnected, which frees its thread and socket. NDJSON sessions
//! get no read timeout: router-to-shard links sit idle between requests.
//!
//! # Framing
//!
//! One reply is one `write`: [`serve_connection`] renders the reply into a
//! buffer it reuses across replies, appends the `\n` and hands the whole
//! line to the socket at once (the router sends each forwarded request the
//! same way). Rendering a [`Json`] straight into a socket would make one
//! `write` per token and per string character, and with Nagle's algorithm
//! on, everything after the first segment would wait for the peer's
//! delayed ACK: ~40 ms per reply, twice that through the router.
//! `TCP_NODELAY` is not set: with one write per reply it buys nothing on
//! loopback. Round trips of 83 KB and 828 KB `batch` replies, and a
//! pipelined session of 100 `jra` requests, timed the same with and
//! without it, within run-to-run noise. Its effect on a real network link
//! is unmeasured.
//!
//! The TCP and metrics listeners share one accept loop. A failed `accept`
//! (most often an exhausted fd table) counts in `accept_errors_total` and
//! is retried after `ACCEPT_RETRY_DELAY` (10 ms) instead of ending the
//! server; a connection whose thread cannot be spawned is dropped. A TCP
//! session reads and writes through its one socket, so it holds one fd.
//!
//! # Concurrency
//!
//! Connections share one [`Frontend`] over the internally synchronized
//! [`Service`](crate::api::Service). Queries and CRA runs admit at an epoch (an
//! `Arc<Snapshot>` clone) and solve lock-free; updates build copy-on-write
//! off the read path and publish with a bare `Arc` swap
//! ([`VersionedStore`](crate::store::VersionedStore)'s build/publish
//! split), so a `jra` admission on one TCP connection proceeds even while
//! an update batch is mid-build on another. The front-end adds admission
//! control on top (see [`crate::frontend`]): every `jra`, `batch` and
//! `assign` takes one solve slot, and a saturated server answers
//! `{"ok":false,"busy":true,...}` instead of queueing without bound.

use crate::api::{Answer, CacheStatus, JraAnswer, JraSpec, PaperRef, SolveRequest};
use crate::frontend::{Frontend, JraOutcome};
use crate::json::{self, Json};
use crate::store::Update;
use crate::telemetry::trace::FinishedTrace;
use crate::telemetry::{Counter, Telemetry};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use wgrap_core::engine::{spec, PruningPolicy};
use wgrap_core::jra::JraResult;
use wgrap_core::topic::TopicVector;

/// Longest request line the wire layer buffers, in bytes.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Longest request line plus headers the metrics endpoint reads, in bytes.
pub const MAX_METRICS_REQUEST_BYTES: u64 = 8 << 10;

/// How long the metrics endpoint waits for each read of a request before
/// it drops the connection. Scrapers send their request at once; a client
/// that stays silent would otherwise hold a thread and a socket forever.
pub const METRICS_READ_TIMEOUT: Duration = Duration::from_secs(3);

/// After answering an oversized metrics request, the most request bytes
/// read and discarded before closing. Closing a socket with unread input
/// resets the connection, which can destroy the reply in flight.
const METRICS_DRAIN_BYTES: u64 = 4 << 20;

/// How long an accept loop waits after a failed `accept` before it tries
/// again. An exhausted fd table clears only when a connection closes, so
/// retrying at once would spin a core.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(10);

/// The protocol version a request speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// No `"v"` member, or `"v":1`: the original reply shapes, byte for byte.
    V1,
    /// `"v":2`: diagnostics, the `metrics` op and v2-only members.
    V2,
}

/// What serves the five data ops behind the wire layer: a local
/// [`Frontend`], or the [`Router`](crate::shard::Router) over shards. Each
/// op returns its reply, or an error message the wire layer renders.
pub trait Backend: Send + Sync {
    /// The registry `metrics` reports and `--metrics-listen` serves.
    fn telemetry(&self) -> &Arc<Telemetry>;
    /// The `requests_total` counters, resolved in that registry.
    fn request_counters(&self) -> &RequestCounters;
    /// Count one served session.
    fn note_connection(&self) {}
    /// `jra`: one query.
    fn jra(&self, request: &Json, proto: Protocol) -> Result<Json, String>;
    /// `batch`: many queries at one epoch.
    fn batch(&self, request: &Json, proto: Protocol) -> Result<Json, String>;
    /// `update`: one update batch.
    fn update(&self, request: &Json, proto: Protocol) -> Result<Json, String>;
    /// `assign`: a full CRA run.
    fn assign(&self, request: &Json, proto: Protocol) -> Result<Json, String>;
    /// `stats`: instance shape and serving counters.
    fn stats(&self, request: &Json, proto: Protocol) -> Result<Json, String>;
}

/// Per-op `requests_total{op=…}` counters, resolved once so dispatch never
/// takes the registry lock. Only these ops count: the names are a fixed
/// whitelist, so client-chosen op strings can never mint registry series.
pub struct RequestCounters([Arc<Counter>; 6]);

impl RequestCounters {
    const OPS: [&'static str; 6] = ["jra", "batch", "update", "assign", "stats", "metrics"];

    /// Resolve the counters in `telemetry`.
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        Self(Self::OPS.map(|op| telemetry.counter(&format!("requests_total{{op=\"{op}\"}}"))))
    }

    fn count(&self, op: &str) {
        if let Some(i) = Self::OPS.iter().position(|&known| known == op) {
            self.0[i].inc();
        }
    }
}

/// The one request-line loop. Hands each non-blank line to `f`, or an
/// error message for a line that is longer than [`MAX_LINE_BYTES`] (the
/// rest of it is skipped unbuffered) or not UTF-8.
fn for_each_line<R: BufRead>(
    mut input: R,
    mut f: impl FnMut(Result<&str, String>) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
        if read == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if read > MAX_LINE_BYTES {
            input.skip_until(b'\n')?;
            f(Err(format!("request line longer than {MAX_LINE_BYTES} bytes")))?;
            continue;
        }
        match std::str::from_utf8(&buf) {
            Err(_) => f(Err("request line is not UTF-8".into()))?,
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => f(Ok(line))?,
        }
    }
}

/// Run a request/response session: one JSON request per input line, one
/// JSON response per line on `out`, until EOF. Malformed lines produce an
/// `{"ok":false,...}` response and the session continues. Each response
/// line reaches `out` in a single `write` (see [Framing](crate::server#framing)).
pub fn serve_connection<B: Backend + ?Sized, R: BufRead, W: Write>(
    backend: &B,
    input: R,
    mut out: W,
) -> io::Result<()> {
    backend.note_connection();
    let mut reply = String::new();
    for_each_line(input, |line| {
        let response = match line {
            Ok(line) => handle_line(backend, line),
            Err(message) => error_reply(Protocol::V1, &message),
        };
        reply.clear();
        write!(reply, "{response}").expect("rendering into a String cannot fail");
        reply.push('\n');
        out.write_all(reply.as_bytes())?;
        out.flush()
    })
}

/// Serve a single session over stdin/stdout (the piping mode).
pub fn serve_stdio<B: Backend + ?Sized>(backend: &B) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(backend, stdin.lock(), stdout.lock())
}

/// Accept TCP connections forever, one thread per connection, all sharing
/// the backend (updates from any connection are visible to all at the
/// next epoch; admission bounds apply across all connections). The
/// listener is bound by the caller so tests can pick port 0. Never
/// returns: accept errors are counted and retried.
pub fn serve_tcp<B: Backend + 'static>(listener: TcpListener, backend: Arc<B>) -> ! {
    let telemetry = Arc::clone(backend.telemetry());
    accept_loop(listener, &telemetry, move |socket| {
        let _ = serve_connection(backend.as_ref(), BufReader::new(&socket), &socket);
    })
}

/// Serve the telemetry registry as Prometheus text exposition over bare
/// HTTP/1.1 (the CLI's `--metrics-listen` endpoint). Hand-rolled in the
/// same no-dependency spirit as [`crate::json`]: one thread per request,
/// read the request line, drain the headers, answer `GET /metrics` (or
/// `GET /`) with [`MetricsSnapshot::to_prometheus`](crate::telemetry::MetricsSnapshot::to_prometheus)
/// and anything else with a 404, then close. Never returns, like
/// [`serve_tcp`].
pub fn serve_metrics(listener: TcpListener, telemetry: Arc<Telemetry>) -> ! {
    let registry = Arc::clone(&telemetry);
    accept_loop(listener, &registry, move |socket| {
        let _ = serve_metrics_once(socket, &telemetry);
    })
}

/// The accept loop behind [`serve_tcp`] and [`serve_metrics`]: `serve`
/// each accepted socket on a thread of its own, forever. A failed `accept`
/// counts in `telemetry`'s `accept_errors_total` and is retried after
/// [`ACCEPT_RETRY_DELAY`]. When no thread can be spawned, the connection
/// is dropped.
fn accept_loop(
    listener: TcpListener,
    telemetry: &Telemetry,
    serve: impl Fn(TcpStream) + Clone + Send + 'static,
) -> ! {
    let errors = telemetry.counter("accept_errors_total");
    loop {
        match listener.accept() {
            Ok((socket, _)) => {
                let serve = serve.clone();
                // A failed spawn drops the closure, and the socket with it.
                let _ = std::thread::Builder::new().spawn(move || serve(socket));
            }
            Err(_) => {
                errors.inc();
                std::thread::sleep(ACCEPT_RETRY_DELAY);
            }
        }
    }
}

fn serve_metrics_once(socket: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    socket.set_read_timeout(Some(METRICS_READ_TIMEOUT))?;
    let mut reader = BufReader::new((&socket).take(MAX_METRICS_REQUEST_BYTES));
    let mut request_line = Vec::new();
    let mut head_complete = false;
    if reader.read_until(b'\n', &mut request_line)? > 0 && request_line.ends_with(b"\n") {
        // Drain headers up to the blank line; nothing in them matters here.
        let mut header = Vec::new();
        loop {
            header.clear();
            if reader.read_until(b'\n', &mut header)? == 0 || !header.ends_with(b"\n") {
                break;
            }
            if header.trim_ascii().is_empty() {
                head_complete = true;
                break;
            }
        }
    }
    // A client that ends its input early still gets an answer; one that hit
    // the cap without finishing its headers gets a 431.
    let oversized = !head_complete && reader.get_ref().limit() == 0;
    let request_line = String::from_utf8_lossy(&request_line);
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if oversized {
        ("431 Request Header Fields Too Large", "request too large\n".to_string())
    } else if request_line.starts_with("GET ") && (path == "/metrics" || path == "/") {
        ("200 OK", telemetry.snapshot().to_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let mut writer = &socket;
    write!(
        writer,
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()?;
    if oversized {
        socket.shutdown(std::net::Shutdown::Write)?;
        io::copy(&mut reader.into_inner().into_inner().take(METRICS_DRAIN_BYTES), &mut io::sink())?;
    }
    Ok(())
}

/// One message to a multi-session connection thread.
enum MultiMsg {
    /// A request line to handle.
    Line(String),
    /// A barrier marker: drop the sender once every earlier line on this
    /// connection has been handled (channel FIFO makes that ordering
    /// free).
    Sync(mpsc::Sender<()>),
}

/// The deterministic multi-session harness behind `wgrap serve --multi`:
/// replay an interleaved N-client session from one input stream, with a
/// real thread per client hitting the shared backend concurrently.
///
/// Input format, one line each:
///
/// - `<cid> <json-request>` — dispatch the request on connection `cid`
///   (any whitespace-free token; a thread is spawned lazily on first
///   use). Lines for *different* connections genuinely race: they are
///   forwarded immediately and handled concurrently.
/// - `#sync` — a global barrier: wait until every connection has handled
///   all its earlier lines. Fixtures use this to isolate updates, so the
///   epoch every phase observes is deterministic.
/// - `#...` — comment, ignored. Blank lines are ignored.
///
/// Output: after EOF, each connection's responses are written in order as
/// `<cid>\t<response>` lines, grouped by connection in first-seen order —
/// deterministic regardless of thread scheduling, because each
/// connection's responses depend only on its own request order and the
/// barrier-delimited epoch.
pub fn serve_multi<B: Backend + 'static, R: BufRead, W: Write>(
    backend: &Arc<B>,
    input: R,
    mut out: W,
) -> io::Result<()> {
    type Conn = (mpsc::Sender<MultiMsg>, std::thread::JoinHandle<Vec<String>>);
    let mut order: Vec<String> = Vec::new();
    let mut conns: HashMap<String, Conn> = HashMap::new();
    for_each_line(input, |line| {
        let trimmed = match line {
            Ok(line) => line.trim(),
            Err(message) => return writeln!(out, "#error\t{message}"),
        };
        if trimmed == "#sync" {
            let (ack_tx, ack_rx) = mpsc::channel();
            for cid in &order {
                let _ = conns[cid].0.send(MultiMsg::Sync(ack_tx.clone()));
            }
            drop(ack_tx);
            // Drained when every connection dropped its clone.
            while ack_rx.recv().is_ok() {}
            return Ok(());
        }
        if trimmed.starts_with('#') {
            return Ok(());
        }
        let Some((cid, payload)) = trimmed.split_once(char::is_whitespace) else {
            return writeln!(out, "#error\tline needs '<cid> <request>': {trimmed}");
        };
        let payload = payload.trim().to_string();
        let tx = match conns.get(cid) {
            Some((tx, _)) => tx.clone(),
            None => {
                let (tx, rx) = mpsc::channel::<MultiMsg>();
                let backend = Arc::clone(backend);
                let handle = std::thread::spawn(move || {
                    backend.note_connection();
                    let mut responses = Vec::new();
                    for msg in rx {
                        match msg {
                            MultiMsg::Line(l) => {
                                responses.push(handle_line(backend.as_ref(), &l).to_string())
                            }
                            MultiMsg::Sync(ack) => drop(ack),
                        }
                    }
                    responses
                });
                order.push(cid.to_string());
                conns.insert(cid.to_string(), (tx.clone(), handle));
                tx
            }
        };
        let _ = tx.send(MultiMsg::Line(payload));
        Ok(())
    })?;
    for cid in &order {
        let (tx, handle) = conns.remove(cid).expect("order tracks conns");
        drop(tx);
        let responses =
            handle.join().map_err(|_| io::Error::other("connection thread panicked"))?;
        for r in responses {
            writeln!(out, "{cid}\t{r}")?;
        }
    }
    out.flush()
}

/// Handle one request line and render the response (never panics on bad
/// input — every error becomes an `{"ok":false,...}` response).
pub fn handle_line<B: Backend + ?Sized>(backend: &B, line: &str) -> Json {
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_reply(Protocol::V1, &format!("bad JSON: {e}")),
    };
    let proto = match request.get("v") {
        None => Protocol::V1,
        Some(v) => match v.as_usize() {
            Some(1) => Protocol::V1,
            Some(2) => Protocol::V2,
            _ => return error_reply(Protocol::V1, "unsupported protocol version (valid: 1, 2)"),
        },
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return error_reply(proto, "missing \"op\"");
    };
    backend.request_counters().count(op);
    let result = match op {
        "jra" => backend.jra(&request, proto),
        "batch" => backend.batch(&request, proto),
        "update" => backend.update(&request, proto),
        "assign" => backend.assign(&request, proto),
        "stats" => backend.stats(&request, proto),
        "metrics" => metrics(backend.telemetry(), &request, proto),
        other => Err(format!("unknown op '{other}'")),
    };
    result.unwrap_or_else(|e| error_reply(proto, &e))
}

/// The members every reply opens with: `"ok"`, then `"v":2` under v2.
pub(crate) fn reply_head(ok: bool, proto: Protocol) -> Vec<(&'static str, Json)> {
    let mut members = vec![("ok", Json::Bool(ok))];
    if proto == Protocol::V2 {
        members.push(("v", Json::Num(2.0)));
    }
    members
}

/// The `{"ok":false,...,"error":…}` reply for a request that failed.
/// Per-entry `batch` errors use the v1 shape at either version.
pub(crate) fn error_reply(proto: Protocol, message: &str) -> Json {
    let mut members = reply_head(false, proto);
    members.push(("error", Json::Str(message.into())));
    Json::obj(members)
}

/// The structured admission-control rejection: `"busy":true` marks it as
/// retryable (the request was never queued or solved), distinct from the
/// plain `"error"` shape that means the request itself was bad.
fn busy_response(proto: Protocol) -> Json {
    let mut members = reply_head(false, proto);
    members.push(("busy", Json::Bool(true)));
    members.push(("error", Json::Str("busy: server at capacity, retry later".into())));
    Json::obj(members)
}

/// The v2 `metrics` op: a full registry snapshot. The default shape is
/// deterministic for a fixed session (counters, gauges, histogram
/// *counts* — golden-tested, rayon on or off); `"timings":true` adds
/// wall-clock quantiles and `"slow":true` the slow-query log, both
/// non-deterministic and never golden-diffed. Bypasses admission like
/// `stats`: observability must work on a saturated server.
fn metrics(telemetry: &Telemetry, request: &Json, proto: Protocol) -> Result<Json, String> {
    if proto != Protocol::V2 {
        return Err("\"metrics\" requires protocol v2 (send \"v\":2)".into());
    }
    let timings = request.get("timings").and_then(Json::as_bool) == Some(true);
    let mut obj = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("v".to_string(), Json::Num(2.0)),
        ("op".to_string(), Json::Str("metrics".into())),
    ];
    let Json::Obj(body) = telemetry.snapshot().to_json(timings) else {
        unreachable!("snapshot renders an object")
    };
    obj.extend(body);
    if request.get("slow").and_then(Json::as_bool) == Some(true) {
        let slow = telemetry.traces().slow();
        obj.push((
            "slow".to_string(),
            Json::Arr(slow.iter().map(|t| t.to_json(timings)).collect()),
        ));
    }
    Ok(Json::Obj(obj))
}

/// The opt-in `"trace":true` member (v2 only): the request's span tree,
/// structure-only unless `"timings":true` is also set — golden sessions
/// can assert span names/nesting/counts without touching wall clocks.
fn trace_member(
    request: &Json,
    proto: Protocol,
    trace: Option<&FinishedTrace>,
) -> Option<(&'static str, Json)> {
    if proto != Protocol::V2 || request.get("trace").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let timings = request.get("timings").and_then(Json::as_bool) == Some(true);
    trace.map(|t| ("trace", t.to_json(timings)))
}

fn request_pruning(request: &Json) -> Result<Option<PruningPolicy>, String> {
    match request.get("pruning") {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .ok_or_else(|| "\"pruning\" must be a string".to_string())?
            .parse::<PruningPolicy>()
            .map(Some),
    }
}

/// Parse one weight vector: the `paper` of a query, an added paper's
/// `topics`, or an `expertise` row. A weight sum scores cannot divide by
/// ([`TopicVector::has_usable_total`]) fails the line here, naming the
/// member; the instance and the planner refuse it too, for vectors that
/// do not arrive over the wire.
fn parse_topics(value: &Json, what: &str) -> Result<TopicVector, String> {
    let arr = value.as_arr().ok_or_else(|| format!("\"{what}\" must be an array of numbers"))?;
    let mut weights = Vec::with_capacity(arr.len());
    for v in arr {
        let n = v.as_f64().ok_or_else(|| format!("\"{what}\" must be an array of numbers"))?;
        if !n.is_finite() || n < 0.0 {
            return Err(format!("\"{what}\" weights must be finite and >= 0"));
        }
        weights.push(n);
    }
    let topics = TopicVector::new(weights);
    if !topics.has_usable_total() {
        return Err(format!("\"{what}\" weights must sum to 0 or a finite normal number"));
    }
    Ok(topics)
}

fn parse_ids(value: Option<&Json>, what: &str) -> Result<Vec<u32>, String> {
    match value {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| format!("\"{what}\" must be an array of ids"))?
            .iter()
            .map(|x| {
                x.as_usize()
                    .map(|n| n as u32)
                    .ok_or_else(|| format!("\"{what}\" must be an array of ids"))
            })
            .collect(),
    }
}

/// Parse one JRA query's fields into a typed [`JraSpec`]. Purely
/// structural — names, ids and ranges are checked later, during planning,
/// so an unknown name or an out-of-range value fails its own entry, not
/// the parse.
fn parse_jra_spec(request: &Json, pruning: Option<PruningPolicy>) -> Result<JraSpec, String> {
    let paper = match (request.get("paper"), request.get("paper_id"), request.get("paper_name")) {
        (Some(topics), None, None) => PaperRef::Adhoc(parse_topics(topics, "paper")?),
        (None, Some(id), None) => {
            PaperRef::Id(id.as_usize().ok_or("\"paper_id\" must be an integer")?)
        }
        (None, None, Some(name)) => {
            PaperRef::Name(name.as_str().ok_or("\"paper_name\" must be a string")?.to_string())
        }
        _ => return Err("give exactly one of \"paper\", \"paper_id\", \"paper_name\"".into()),
    };
    let delta_p = match request.get("delta_p") {
        None => None,
        Some(v) => Some(v.as_usize().ok_or("\"delta_p\" must be a positive integer")?),
    };
    let top_k = match request.get("top_k") {
        None => 1,
        Some(v) => v.as_usize().ok_or("\"top_k\" must be a positive integer")?,
    };
    // An entry-level "pruning" overrides the request-level override.
    let pruning = request_pruning(request)?.or(pruning);
    Ok(JraSpec {
        paper,
        delta_p,
        top_k,
        exclude: parse_ids(request.get("exclude"), "exclude")?,
        pruning,
    })
}

fn render_results(names: &dyn Fn(usize) -> String, results: &[JraResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|res| {
                Json::obj([
                    ("group", Json::nums(res.group.iter().map(|&r| r as f64))),
                    (
                        "reviewers",
                        Json::Arr(res.group.iter().map(|&r| Json::Str(names(r))).collect()),
                    ),
                    ("score", Json::Num(res.score)),
                    ("nodes", Json::Num(res.nodes as f64)),
                ])
            })
            .collect(),
    )
}

/// The v2 diagnostic members shared by solve responses: `"cache"`, the
/// canonical `"key"`, and (under `TopK`) `"loss_bound"`.
fn v2_diag_members(
    cache: CacheStatus,
    key: Option<&crate::api::RequestKey>,
    loss_bound: Option<f64>,
) -> Vec<(&'static str, Json)> {
    let mut members = vec![("cache", Json::Str(cache.label().into()))];
    if let Some(key) = key {
        members.push(("key", Json::Str(key.to_string())));
    }
    if let Some(bound) = loss_bound {
        members.push(("loss_bound", Json::Num(bound)));
    }
    members
}

fn parse_update(value: &Json) -> Result<Update, String> {
    let kind = value.get("kind").and_then(Json::as_str).ok_or("update needs a \"kind\"")?;
    let name = match value.get("name") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("\"name\" must be a string")?.to_string()),
    };
    match kind {
        "add_paper" => Ok(Update::AddPaper {
            name,
            topics: parse_topics(
                value.get("topics").ok_or("add_paper needs \"topics\"")?,
                "topics",
            )?,
            coi: parse_ids(value.get("coi"), "coi")?,
        }),
        "add_reviewer" => Ok(Update::AddReviewer {
            name,
            expertise: parse_topics(
                value.get("expertise").ok_or("add_reviewer needs \"expertise\"")?,
                "expertise",
            )?,
        }),
        "retire_reviewer" => Ok(Update::RetireReviewer {
            reviewer: value
                .get("reviewer")
                .and_then(Json::as_usize)
                .ok_or("retire_reviewer needs a \"reviewer\" id")? as u32,
        }),
        "patch_scores" => Ok(Update::PatchScores {
            reviewer: value
                .get("reviewer")
                .and_then(Json::as_usize)
                .ok_or("patch_scores needs a \"reviewer\" id")? as u32,
            expertise: parse_topics(
                value.get("expertise").ok_or("patch_scores needs \"expertise\"")?,
                "expertise",
            )?,
        }),
        other => Err(format!("unknown update kind '{other}'")),
    }
}

/// The local backend: every op plans and executes through the front-end's
/// [`Service`](crate::api::Service).
impl Backend for Frontend {
    fn telemetry(&self) -> &Arc<Telemetry> {
        self.service().telemetry()
    }

    fn request_counters(&self) -> &RequestCounters {
        self.requests()
    }

    fn note_connection(&self) {
        Frontend::note_connection(self)
    }

    /// A single `jra`: planned, then solved in its own solve slot
    /// ([`Frontend::jra`]).
    fn jra(&self, request: &Json, proto: Protocol) -> Result<Json, String> {
        let pruning = request_pruning(request)?;
        let spec = parse_jra_spec(request, pruning)?;
        let (snapshot, answer, loss_bound, trace) = match Frontend::jra(self, &spec) {
            JraOutcome::Busy => return Ok(busy_response(proto)),
            JraOutcome::Done { snapshot, answer, loss_bound, trace } => {
                (snapshot, answer, loss_bound, trace)
            }
        };
        let answer = answer?;
        let names = |r: usize| snapshot.instance().reviewer_name(r);
        let mut members = reply_head(true, proto);
        members.push(("op", Json::Str("jra".into())));
        members.push(("epoch", Json::Num(snapshot.epoch() as f64)));
        if proto == Protocol::V2 {
            members.extend(v2_diag_members(answer.cache, Some(&answer.key), loss_bound));
        }
        members.push(("results", render_results(&names, &answer.results)));
        members.extend(trace_member(request, proto, Some(&trace)));
        Ok(Json::obj(members))
    }

    /// An explicit `batch`: all its queries share one solve slot (a
    /// saturated server answers `"busy"`).
    fn batch(&self, request: &Json, proto: Protocol) -> Result<Json, String> {
        let pruning = request_pruning(request)?;
        // Per-entry failure independence holds at parse time too: a malformed
        // batch entry gets its own error entry while its neighbours still run.
        // `slots` maps each positional entry to its parsed spec or parse error.
        let mut specs: Vec<JraSpec> = Vec::new();
        let mut slots: Vec<Result<usize, String>> = Vec::new();
        let queries =
            request.get("queries").and_then(Json::as_arr).ok_or("\"queries\" must be an array")?;
        for q in queries {
            match parse_jra_spec(q, pruning) {
                Ok(spec) => {
                    slots.push(Ok(specs.len()));
                    specs.push(spec);
                }
                Err(e) => slots.push(Err(e)),
            }
        }

        let Some(_permit) = self.permit() else {
            return Ok(busy_response(proto));
        };
        let service = self.service();
        let plan = service.plan(&SolveRequest::JraBatch(specs));
        let snapshot = Arc::clone(&plan.snapshot);
        let outcome = service.execute_plan(plan).map_err(|e| e.to_string())?;
        let Answer::Jra(answers) = &outcome.answer else { unreachable!("jra request, jra answer") };
        let names = |r: usize| snapshot.instance().reviewer_name(r);

        let entry = |slot: &Result<usize, String>| -> Result<&JraAnswer, String> {
            match slot {
                Ok(i) => answers[*i].as_ref().map_err(Clone::clone),
                Err(e) => Err(e.clone()),
            }
        };
        let results: Vec<Json> = slots
            .iter()
            .map(|slot| match entry(slot) {
                Err(e) => error_reply(Protocol::V1, &e),
                Ok(answer) => {
                    let mut members = vec![("ok", Json::Bool(true))];
                    if proto == Protocol::V2 {
                        members.extend(v2_diag_members(answer.cache, Some(&answer.key), None));
                    }
                    members.push(("results", render_results(&names, &answer.results)));
                    Json::obj(members)
                }
            })
            .collect();
        let mut members = reply_head(true, proto);
        members.push(("op", Json::Str("batch".into())));
        members.push(("epoch", Json::Num(snapshot.epoch() as f64)));
        if proto == Protocol::V2 {
            members.extend(v2_diag_members(
                outcome.diag.cache,
                outcome.diag.key.as_ref(),
                outcome.diag.loss_bound,
            ));
        }
        members.push(("results", Json::Arr(results)));
        members.extend(trace_member(request, proto, outcome.trace.as_deref()));
        Ok(Json::obj(members))
    }

    /// `update` bypasses admission entirely: the write path must never queue
    /// behind reads (the store's build/publish split keeps it cheap), and a
    /// saturated server still has to accept updates.
    fn update(&self, request: &Json, proto: Protocol) -> Result<Json, String> {
        let items =
            request.get("updates").and_then(Json::as_arr).ok_or("\"updates\" must be an array")?;
        let updates: Vec<Update> = items.iter().map(parse_update).collect::<Result<_, _>>()?;
        // Group-commit bracket: concurrent update requests open overlapping
        // fsync waves, so under `--fsync batch` one fsync covers the whole
        // admission burst instead of running per batch. No-op without
        // durability or under other policies.
        let wave = self.service().store().durability().map(|d| d.begin_wave());
        let outcome =
            self.service().execute(&SolveRequest::Update(updates)).map_err(|e| e.to_string())?;
        drop(wave);
        let Answer::Update(answer) = &outcome.answer else { unreachable!("update answer") };
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("update".into())),
            ("epoch", Json::Num(outcome.diag.epoch as f64)),
            ("applied", Json::Num(answer.applied as f64)),
            ("papers", Json::Num(answer.papers as f64)),
            ("reviewers", Json::Num(answer.reviewers as f64)),
        ]);
        members.extend(trace_member(request, proto, outcome.trace.as_deref()));
        Ok(Json::obj(members))
    }

    /// A full CRA `assign` is the heavyweight consumer: it takes one direct
    /// solve slot under admission control, like an explicit `batch`.
    fn assign(&self, request: &Json, proto: Protocol) -> Result<Json, String> {
        let pruning = request_pruning(request)?;
        let method = match request.get("method") {
            None => None,
            Some(v) => {
                let label = v.as_str().ok_or("\"method\" must be a string")?;
                Some(spec::method_by_label(label).map_err(|e| e.to_string())?)
            }
        };
        let Some(_permit) = self.permit() else {
            return Ok(busy_response(proto));
        };
        let outcome = self
            .service()
            .execute(&SolveRequest::Cra { method, pruning, seed: None })
            .map_err(|e| e.to_string())?;
        let Answer::Cra(answer) = &outcome.answer else { unreachable!("cra answer") };
        let groups: Vec<Json> = (0..answer.assignment.num_papers())
            .map(|p| Json::nums(answer.assignment.group(p).iter().map(|&r| r as f64)))
            .collect();
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("assign".into())),
            ("epoch", Json::Num(outcome.diag.epoch as f64)),
        ]);
        if proto == Protocol::V2 {
            members.extend(v2_diag_members(
                outcome.diag.cache,
                outcome.diag.key.as_ref(),
                outcome.diag.loss_bound,
            ));
        }
        members.extend([
            ("method", Json::Str(answer.method.label().into())),
            ("coverage", Json::Num(answer.coverage)),
            ("groups", Json::Arr(groups)),
        ]);
        members.extend(trace_member(request, proto, outcome.trace.as_deref()));
        Ok(Json::obj(members))
    }

    /// `stats` bypasses admission: observability must work precisely when the
    /// server is saturated and everything else answers `"busy"`.
    fn stats(&self, request: &Json, proto: Protocol) -> Result<Json, String> {
        let outcome = self.service().execute(&SolveRequest::Stats).map_err(|e| e.to_string())?;
        let Answer::Stats(stats) = &outcome.answer else { unreachable!("stats answer") };
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("stats".into())),
            ("epoch", Json::Num(outcome.diag.epoch as f64)),
            ("papers", Json::Num(stats.papers as f64)),
            ("reviewers", Json::Num(stats.reviewers as f64)),
            ("topics", Json::Num(stats.topics as f64)),
            ("delta_p", Json::Num(stats.delta_p as f64)),
            ("delta_r", Json::Num(stats.delta_r as f64)),
            ("scoring", Json::Str(stats.scoring.label().into())),
        ]);
        if let Some(s) = stats.support {
            members.push((
                "candidate_support",
                Json::obj([
                    ("min", Json::Num(s.min as f64)),
                    ("p25", Json::Num(s.p25 as f64)),
                    ("median", Json::Num(s.median as f64)),
                    ("p75", Json::Num(s.p75 as f64)),
                    ("max", Json::Num(s.max as f64)),
                ]),
            ));
        }
        if proto == Protocol::V2 {
            members.push((
                "cache",
                Json::obj([
                    ("size", Json::Num(stats.cache.size as f64)),
                    ("cap", Json::Num(stats.cache.capacity as f64)),
                    ("hits", Json::Num(stats.cache.hits as f64)),
                    ("misses", Json::Num(stats.cache.misses as f64)),
                    ("evictions", Json::Num(stats.cache.evictions as f64)),
                ]),
            ));
            // Front-end counters: deterministic for a sequential session
            // (each jra executes alone, so `batches` counts jra requests);
            // golden multi-client sessions read v1 stats instead, since
            // under real concurrency these counters depend on arrival
            // order.
            let front = self.counters();
            members.push((
                "frontend",
                Json::obj([
                    ("connections", Json::Num(front.connections as f64)),
                    ("queued", Json::Num(front.queued as f64)),
                    ("rejected", Json::Num(front.rejected as f64)),
                    ("batches", Json::Num(front.batches as f64)),
                    ("batched_requests", Json::Num(front.batched_requests as f64)),
                    ("max_batch", Json::Num(front.max_batch as f64)),
                ]),
            ));
            // Page counters and snapshot bytes are deterministic (derived from
            // update contents, never wall clocks), so unlike `timings` they are
            // safe in golden sessions and emitted unconditionally.
            members.push((
                "store",
                Json::obj([
                    ("batches", Json::Num(stats.store.batches as f64)),
                    ("updates", Json::Num(stats.store.updates as f64)),
                    ("pages_cloned", Json::Num(stats.store.total_pages_cloned as f64)),
                    ("pages_shared", Json::Num(stats.store.total_pages_shared as f64)),
                    ("last_pages_cloned", Json::Num(stats.store.last_pages_cloned as f64)),
                    ("last_pages_shared", Json::Num(stats.store.last_pages_shared as f64)),
                    ("snapshot_bytes", Json::Num(stats.store.last_snapshot_bytes as f64)),
                    ("peak_snapshot_bytes", Json::Num(stats.store.peak_snapshot_bytes as f64)),
                ]),
            ));
            // Durability counters (bytes, frames, epochs — never wall clocks)
            // are deterministic for a fixed session, but the section only
            // exists when a `--data-dir` is configured: durability-off sessions
            // stay byte-identical to their pre-durability goldens.
            if let Some(d) = &stats.durability {
                members.push((
                    "durability",
                    Json::obj([
                        ("wal_bytes", Json::Num(d.wal_bytes as f64)),
                        ("wal_frames", Json::Num(d.wal_frames as f64)),
                        ("fsyncs", Json::Num(d.fsyncs as f64)),
                        ("last_fsync_epoch", Json::Num(d.last_fsync_epoch as f64)),
                        ("checkpoints", Json::Num(d.checkpoints as f64)),
                        ("last_checkpoint_epoch", Json::Num(d.last_checkpoint_epoch as f64)),
                        ("fsync_policy", Json::Str(d.fsync_policy.label().into())),
                        ("checkpoint_every", Json::Num(d.checkpoint_every as f64)),
                        (
                            "recovered",
                            Json::obj([
                                ("epochs", Json::Num(d.recovered.epochs as f64)),
                                ("frames_replayed", Json::Num(d.recovered.frames_replayed as f64)),
                                (
                                    "truncated_tail_bytes",
                                    Json::Num(d.recovered.truncated_tail_bytes as f64),
                                ),
                            ]),
                        ),
                    ]),
                ));
            }
            // Wall-clock timings are non-deterministic, so they are opt-in:
            // golden sessions never request them.
            if request.get("timings").and_then(Json::as_bool) == Some(true) {
                members.push((
                    "timings",
                    Json::obj([
                        ("last_build_us", Json::Num(stats.store.last_build.as_micros() as f64)),
                        ("total_build_us", Json::Num(stats.store.total_build.as_micros() as f64)),
                        ("last_publish_us", Json::Num(stats.store.last_publish.as_micros() as f64)),
                        (
                            "total_publish_us",
                            Json::Num(stats.store.total_publish.as_micros() as f64),
                        ),
                    ]),
                ));
            }
        }
        members.extend(trace_member(request, proto, outcome.trace.as_deref()));
        Ok(Json::obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgrap_core::prelude::Scoring;

    fn test_instance() -> wgrap_core::prelude::Instance {
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
        wgrap_core::io::parse_instance(text).unwrap()
    }

    fn test_service() -> Frontend {
        let service = crate::api::Service::new(test_instance(), Scoring::WeightedCoverage, 42);
        Frontend::with_defaults(Arc::new(service))
    }

    fn respond(frontend: &Frontend, line: &str) -> Json {
        handle_line(frontend, line)
    }

    fn ok(v: &Json) -> bool {
        v.get("ok").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn jra_by_name_id_and_adhoc_agree() {
        let service = test_service();
        let by_name = respond(&service, r#"{"op":"jra","paper_name":"p-23"}"#);
        let by_id = respond(&service, r#"{"op":"jra","paper_id":1}"#);
        assert!(ok(&by_name) && ok(&by_id));
        assert_eq!(by_name.get("results"), by_id.get("results"));
        // The same vector as an ad-hoc query scores identically (no COI on
        // p-23, so the masks agree too).
        let adhoc = respond(&service, r#"{"op":"jra","paper":[0.0,0.3,0.7]}"#);
        assert!(ok(&adhoc));
        let score = |v: &Json| {
            v.get("results").unwrap().as_arr().unwrap()[0].get("score").unwrap().as_f64().unwrap()
        };
        assert_eq!(score(&by_id).to_bits(), score(&adhoc).to_bits());
    }

    #[test]
    fn coi_respected_in_stored_queries() {
        let service = test_service();
        let v = respond(&service, r#"{"op":"jra","paper_name":"p-17"}"#);
        assert!(ok(&v));
        let group = v.get("results").unwrap().as_arr().unwrap()[0].get("group").unwrap().clone();
        // alice (id 0) is conflicted with p-17.
        assert!(!group.as_arr().unwrap().iter().any(|r| r.as_usize() == Some(0)));
    }

    #[test]
    fn update_then_query_sees_new_epoch() {
        let service = test_service();
        let up = respond(
            &service,
            r#"{"op":"update","updates":[{"kind":"add_reviewer","name":"dave","expertise":[0.0,0.0,1.0]}]}"#,
        );
        assert!(ok(&up), "{up}");
        assert_eq!(up.get("epoch").and_then(Json::as_usize), Some(1));
        assert_eq!(up.get("reviewers").and_then(Json::as_usize), Some(4));
        // dave now dominates topic-3-heavy queries.
        let v = respond(&service, r#"{"op":"jra","paper":[0.0,0.0,1.0],"delta_p":1}"#);
        let group = v.get("results").unwrap().as_arr().unwrap()[0].get("group").unwrap().clone();
        assert_eq!(group.as_arr().unwrap()[0].as_usize(), Some(3));
    }

    #[test]
    fn batch_reports_per_query_errors() {
        let service = test_service();
        let v = respond(
            &service,
            r#"{"op":"batch","queries":[{"paper_id":0},{"paper_id":99},{"paper_name":"p-23","top_k":2}]}"#,
        );
        assert!(ok(&v), "{v}");
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert!(ok(&results[0]));
        assert!(!ok(&results[1]));
        assert!(ok(&results[2]));
        assert_eq!(results[2].get("results").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn batch_parse_errors_stay_per_entry() {
        // A query that fails at *parse* time (bad delta_p type) must not
        // poison its positional neighbours.
        let service = test_service();
        let v = respond(
            &service,
            r#"{"op":"batch","queries":[{"paper_id":0},{"paper_id":1,"delta_p":"two"},{"paper_id":1}]}"#,
        );
        assert!(ok(&v), "{v}");
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert!(ok(&results[0]));
        assert!(!ok(&results[1]));
        assert!(results[1].get("error").unwrap().as_str().unwrap().contains("delta_p"));
        assert!(ok(&results[2]));
        // Positional integrity: entries 0 and 2 carry real results.
        assert!(results[0].get("results").is_some());
        assert!(results[2].get("results").is_some());
    }

    #[test]
    fn batch_name_resolution_errors_stay_per_entry() {
        // A name that fails at *plan* time behaves exactly like a parse
        // failure: its own error entry, neighbours unharmed.
        let service = test_service();
        let v = respond(
            &service,
            r#"{"op":"batch","queries":[{"paper_id":0},{"paper_name":"p-99"},{"paper_id":1}]}"#,
        );
        assert!(ok(&v), "{v}");
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert!(ok(&results[0]));
        assert_eq!(results[1].get("error").unwrap().as_str().unwrap(), "unknown paper 'p-99'");
        assert!(ok(&results[2]));
    }

    #[test]
    fn assign_and_stats_roundtrip() {
        let service = test_service();
        let a = respond(&service, r#"{"op":"assign","method":"SDGA"}"#);
        assert!(ok(&a), "{a}");
        assert_eq!(a.get("groups").unwrap().as_arr().unwrap().len(), 2);
        let s = respond(&service, r#"{"op":"stats"}"#);
        assert!(ok(&s));
        assert_eq!(s.get("papers").and_then(Json::as_usize), Some(2));
        assert_eq!(s.get("scoring").and_then(Json::as_str), Some("weighted"));
        assert!(s.get("candidate_support").is_some());
        // v1 stats stay free of the v2-only members.
        assert!(s.get("cache").is_none());
        assert!(s.get("store").is_none());
    }

    #[test]
    fn malformed_lines_do_not_kill_the_session() {
        let service = test_service();
        let input =
            "not json\n{\"op\":\"nope\"}\n{\"op\":\"jra\",\"paper_id\":0}\n\n{\"op\":\"stats\"}\n";
        let mut out = Vec::new();
        serve_connection(&service, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim_end().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[1].contains("unknown op"));
        assert!(lines[2].contains("\"ok\":true"));
        assert!(lines[3].contains("\"ok\":true"));
    }

    /// Replies to a raw byte session, one string per line.
    fn session(frontend: &Frontend, input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve_connection(frontend, input, &mut out).unwrap();
        String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        // One line of 200 000 `[` used to overflow the parser's stack and
        // abort the process, taking every connection with it.
        let input = format!("{}\n{{\"op\":\"stats\"}}\n", "[".repeat(200_000));
        let lines = session(&test_service(), input.as_bytes());
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with(r#"{"ok":false,"error":"bad JSON: nesting deeper than 64"#),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    }

    #[test]
    fn overlong_and_non_utf8_lines_are_skipped_with_errors() {
        let padded = |len: usize| {
            let head = r#"{"op":"stats","pad":""#;
            format!("{head}{}\"}}\n", "x".repeat(len - head.len() - 2))
        };
        let mut input = padded(MAX_LINE_BYTES).into_bytes();
        input.extend(padded(MAX_LINE_BYTES + 1).into_bytes());
        input.extend(b"\xff\n{\"op\":\"stats\"}\n");
        let lines = session(&test_service(), &input);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ok\":true"), "a line of exactly the limit is served");
        assert_eq!(
            lines[1],
            format!(r#"{{"ok":false,"error":"request line longer than {MAX_LINE_BYTES} bytes"}}"#)
        );
        assert_eq!(lines[2], r#"{"ok":false,"error":"request line is not UTF-8"}"#);
        assert!(lines[3].contains("\"ok\":true"), "{}", lines[3]);
    }

    #[test]
    fn weight_sums_must_be_zero_or_normal() {
        let service = test_service();
        for line in [
            r#"{"op":"jra","paper":[5e-324,5e-324,0]}"#,
            r#"{"op":"jra","paper":[3e-309,0,0]}"#,
            r#"{"op":"jra","paper":[1e308,1e308,0]}"#,
            r#"{"op":"update","updates":[{"kind":"add_paper","topics":[5e-324,0,0]}]}"#,
            r#"{"op":"update","updates":[{"kind":"add_reviewer","expertise":[0,5e-324,0]}]}"#,
        ] {
            let v = respond(&service, line);
            let error = v.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.ends_with("weights must sum to 0 or a finite normal number"), "{v}");
        }
        for line in
            [r#"{"op":"jra","paper":[1e-300,1e-300,0]}"#, r#"{"op":"jra","paper":[0,-0.0,0]}"#]
        {
            let v = respond(&service, line);
            assert!(ok(&v), "{v}");
            assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 1, "{v}");
        }
    }

    #[test]
    fn pruning_override_parses_and_bad_values_error() {
        let service = test_service();
        let v = respond(&service, r#"{"op":"jra","paper_id":0,"pruning":"topk:2"}"#);
        assert!(ok(&v), "{v}");
        let bad = respond(&service, r#"{"op":"jra","paper_id":0,"pruning":"bogus"}"#);
        assert!(!ok(&bad));
    }

    #[test]
    fn v2_responses_carry_cache_and_key() {
        let service = test_service();
        let cold = respond(&service, r#"{"v":2,"op":"jra","paper_id":0}"#);
        assert!(ok(&cold), "{cold}");
        assert_eq!(cold.get("v").and_then(Json::as_usize), Some(2));
        assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"));
        assert!(cold.get("key").and_then(Json::as_str).unwrap().starts_with("jra|"));
        let warm = respond(&service, r#"{"v":2,"op":"jra","paper_id":0}"#);
        assert_eq!(warm.get("cache").and_then(Json::as_str), Some("hit"));
        // Identical answers, hit or miss — the cache contract.
        assert_eq!(cold.get("results"), warm.get("results"));
        // And a v1 spelling of the same query also hits the shared cache.
        let v1 = respond(&service, r#"{"op":"jra","paper_id":0}"#);
        assert_eq!(v1.get("results"), warm.get("results"));
        assert!(v1.get("cache").is_none(), "v1 responses stay v1-shaped");
    }

    #[test]
    fn v2_batch_reports_per_entry_cache() {
        let service = test_service();
        respond(&service, r#"{"op":"jra","paper_id":1}"#);
        let v =
            respond(&service, r#"{"v":2,"op":"batch","queries":[{"paper_id":1},{"paper_id":0}]}"#);
        assert!(ok(&v), "{v}");
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(results[1].get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
    }

    #[test]
    fn v2_stats_reports_cache_and_store_counters() {
        let service = test_service();
        respond(&service, r#"{"op":"jra","paper_id":0}"#);
        respond(&service, r#"{"op":"jra","paper_id":0}"#);
        respond(&service, r#"{"op":"update","updates":[{"kind":"retire_reviewer","reviewer":2}]}"#);
        let s = respond(&service, r#"{"v":2,"op":"stats"}"#);
        assert!(ok(&s), "{s}");
        let cache = s.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_usize), Some(1));
        assert_eq!(cache.get("size").and_then(Json::as_usize), Some(0), "publish cleared");
        let store = s.get("store").unwrap();
        assert_eq!(store.get("batches").and_then(Json::as_usize), Some(1));
        // Page metrics: the retire patch cloned the reviewer page (and the
        // candidate rows it left), while the untouched paper page stayed
        // physically shared with the previous epoch.
        assert!(store.get("pages_cloned").and_then(Json::as_usize).unwrap() > 0);
        assert!(store.get("pages_shared").and_then(Json::as_usize).unwrap() > 0);
        assert_eq!(store.get("last_pages_cloned"), store.get("pages_cloned"));
        let bytes = store.get("snapshot_bytes").and_then(Json::as_usize).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.get("peak_snapshot_bytes").and_then(Json::as_usize), Some(bytes));
        assert!(s.get("timings").is_none(), "timings are opt-in");
        let t = respond(&service, r#"{"v":2,"op":"stats","timings":true}"#);
        assert!(t.get("timings").is_some());
    }

    #[test]
    fn v2_loss_bound_appears_under_topk() {
        let service = test_service();
        let v = respond(&service, r#"{"v":2,"op":"jra","paper_id":0,"pruning":"topk:1"}"#);
        assert!(ok(&v), "{v}");
        assert!(v.get("loss_bound").and_then(Json::as_f64).unwrap() > 0.0);
        let exact = respond(&service, r#"{"v":2,"op":"jra","paper_id":0}"#);
        assert!(exact.get("loss_bound").is_none());
    }

    #[test]
    fn unsupported_protocol_version_errors() {
        let service = test_service();
        let v = respond(&service, r#"{"v":3,"op":"stats"}"#);
        assert!(!ok(&v));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("protocol version"));
    }

    #[test]
    fn busy_response_is_structured_and_versioned() {
        // Saturate: with the only solve slot held and no waiting room,
        // every solvable op rejects.
        let frontend = Frontend::new(
            Arc::new(crate::api::Service::new(test_instance(), Scoring::WeightedCoverage, 42)),
            crate::frontend::FrontendOptions { max_inflight: 1, queue_depth: 0 },
        );
        let _permit = frontend.permit().expect("first permit");
        let v1 = respond(&frontend, r#"{"op":"jra","paper_id":0}"#);
        assert!(!ok(&v1));
        assert_eq!(v1.get("busy").and_then(Json::as_bool), Some(true));
        assert!(v1.get("v").is_none());
        let v2 = respond(&frontend, r#"{"v":2,"op":"assign"}"#);
        assert_eq!(v2.get("busy").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("v").and_then(Json::as_usize), Some(2));
        // update and stats bypass admission even while saturated.
        let up = respond(
            &frontend,
            r#"{"op":"update","updates":[{"kind":"add_reviewer","name":"dave","expertise":[0.0,0.0,1.0]}]}"#,
        );
        assert!(ok(&up), "{up}");
        let s = respond(&frontend, r#"{"v":2,"op":"stats"}"#);
        assert!(ok(&s), "{s}");
        assert_eq!(s.get("frontend").unwrap().get("rejected").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn v2_stats_reports_frontend_counters() {
        let frontend = test_service();
        respond(&frontend, r#"{"op":"jra","paper_id":0}"#);
        respond(&frontend, r#"{"op":"jra","paper_id":1}"#);
        let s = respond(&frontend, r#"{"v":2,"op":"stats"}"#);
        assert!(ok(&s), "{s}");
        let f = s.get("frontend").unwrap();
        // Each jra executes alone: batches counts jra requests.
        assert_eq!(f.get("batches").and_then(Json::as_usize), Some(2));
        assert_eq!(f.get("batched_requests").and_then(Json::as_usize), Some(2));
        assert_eq!(f.get("max_batch").and_then(Json::as_usize), Some(1));
        assert_eq!(f.get("queued").and_then(Json::as_usize), Some(0));
        assert_eq!(f.get("rejected").and_then(Json::as_usize), Some(0));
        let cache = s.get("cache").unwrap();
        assert_eq!(cache.get("cap").and_then(Json::as_usize), Some(crate::api::DEFAULT_CACHE_CAP));
        assert_eq!(cache.get("evictions").and_then(Json::as_usize), Some(0));
    }

    #[test]
    fn multi_session_groups_by_connection_and_syncs() {
        let frontend = Arc::new(test_service());
        let input = "\
# two clients, interleaved; b's lines must come out after all of a's
a {\"op\":\"jra\",\"paper_id\":0}
b {\"op\":\"jra\",\"paper_id\":1}
a {\"op\":\"stats\"}
#sync
b {\"op\":\"jra\",\"paper_name\":\"p-17\"}
";
        let mut out = Vec::new();
        serve_multi(&frontend, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 4);
        // Grouped by first-seen connection order: a, a, b, b.
        assert!(lines[0].starts_with("a\t") && lines[1].starts_with("a\t"));
        assert!(lines[2].starts_with("b\t") && lines[3].starts_with("b\t"));
        for line in &lines {
            assert!(line.contains("\"ok\":true"), "{line}");
        }
        assert_eq!(frontend.counters().connections, 2);
    }

    #[test]
    fn multi_session_is_deterministic_run_to_run() {
        let input = "\
a {\"op\":\"jra\",\"paper_id\":0}
b {\"op\":\"jra\",\"paper_id\":1}
c {\"op\":\"jra\",\"paper\":[0.1,0.1,0.8]}
#sync
b {\"op\":\"update\",\"updates\":[{\"kind\":\"retire_reviewer\",\"reviewer\":2}]}
#sync
a {\"op\":\"jra\",\"paper_id\":0}
c {\"v\":2,\"op\":\"jra\",\"paper_id\":1}
a {\"op\":\"stats\"}
";
        let run = || {
            let frontend = Arc::new(test_service());
            let mut out = Vec::new();
            serve_multi(&frontend, input.as_bytes(), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first, "multi-session replay must be byte-identical");
        }
    }

    /// A `Write` that keeps the bytes of every `write` call apart.
    #[derive(Default)]
    struct WriteCalls(Vec<Vec<u8>>);

    impl Write for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_leaves_in_one_write() {
        let jra = r#"{"v":2,"op":"jra","paper_id":1}"#;
        let mut input = format!("{jra}\nnot json\n").into_bytes();
        input.extend(vec![b'x'; MAX_LINE_BYTES + 1]);
        input.extend(b"\n\xff\n");
        let mut calls = WriteCalls::default();
        serve_connection(&test_service(), input.as_slice(), &mut calls).unwrap();
        // The same bytes as rendering each reply with `writeln!`.
        let fresh = test_service();
        let want: Vec<Vec<u8>> = [
            handle_line(&fresh, jra),
            handle_line(&fresh, "not json"),
            error_reply(Protocol::V1, &format!("request line longer than {MAX_LINE_BYTES} bytes")),
            error_reply(Protocol::V1, "request line is not UTF-8"),
        ]
        .iter()
        .map(|reply| format!("{reply}\n").into_bytes())
        .collect();
        assert!(want[0].starts_with(br#"{"ok":true"#));
        assert_eq!(calls.0.len(), want.len(), "one write per reply");
        for call in &calls.0 {
            let newlines = call.iter().filter(|&&b| b == b'\n').count();
            assert!(newlines == 1 && call.ends_with(b"\n"), "one whole line per write");
        }
        assert_eq!(calls.0, want);
    }

    #[test]
    fn tcp_session_roundtrips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(test_service());
        // The accept loop runs forever; the thread is detached.
        std::thread::spawn(move || serve_tcp(listener, service));
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut round_trip = |request: &str| {
            client.write_all(format!("{request}\n").as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let stats = round_trip(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ok\":true"), "{stats}");
        // Cache hits cost microseconds in the server. A reply split over
        // several writes would wait ~40 ms for the client's delayed ACK.
        let jra = r#"{"v":2,"op":"jra","paper_id":1}"#;
        assert!(round_trip(jra).contains("\"cache\":\"miss\""));
        let median = crate::testutil::median_time(50, || {
            let reply = round_trip(jra);
            assert!(reply.contains("\"cache\":\"hit\""), "{reply}");
        });
        assert!(median < Duration::from_millis(20), "median cache-hit round trip {median:?}");
    }

    /// The (name, depth) skeleton of a response's inline trace.
    fn span_shape(v: &Json) -> Vec<(String, usize)> {
        v.get("trace")
            .expect("trace member")
            .get("spans")
            .expect("spans array")
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s.get("name").unwrap().as_str().unwrap().to_string(),
                    s.get("depth").unwrap().as_usize().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn trace_structure_is_deterministic_for_frontend_jra() {
        let service = test_service();
        let shape = |line: &str| span_shape(&respond(&service, line));
        let expect: Vec<(String, usize)> =
            ["plan", "admit", "queue_wait", "cache_probe", "solve", "fanout", "coalesce"]
                .iter()
                .map(|n| {
                    (n.to_string(), usize::from(matches!(*n, "cache_probe" | "solve" | "fanout")))
                })
                .collect();
        assert_eq!(shape(r#"{"op":"jra","paper_id":1,"v":2,"trace":true}"#), expect);
        // A cache hit skips the solve stage — the structure reflects the
        // work actually done, deterministically.
        let hit = shape(r#"{"op":"jra","paper_id":1,"v":2,"trace":true}"#);
        assert_eq!(
            hit,
            [
                ("plan", 0),
                ("admit", 0),
                ("queue_wait", 0),
                ("cache_probe", 1),
                ("fanout", 1),
                ("coalesce", 0)
            ]
            .map(|(n, d)| (n.to_string(), d))
        );
        // Durations stay behind the timings opt-in.
        let v = respond(&service, r#"{"op":"jra","paper_id":1,"v":2,"trace":true}"#);
        assert!(!v.to_string().contains("\"us\""), "{v}");
        let timed =
            respond(&service, r#"{"op":"jra","paper_id":1,"v":2,"trace":true,"timings":true}"#);
        assert!(timed.to_string().contains("\"us\""), "{timed}");
    }

    #[test]
    fn trace_structure_for_update_and_stats() {
        let service = test_service();
        let up = respond(
            &service,
            r#"{"op":"update","v":2,"trace":true,"updates":[{"kind":"retire_reviewer","reviewer":2}]}"#,
        );
        assert!(ok(&up), "{up}");
        assert_eq!(
            span_shape(&up),
            [("plan", 0), ("build", 1), ("publish", 1), ("exec", 0)]
                .map(|(n, d)| (n.to_string(), d))
        );
        let stats = respond(&service, r#"{"op":"stats","v":2,"trace":true}"#);
        assert_eq!(span_shape(&stats), [("plan", 0), ("exec", 0)].map(|(n, d)| (n.to_string(), d)));
    }

    #[test]
    fn trace_is_v2_only_and_opt_in() {
        let service = test_service();
        let v1 = respond(&service, r#"{"op":"jra","paper_id":1,"trace":true}"#);
        assert!(ok(&v1));
        assert!(v1.get("trace").is_none(), "v1 must never grow fields: {v1}");
        let v2_plain = respond(&service, r#"{"op":"jra","paper_id":1,"v":2}"#);
        assert!(v2_plain.get("trace").is_none(), "trace is opt-in: {v2_plain}");
    }

    #[test]
    fn metrics_op_is_deterministic_by_default() {
        let service = test_service();
        assert!(ok(&respond(&service, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        assert!(ok(&respond(&service, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        let m = respond(&service, r#"{"op":"metrics","v":2}"#);
        assert!(ok(&m), "{m}");
        let counters = m.get("counters").expect("counters object");
        assert_eq!(counters.get("requests_total{op=\"jra\"}").and_then(Json::as_usize), Some(2));
        assert_eq!(counters.get("cache_hits_total").and_then(Json::as_usize), Some(1));
        assert_eq!(counters.get("cache_misses_total").and_then(Json::as_usize), Some(1));
        let hist = m.get("hist").expect("hist object");
        let jra = hist.get("op_latency_seconds{op=\"jra\"}").expect("jra latency series");
        assert_eq!(jra.get("count").and_then(Json::as_usize), Some(2));
        let text = m.to_string();
        assert!(!text.contains("p50_us"), "quantiles are opt-in: {text}");
        assert!(!text.contains("\"slow\""), "slow log is opt-in: {text}");
        // Identical requests replay to an identical metrics body.
        let service2 = test_service();
        assert!(ok(&respond(&service2, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        assert!(ok(&respond(&service2, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        assert_eq!(text, respond(&service2, r#"{"op":"metrics","v":2}"#).to_string());
    }

    #[test]
    fn metrics_op_timings_and_slow_opt_ins() {
        let service = test_service();
        assert!(ok(&respond(&service, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        let timed = respond(&service, r#"{"op":"metrics","v":2,"timings":true}"#);
        assert!(timed.to_string().contains("p50_us"), "{timed}");
        let slow = respond(&service, r#"{"op":"metrics","v":2,"slow":true}"#);
        let log = slow.get("slow").expect("slow log").as_arr().unwrap();
        assert!(!log.is_empty(), "the jra trace must rank in an empty slow log");
        assert!(log[0].get("spans").is_some(), "slow entries are span trees: {slow}");
    }

    #[test]
    fn metrics_op_rejects_v1() {
        let service = test_service();
        let v = respond(&service, r#"{"op":"metrics"}"#);
        assert!(!ok(&v));
        assert!(v.to_string().contains("v2"), "{v}");
    }

    #[test]
    fn metrics_http_endpoint_serves_prometheus_text() {
        let service = test_service();
        assert!(ok(&respond(&service, r#"{"op":"jra","paper_id":1,"v":2}"#)));
        let telemetry = Arc::clone(service.service().telemetry());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The accept loop runs forever; the test thread is detached.
        std::thread::spawn(move || serve_metrics(listener, telemetry));
        let scrape = |path: &str| {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            write!(client, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            client.read_to_string(&mut response).unwrap();
            response
        };
        let response = scrape("/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE wgrap_requests_total counter"), "{body}");
        assert!(body.contains("wgrap_requests_total{op=\"jra\"} 1"), "{body}");
        assert!(body.contains("wgrap_op_latency_seconds{op=\"jra\",quantile=\"0.5\"}"), "{body}");
        assert!(body.contains("wgrap_op_latency_seconds_count{op=\"jra\"} 1"), "{body}");
        assert!(scrape("/nope").starts_with("HTTP/1.1 404"), "unknown paths 404");
    }

    /// A request line that never ends is cut off at
    /// [`MAX_METRICS_REQUEST_BYTES`] and answered 431, and the endpoint keeps
    /// serving normal scrapes.
    #[test]
    fn metrics_http_request_is_bounded() {
        let service = test_service();
        let telemetry = Arc::clone(service.service().telemetry());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_metrics(listener, telemetry));

        let client = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'a'; 1 << 20]);
            let _ = writer.shutdown(std::net::Shutdown::Write);
        });
        let mut response = String::new();
        (&client).read_to_string(&mut response).unwrap();
        flood.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        assert!(response.ends_with("request too large\n"), "{response}");

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        write!(client, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    }

    /// A client that connects and sends nothing is disconnected after
    /// [`METRICS_READ_TIMEOUT`], which frees its thread and socket, and the
    /// endpoint keeps serving normal scrapes.
    #[test]
    fn metrics_http_silent_client_is_disconnected() {
        let service = test_service();
        let telemetry = Arc::clone(service.service().telemetry());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_metrics(listener, telemetry));

        let silent = std::net::TcpStream::connect(addr).unwrap();
        // Fail rather than hang if the server never lets go.
        silent.set_read_timeout(Some(2 * METRICS_READ_TIMEOUT)).unwrap();
        let mut response = Vec::new();
        (&silent).read_to_end(&mut response).expect("EOF within twice the read timeout");
        assert!(response.is_empty(), "{}", String::from_utf8_lossy(&response));

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        write!(client, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    }

    #[test]
    fn disabled_telemetry_records_nothing_and_changes_no_bytes() {
        use crate::api::{ServeOptions, Service};
        let quiet = Frontend::with_defaults(Arc::new(Service::with_options(
            test_instance(),
            Scoring::WeightedCoverage,
            42,
            ServeOptions { telemetry: false, ..ServeOptions::default() },
        )));
        let loud = test_service();
        // Answer bytes are telemetry-independent (counter-reporting ops
        // like v2 stats/metrics read zeros instead — observability is the
        // one thing the flag is allowed to change).
        for line in [r#"{"op":"jra","paper_id":1}"#, r#"{"op":"jra","paper_id":1,"v":2}"#] {
            assert_eq!(
                respond(&quiet, line).to_string(),
                respond(&loud, line).to_string(),
                "telemetry must never change answer bytes"
            );
        }
        let t = quiet.service().telemetry();
        assert_eq!(t.counter("requests_total{op=\"jra\"}").get(), 0);
        assert_eq!(t.traces().pushed(), 0);
        assert_eq!(t.histogram("op_latency_seconds{op=\"jra\"}").snapshot().count(), 0);
    }
}
