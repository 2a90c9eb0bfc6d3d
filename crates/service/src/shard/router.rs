//! [`Router`]: the sharding [`Backend`] behind `wgrap serve --router`. The
//! shared wire layer ([`crate::server`]) parses and counts each request and
//! hands the five data ops here; the router fans them out to its shards and
//! merges the answers. A shard is a [`Link`]: a shard process (a plain
//! `wgrap serve --listen` over its sub-instance) or an in-process
//! [`Frontend`] called through the same [`handle_line`]. Requests travel
//! down as protocol lines and routed answers come back verbatim, so a
//! shard's `key`, `cache` and reviewer names reach the client unchanged.
//!
//! # Routing
//!
//! * `jra` by `paper_id` rewrites the global id to the owning shard's
//!   local id and forwards; by `paper_name` it scatters in shard order
//!   and returns the owning shard's answer; ad-hoc `paper` vectors go to
//!   shard 0 (the reviewer pool is replicated, every shard answers
//!   identically). Routed responses come back verbatim — `epoch` (and the
//!   v2 `key`) are the owning shard's.
//! * `batch` splits its queries the same way, solves per-shard
//!   sub-batches, and splices the per-entry answers back positionally.
//!   The router adds no batch-level `cache`/`key` diagnostics (there is
//!   no single downstream outcome to report).
//! * `update` splits by kind — `add_paper` to the last shard, reviewer
//!   updates broadcast — after replaying the unsharded global capacity
//!   check. One router-wide gate holds from that check through the
//!   fan-out to the plan/reviewer-count/epoch bump, so concurrent batches
//!   reach every shard in the same order and every shard hands out the
//!   same reviewer ids. The **last shard applies first**: it is the only
//!   shard whose failures are shard-specific (its sub-batch carries the
//!   `add_paper` entries), so a rejection there aborts the fan-out before
//!   any other shard diverges; the remaining failure modes are common to
//!   all shards (the broadcast entries are identical).
//! * `assign` runs per-shard CRA solves, concatenates the groups in shard
//!   order, then runs the cross-shard
//!   [capacity-reconciliation pass](crate::shard::merge::reconcile_capacity)
//!   with `δp = 1` JRA requests to the owning shards as the substitute
//!   oracle. The response adds a `swaps` member; `coverage` is the sum of
//!   the per-shard solver coverages *before* the swaps (the router holds
//!   no scores, so it cannot re-score the reconciled groups).
//! * `stats` aggregates (papers sum across shards, shared members from
//!   the first reachable shard) and, under v2, appends the `"shards"`
//!   section: per shard its paper `range`, `epoch`, `papers`, downstream
//!   `queued` depth and router-side `requests` count, plus `qps` when
//!   `"timings":true` (wall-clock, never golden-diffed).
//!
//! # Failure semantics
//!
//! A downstream that cannot be reached (after one reconnect attempt)
//! yields a structured `{"ok":false,"shard":N,"error":"shard_down: shard
//! N unreachable"}` response — never a hang. Reads against live shards
//! keep working; `batch` degrades per entry. A shard that dies in the
//! middle of an `update` fan-out leaves the shards before it applied:
//! there is no rollback, which would need a prepare/commit wire op.
//! Startup is strict: every shard must answer the initial `stats` probe,
//! because the shard plan is built from the reported paper counts.

use crate::frontend::Frontend;
use crate::json::{self, Json};
use crate::server::{error_reply, handle_line, reply_head, Backend, Protocol, RequestCounters};
use crate::shard::{merge, ShardPlan};
use crate::telemetry::{Counter, Gauge, Telemetry};
use crate::{Error, Result};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the router reaches one shard.
pub enum Link {
    /// A shard process serving `--listen` at this `HOST:PORT`, over one
    /// persistent connection.
    Tcp(String),
    /// An in-process shard, called through the same wire layer a shard
    /// process runs.
    Local(Arc<Frontend>),
}

/// One downstream shard: its link, the persistent connection of a TCP
/// link, and its telemetry series.
struct ShardConn {
    link: Link,
    conn: Mutex<Option<BufReader<TcpStream>>>,
    /// Requests the router sent (or tried to send) to this shard.
    requests: Arc<Counter>,
    /// Requests that ended `shard_down` after the reconnect attempt.
    downs: Arc<Counter>,
    /// 1 while the last contact succeeded, 0 after a failure.
    up: Arc<Gauge>,
    /// The shard's epoch as of its last `stats` probe.
    epoch: Arc<Gauge>,
}

impl ShardConn {
    /// One request/response round trip. A TCP link uses its persistent
    /// connection, with a single reconnect attempt when the connection is
    /// stale (the shard may have restarted since the last request).
    fn request(&self, line: &str) -> io::Result<String> {
        self.requests.inc();
        let addr = match &self.link {
            Link::Tcp(addr) => addr,
            Link::Local(frontend) => {
                self.up.set(1);
                return Ok(handle_line(frontend.as_ref(), line).to_string());
            }
        };
        fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<String> {
            // One write per request: a separate "\n" would wait for the
            // shard's delayed ACK (see "Framing" in `crate::server`).
            let stream = conn.get_mut();
            stream.write_all(format!("{line}\n").as_bytes())?;
            stream.flush()?;
            let mut response = String::new();
            if conn.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "shard closed the connection",
                ));
            }
            Ok(response.trim_end().to_string())
        }
        let mut guard = self.conn.lock().expect("shard connection lock");
        if let Some(conn) = guard.as_mut() {
            match round_trip(conn, line) {
                Ok(response) => {
                    self.up.set(1);
                    return Ok(response);
                }
                Err(_) => *guard = None,
            }
        }
        let fresh = TcpStream::connect(addr)
            .map(BufReader::new)
            .and_then(|mut conn| round_trip(&mut conn, line).map(|r| (conn, r)));
        match fresh {
            Ok((conn, response)) => {
                *guard = Some(conn);
                self.up.set(1);
                Ok(response)
            }
            Err(e) => {
                self.up.set(0);
                self.downs.inc();
                Err(e)
            }
        }
    }
}

/// The scatter-gather [`Backend`] over N shards. Internally synchronized
/// (`&self` everywhere) — share it behind an `Arc` across connection
/// threads, like a [`Frontend`].
pub struct Router {
    shards: Vec<ShardConn>,
    plan: Mutex<ShardPlan>,
    /// Global reviewer count (grows with `add_reviewer` — replicated on
    /// every shard, counted once).
    reviewers: AtomicUsize,
    delta_p: usize,
    delta_r: usize,
    /// The router's global epoch: update requests routed successfully.
    /// Matches an unsharded store's epoch for the same session.
    epoch: AtomicU64,
    /// Held by one `update` from its capacity check through the fan-out to
    /// the bookkeeping, so concurrent batches reach every shard in the same
    /// order and pass the capacity check one after another.
    update_gate: Mutex<()>,
    telemetry: Arc<Telemetry>,
    requests: RequestCounters,
    started: Instant,
}

impl Router {
    /// Connect to every shard, probe it with a `stats` request, and build
    /// the shard plan from the reported paper counts (shard order =
    /// global paper order). Startup is strict — an unreachable shard or
    /// one whose reviewer pool / `δ` parameters disagree with shard 0 is
    /// an error.
    pub fn connect(links: Vec<Link>) -> Result<Self> {
        if links.is_empty() {
            return Err(Error::InvalidInstance("need at least one shard address".into()));
        }
        let telemetry = Arc::new(Telemetry::new());
        let shards: Vec<ShardConn> = links
            .into_iter()
            .enumerate()
            .map(|(s, link)| ShardConn {
                link,
                conn: Mutex::new(None),
                requests: telemetry.counter(&format!("shard_requests_total{{shard=\"{s}\"}}")),
                downs: telemetry.counter(&format!("shard_down_total{{shard=\"{s}\"}}")),
                up: telemetry.gauge(&format!("shard_up{{shard=\"{s}\"}}")),
                epoch: telemetry.gauge(&format!("shard_epoch{{shard=\"{s}\"}}")),
            })
            .collect();
        let mut sizes = Vec::with_capacity(shards.len());
        let mut pool = None;
        for (s, shard) in shards.iter().enumerate() {
            let response = shard.request(r#"{"v":2,"op":"stats"}"#).map_err(|e| {
                let Link::Tcp(addr) = &shard.link else { unreachable!("local shards answer") };
                Error::Io(format!("shard {s} ({addr}) unreachable at startup: {e}"))
            })?;
            let stats = json::parse(&response)
                .map_err(|e| Error::Io(format!("shard {s}: bad stats response: {e}")))?;
            let field = |name: &str| {
                stats.get(name).and_then(Json::as_usize).ok_or_else(|| {
                    Error::Io(format!("shard {s}: stats response missing \"{name}\""))
                })
            };
            sizes.push(field("papers")?);
            let this = (field("reviewers")?, field("delta_p")?, field("delta_r")?);
            match pool {
                None => pool = Some(this),
                Some(first) if first != this => {
                    return Err(Error::InvalidInstance(format!(
                        "shard {s} reports (R, delta_p, delta_r) = {this:?}, shard 0 reports \
                         {first:?} — shards must share the reviewer pool and constraints"
                    )))
                }
                Some(_) => {}
            }
            shard.epoch.set(stats.get("epoch").and_then(Json::as_usize).unwrap_or(0) as i64);
        }
        let (reviewers, delta_p, delta_r) = pool.expect("at least one shard");
        Ok(Self {
            shards,
            plan: Mutex::new(ShardPlan::from_sizes(&sizes)?),
            reviewers: AtomicUsize::new(reviewers),
            delta_p,
            delta_r,
            epoch: AtomicU64::new(0),
            update_gate: Mutex::new(()),
            requests: RequestCounters::new(&telemetry),
            telemetry,
            started: Instant::now(),
        })
    }

    /// Number of downstream shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Forward `line` to shard `s` and parse its response; an unreachable
    /// shard becomes the structured `shard_down` response.
    fn forward(&self, s: usize, line: &str, proto: Protocol) -> Json {
        match self.shards[s].request(line) {
            Ok(response) => match json::parse(&response) {
                Ok(v) => v,
                Err(e) => error_reply(proto, &format!("shard {s}: bad response JSON: {e}")),
            },
            Err(_) => shard_down_response(proto, s),
        }
    }

    /// Send `line` to shard `s` and return its successful reply: `Ok(None)`
    /// when the shard is unreachable, `Err` with the shard's own message
    /// when it answered with an error.
    fn request_ok(&self, s: usize, line: &str) -> std::result::Result<Option<Json>, String> {
        let Ok(response) = self.shards[s].request(line) else {
            return Ok(None);
        };
        let response =
            json::parse(&response).map_err(|e| format!("shard {s}: bad response JSON: {e}"))?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(Some(response));
        }
        Err(response.get("error").and_then(Json::as_str).unwrap_or("malformed shard error").into())
    }

    fn plan(&self) -> ShardPlan {
        self.plan.lock().expect("router plan lock").clone()
    }
}

impl Backend for Router {
    /// The router's own registry (the CLI serves it on `--metrics-listen`,
    /// where the shard series appear as `wgrap_shard_*`).
    fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    fn request_counters(&self) -> &RequestCounters {
        &self.requests
    }

    fn jra(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        if let Some(p) = request.get("paper_id").and_then(Json::as_usize) {
            let Some((s, local)) = plan.locate(p) else {
                // The exact Display rendering the unsharded solve produces.
                return Err(Error::InvalidInstance(format!(
                    "paper {p} out of range (P = {})",
                    plan.num_papers()
                ))
                .to_string());
            };
            let mut forwarded = request.clone();
            set_member(&mut forwarded, "paper_id", Json::Num(local as f64));
            return Ok(self.forward(s, &forwarded.to_string(), proto));
        }
        if let Some(name) = request.get("paper_name").and_then(Json::as_str) {
            // Scatter in shard order, stopping at the owning shard's answer.
            let line = request.to_string();
            let replies = (0..plan.num_shards()).map(|s| self.forward(s, &line, proto));
            return Ok(pick_scattered(replies, name));
        }
        // Ad-hoc vectors (and malformed requests, which shard 0 rejects
        // with the standard error) go to shard 0.
        Ok(self.forward(0, &request.to_string(), proto))
    }

    fn batch(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let queries =
            request.get("queries").and_then(Json::as_arr).ok_or("\"queries\" must be an array")?;
        /// Where one positional entry went.
        enum Slot {
            /// One shard, at this index of its sub-batch.
            Routed { shard: usize, index: usize },
            /// Scattered to every shard (a `paper_name` entry): per-shard
            /// sub-batch indexes, plus the name for error arbitration.
            Scatter { indexes: Vec<usize>, name: String },
            /// Failed at the router (global id out of range).
            Failed(String),
        }
        let mut subs: Vec<Vec<Json>> = vec![Vec::new(); plan.num_shards()];
        let slots: Vec<Slot> = queries
            .iter()
            .map(|query| {
                if let Some(p) = query.get("paper_id").and_then(Json::as_usize) {
                    let Some((shard, local)) = plan.locate(p) else {
                        return Slot::Failed(
                            Error::InvalidInstance(format!(
                                "paper {p} out of range (P = {})",
                                plan.num_papers()
                            ))
                            .to_string(),
                        );
                    };
                    let mut entry = query.clone();
                    set_member(&mut entry, "paper_id", Json::Num(local as f64));
                    subs[shard].push(entry);
                    return Slot::Routed { shard, index: subs[shard].len() - 1 };
                }
                if let Some(name) = query.get("paper_name").and_then(Json::as_str) {
                    let indexes = subs
                        .iter_mut()
                        .map(|sub| {
                            sub.push(query.clone());
                            sub.len() - 1
                        })
                        .collect();
                    return Slot::Scatter { indexes, name: name.to_string() };
                }
                subs[0].push(query.clone());
                Slot::Routed { shard: 0, index: subs[0].len() - 1 }
            })
            .collect();
        // Solve each non-empty sub-batch. A request-level downstream error
        // (bad pruning, …) is common to all shards and fails the whole
        // request with the first shard's message, like the unsharded path.
        enum ShardAnswer {
            Results(Vec<Json>),
            Down,
            Unused,
        }
        let mut answers = Vec::with_capacity(plan.num_shards());
        for (s, sub) in subs.into_iter().enumerate() {
            if sub.is_empty() {
                answers.push(ShardAnswer::Unused);
                continue;
            }
            let mut members = Vec::new();
            if proto == Protocol::V2 {
                members.push(("v", Json::Num(2.0)));
            }
            members.push(("op", Json::Str("batch".into())));
            if let Some(pruning) = request.get("pruning") {
                members.push(("pruning", pruning.clone()));
            }
            members.push(("queries", Json::Arr(sub)));
            match self.request_ok(s, &Json::obj(members).to_string())? {
                None => answers.push(ShardAnswer::Down),
                Some(response) => {
                    let results = response
                        .get("results")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("shard {s}: batch response missing results"))?;
                    answers.push(ShardAnswer::Results(results.to_vec()));
                }
            }
        }
        // Gather positionally.
        let entry = |shard: usize, index: usize| match &answers[shard] {
            ShardAnswer::Results(entries) => entries[index].clone(),
            ShardAnswer::Down => shard_down_response(Protocol::V1, shard),
            ShardAnswer::Unused => unreachable!("every slot's shard got a sub-batch"),
        };
        let results: Vec<Json> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Failed(message) => error_reply(Protocol::V1, &message),
                Slot::Routed { shard, index } => entry(shard, index),
                Slot::Scatter { indexes, name } => pick_scattered(
                    indexes.iter().enumerate().map(|(shard, &index)| entry(shard, index)),
                    &name,
                ),
            })
            .collect();
        let mut members = reply_head(true, proto);
        members.push(("op", Json::Str("batch".into())));
        members.push(("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)));
        members.push(("results", Json::Arr(results)));
        Ok(Json::obj(members))
    }

    fn update(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let items =
            request.get("updates").and_then(Json::as_arr).ok_or("\"updates\" must be an array")?;
        let _gate = self.update_gate.lock().expect("router update gate");
        let plan = self.plan();
        let kind_of = |entry: &Json| -> Option<String> {
            entry.get("kind").and_then(Json::as_str).map(str::to_string)
        };
        // Replay the unsharded global capacity check — each shard's local
        // check (full R, a slice of P) is looser, so without this a
        // sharded deployment would admit papers the unsharded store
        // rejects. The error string matches the unsharded path's.
        let mut papers = plan.num_papers();
        let mut reviewers = self.reviewers.load(Ordering::Acquire);
        for entry in items {
            match kind_of(entry).as_deref() {
                Some("add_paper") => {
                    if reviewers * self.delta_r < (papers + 1) * self.delta_p {
                        // The exact Display rendering the unsharded apply
                        // produces for the same batch.
                        return Err(Error::InvalidInstance(format!(
                            "capacity shortfall after adding a paper: R*delta_r = {} < (P+1)*delta_p = {}",
                            reviewers * self.delta_r,
                            (papers + 1) * self.delta_p
                        ))
                        .to_string());
                    }
                    papers += 1;
                }
                Some("add_reviewer") => reviewers += 1,
                _ => {} // malformed entries are rejected downstream, see below
            }
        }
        let last = plan.num_shards() - 1;
        let mut subs: Vec<Vec<Json>> = vec![Vec::new(); plan.num_shards()];
        for entry in items {
            if kind_of(entry).as_deref() == Some("add_paper") {
                subs[last].push(entry.clone());
            } else {
                for sub in &mut subs {
                    sub.push(entry.clone());
                }
            }
        }
        // Last shard first: its sub-batch carries the add_paper entries,
        // the only shard-specific failure mode — a rejection there aborts
        // before any other shard applies. Remaining entries are identical
        // broadcasts, so later shards can only fail in ways the last shard
        // already failed (see the module docs).
        for s in std::iter::once(last).chain(0..last) {
            if subs[s].is_empty() {
                continue;
            }
            let body = Json::obj([
                ("op", Json::Str("update".into())),
                ("updates", Json::Arr(std::mem::take(&mut subs[s]))),
            ]);
            if self.request_ok(s, &body.to_string())?.is_none() {
                return Ok(shard_down_response(proto, s));
            }
        }
        let added_papers =
            items.iter().filter(|e| kind_of(e).as_deref() == Some("add_paper")).count();
        let added_reviewers =
            items.iter().filter(|e| kind_of(e).as_deref() == Some("add_reviewer")).count();
        if added_papers > 0 {
            self.plan.lock().expect("router plan lock").note_papers_added(added_papers);
        }
        self.reviewers.fetch_add(added_reviewers, Ordering::AcqRel);
        let epoch = if items.is_empty() {
            self.epoch.load(Ordering::Acquire)
        } else {
            self.epoch.fetch_add(1, Ordering::AcqRel) + 1
        };
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("update".into())),
            ("epoch", Json::Num(epoch as f64)),
            ("applied", Json::Num(items.len() as f64)),
            ("papers", Json::Num((papers) as f64)),
            ("reviewers", Json::Num(reviewers as f64)),
        ]);
        Ok(Json::obj(members))
    }

    fn assign(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let mut body = Vec::new();
        if proto == Protocol::V2 {
            body.push(("v", Json::Num(2.0)));
        }
        body.push(("op", Json::Str("assign".into())));
        for key in ["method", "pruning"] {
            if let Some(v) = request.get(key) {
                body.push((key, v.clone()));
            }
        }
        let line = Json::obj(body).to_string();
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(plan.num_papers());
        let mut coverage = 0.0;
        let mut method = None;
        for s in 0..plan.num_shards() {
            if plan.range(s).is_empty() {
                continue;
            }
            let Some(response) = self.request_ok(s, &line)? else {
                return Ok(shard_down_response(proto, s));
            };
            coverage += response
                .get("coverage")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("shard {s}: assign response missing coverage"))?;
            if method.is_none() {
                method = response.get("method").cloned();
            }
            let shard_groups = response
                .get("groups")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("shard {s}: assign response missing groups"))?;
            for group in shard_groups {
                let ids = group
                    .as_arr()
                    .map(|g| g.iter().filter_map(Json::as_usize).collect::<Vec<_>>())
                    .ok_or_else(|| format!("shard {s}: malformed assign group"))?;
                groups.push(ids);
            }
        }
        let pruning = request.get("pruning").cloned();
        let swaps = merge::reconcile_capacity(
            &mut groups,
            self.reviewers.load(Ordering::Acquire),
            self.delta_r,
            |p, exclude| {
                let (s, local) = plan.locate(p).expect("reconciled paper is in range");
                let mut oracle = vec![
                    ("op", Json::Str("jra".into())),
                    ("paper_id", Json::Num(local as f64)),
                    ("delta_p", Json::Num(1.0)),
                    ("exclude", Json::nums(exclude.iter().map(|&x| x as f64))),
                ];
                if let Some(pruning) = &pruning {
                    oracle.push(("pruning", pruning.clone()));
                }
                let response = self
                    .request_ok(s, &Json::obj(oracle).to_string())
                    .map_err(Error::Infeasible)?
                    .ok_or_else(|| {
                        Error::Infeasible(format!("shard_down: shard {s} unreachable"))
                    })?;
                response
                    .get("results")
                    .and_then(Json::as_arr)
                    .and_then(|r| r.first())
                    .and_then(|r| r.get("group"))
                    .and_then(Json::as_arr)
                    .and_then(|g| g.first())
                    .and_then(Json::as_usize)
                    .ok_or_else(|| {
                        Error::Infeasible(format!("shard {s}: malformed jra oracle response"))
                    })
            },
        )
        .map_err(|e| match e {
            // The oracle wraps downstream messages in `Infeasible`; unwrap
            // them so the client sees the shard's error verbatim.
            Error::Infeasible(message) => message,
            other => other.to_string(),
        })?;
        let group_json: Vec<Json> =
            groups.iter().map(|g| Json::nums(g.iter().map(|&r| r as f64))).collect();
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("assign".into())),
            ("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)),
            ("method", method.unwrap_or_else(|| Json::Str("SDGA-SRA".into()))),
            ("coverage", Json::Num(coverage)),
            ("swaps", Json::Num(swaps as f64)),
            ("groups", Json::Arr(group_json)),
        ]);
        Ok(Json::obj(members))
    }

    fn stats(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let timings = request.get("timings").and_then(Json::as_bool) == Some(true);
        let mut shard_entries = Vec::with_capacity(plan.num_shards());
        let mut papers_total = 0usize;
        let mut shared: Option<Json> = None;
        for s in 0..plan.num_shards() {
            let range = plan.range(s);
            let range_json = Json::nums([range.start as f64, range.end as f64]);
            let response = match self.shards[s].request(r#"{"v":2,"op":"stats"}"#) {
                Ok(r) => json::parse(&r).ok(),
                Err(_) => None,
            };
            let Some(response) =
                response.filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
            else {
                shard_entries.push(Json::obj([
                    ("shard", Json::Num(s as f64)),
                    ("range", range_json),
                    ("up", Json::Bool(false)),
                    ("error", Json::Str("shard_down".into())),
                ]));
                continue;
            };
            let epoch = response.get("epoch").and_then(Json::as_usize).unwrap_or(0);
            let papers = response.get("papers").and_then(Json::as_usize).unwrap_or(0);
            let queued = response
                .get("frontend")
                .and_then(|f| f.get("queued"))
                .and_then(Json::as_usize)
                .unwrap_or(0);
            self.shards[s].epoch.set(epoch as i64);
            papers_total += papers;
            if shared.is_none() {
                shared = Some(response.clone());
            }
            let mut entry = vec![
                ("shard", Json::Num(s as f64)),
                ("range", range_json),
                ("up", Json::Bool(true)),
                ("epoch", Json::Num(epoch as f64)),
                ("papers", Json::Num(papers as f64)),
                ("queued", Json::Num(queued as f64)),
                ("requests", Json::Num(self.shards[s].requests.get() as f64)),
            ];
            if timings {
                let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
                entry.push(("qps", Json::Num(self.shards[s].requests.get() as f64 / elapsed)));
            }
            shard_entries.push(Json::obj(entry));
        }
        let Some(shared) = shared else {
            return Err("shard_down: all shards unreachable".into());
        };
        let mut members = reply_head(true, proto);
        members.extend([
            ("op", Json::Str("stats".into())),
            ("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)),
            ("papers", Json::Num(papers_total as f64)),
        ]);
        for key in ["reviewers", "topics", "delta_p", "delta_r", "scoring"] {
            if let Some(v) = shared.get(key) {
                members.push((key, v.clone()));
            }
        }
        if proto == Protocol::V2 {
            members.push(("shards", Json::Arr(shard_entries)));
        }
        Ok(Json::obj(members))
    }
}

/// The structured degraded-mode response: the shard exists in the plan
/// but cannot be reached. `"shard"` tells the operator which process to
/// look at; the error string is deterministic (no OS error text), so
/// degradation cases can be golden-tested. Per-entry `batch` errors take
/// the v1 shape, like every per-entry error.
fn shard_down_response(proto: Protocol, s: usize) -> Json {
    let mut members = reply_head(false, proto);
    members.push(("shard", Json::Num(s as f64)));
    members.push(("error", Json::Str(format!("shard_down: shard {s} unreachable"))));
    Json::obj(members)
}

/// Pick the reply to a by-name query scattered across the shards, in shard
/// order: the first success (the owning shard's answer); else the first
/// error that is not "unknown paper" (the owning shard's real failure —
/// bad `delta_p`, infeasible, …); else the first reply. Stops consuming
/// `replies` at the first success.
fn pick_scattered(replies: impl IntoIterator<Item = Json>, name: &str) -> Json {
    let unknown = format!("unknown paper '{name}'");
    let (mut real_error, mut fallback) = (None, None);
    for reply in replies {
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            return reply;
        }
        if reply.get("error").and_then(Json::as_str) != Some(unknown.as_str()) {
            real_error = real_error.or(Some(reply));
        } else {
            fallback = fallback.or(Some(reply));
        }
    }
    real_error.or(fallback).expect("at least one shard")
}

/// Replace an existing member's value in a JSON object (no-op when the
/// key is absent — callers only rewrite members they just read).
fn set_member(obj: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = obj {
        if let Some(member) = members.iter_mut().find(|(k, _)| k == key) {
            member.1 = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Service;
    use crate::server::serve_tcp;
    use std::net::TcpListener;
    use wgrap_core::prelude::{Instance, Scoring};
    use wgrap_core::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    /// 6 papers, 4 reviewers, δp = 2, δr = 4, one COI.
    fn instance() -> Instance {
        let papers = vec![
            tv(&[0.7, 0.3, 0.0]),
            tv(&[0.0, 0.5, 0.5]),
            tv(&[0.2, 0.2, 0.6]),
            tv(&[1.0, 0.0, 0.0]),
            tv(&[0.0, 0.0, 1.0]),
            tv(&[0.3, 0.4, 0.3]),
        ];
        let reviewers = vec![
            tv(&[0.9, 0.1, 0.0]),
            tv(&[0.0, 0.8, 0.2]),
            tv(&[0.3, 0.3, 0.4]),
            tv(&[0.0, 0.0, 1.0]),
        ];
        let mut inst = Instance::new(papers, reviewers, 2, 4).unwrap();
        inst.add_coi(0, 3);
        inst
    }

    /// An unsharded server over `inst`.
    fn frontend(inst: Instance) -> Arc<Frontend> {
        Arc::new(Frontend::with_defaults(Arc::new(Service::new(
            inst,
            Scoring::WeightedCoverage,
            42,
        ))))
    }

    /// One in-process shard per range of a balanced `n`-way plan.
    fn local_shards(inst: &Instance, n: usize) -> Vec<Arc<Frontend>> {
        let plan = ShardPlan::balanced(inst.num_papers(), n).unwrap();
        plan.split_instance(inst).unwrap().into_iter().map(frontend).collect()
    }

    fn router(shards: &[Arc<Frontend>]) -> Router {
        Router::connect(shards.iter().map(|f| Link::Local(Arc::clone(f))).collect()).unwrap()
    }

    fn reply(backend: &impl Backend, line: &str) -> String {
        handle_line(backend, line).to_string()
    }

    fn epochs(shards: &[Arc<Frontend>]) -> Vec<u64> {
        shards.iter().map(|f| f.service().snapshot().epoch()).collect()
    }

    fn ok(v: &Json) -> bool {
        v.get("ok").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn routed_requests_match_the_unsharded_server() {
        let inst = instance();
        let router = router(&local_shards(&inst, 3));
        let reference = frontend(inst);
        let reference = reference.as_ref();
        // jra by global id / name / ad-hoc vector — byte-identical v1
        // responses (epoch 0 everywhere pre-update).
        for line in [
            r#"{"op":"jra","paper_id":0}"#,
            r#"{"op":"jra","paper_id":4,"top_k":2}"#,
            r#"{"op":"jra","paper_name":"paper-5"}"#,
            r#"{"op":"jra","paper":[0.1,0.8,0.1]}"#,
            r#"{"op":"jra","paper_id":99}"#,
            r#"{"op":"jra","paper_name":"no-such"}"#,
            r#"{"op":"batch","queries":[{"paper_id":5},{"paper_id":0},{"paper_id":99},{"paper_name":"paper-2"}]}"#,
            r#"{"op":"nope"}"#,
        ] {
            assert_eq!(reply(&router, line), reply(reference, line), "router diverged on {line}");
        }
        // v1 stats matches the unsharded response member for member, minus
        // candidate_support (per-shard supports cannot be aggregated).
        let mut want = handle_line(reference, r#"{"op":"stats"}"#);
        if let Json::Obj(members) = &mut want {
            members.retain(|(k, _)| k != "candidate_support");
        }
        assert_eq!(reply(&router, r#"{"op":"stats"}"#), want.to_string());
        // Broadcast update: router and unsharded agree on the response and
        // on subsequent reads.
        let update = r#"{"op":"update","updates":[{"kind":"add_reviewer","name":"eve","expertise":[0.5,0.5,0.0]}]}"#;
        assert_eq!(reply(&router, update), reply(reference, update));
        let query = r#"{"op":"jra","paper_id":3}"#;
        assert_eq!(reply(&router, query), reply(reference, query));
        // add_paper routes to the last shard; the new paper is queryable
        // by its global id and the global capacity bookkeeping holds.
        let add = r#"{"op":"update","updates":[{"kind":"add_paper","name":"p-new","topics":[0.2,0.6,0.2]}]}"#;
        assert_eq!(reply(&router, add), reply(reference, add));
        let query = r#"{"op":"jra","paper_name":"p-new"}"#;
        assert_eq!(
            handle_line(&router, query).get("results").map(Json::to_string),
            handle_line(reference, query).get("results").map(Json::to_string),
        );
    }

    #[test]
    fn v2_stats_carries_the_shards_section() {
        let router = router(&local_shards(&instance(), 3));
        let stats = handle_line(&router, r#"{"v":2,"op":"stats"}"#);
        assert!(ok(&stats), "{stats}");
        assert_eq!(stats.get("papers").and_then(Json::as_usize), Some(6));
        let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 3);
        for (s, entry) in shards.iter().enumerate() {
            assert_eq!(entry.get("shard").and_then(Json::as_usize), Some(s));
            assert_eq!(entry.get("up").and_then(Json::as_bool), Some(true));
            assert_eq!(entry.get("papers").and_then(Json::as_usize), Some(2));
            assert!(entry.get("requests").and_then(Json::as_usize).unwrap() >= 1);
        }
        // v1 stats never grows the section.
        assert!(handle_line(&router, r#"{"op":"stats"}"#).get("shards").is_none());
        // The registry carries the wgrap_shard_* series.
        let prom = router.telemetry().snapshot().to_prometheus();
        assert!(prom.contains("wgrap_shard_up{shard=\"0\"}"), "{prom}");
        assert!(prom.contains("wgrap_shard_requests_total{shard=\"2\"}"), "{prom}");
    }

    #[test]
    fn assign_aggregates_and_reconciles() {
        let router = router(&local_shards(&instance(), 2));
        let v = handle_line(&router, r#"{"v":2,"op":"assign","method":"greedy"}"#);
        assert!(ok(&v), "{v}");
        let groups = v.get("groups").and_then(Json::as_arr).unwrap();
        assert_eq!(groups.len(), 6);
        let mut loads = vec![0usize; 4];
        for g in groups {
            let g = g.as_arr().unwrap();
            assert_eq!(g.len(), 2);
            for r in g {
                loads[r.as_usize().unwrap()] += 1;
            }
        }
        assert!(loads.iter().all(|&l| l <= 4), "loads {loads:?}");
        assert!(v.get("swaps").and_then(Json::as_usize).is_some());
        assert!(v.get("coverage").and_then(Json::as_f64).unwrap().is_finite());
    }

    #[test]
    fn assign_reconciles_reviewer_load_across_shards() {
        // δr = 1 with one reviewer dominating every paper: per-shard CRA
        // keeps them to one paper per shard, but globally they exceed δr
        // until the reconciliation pass swaps them out.
        let papers = vec![tv(&[1.0, 0.0]), tv(&[0.9, 0.1]), tv(&[0.8, 0.2]), tv(&[0.7, 0.3])];
        let reviewers = vec![
            tv(&[1.0, 0.0]), // dominates on the first topic
            tv(&[0.4, 0.6]),
            tv(&[0.3, 0.7]),
            tv(&[0.2, 0.8]),
        ];
        let inst = Instance::new(papers, reviewers, 1, 1).unwrap();
        let router = router(&local_shards(&inst, 2));
        let v = handle_line(&router, r#"{"op":"assign","method":"greedy"}"#);
        assert!(ok(&v), "{v}");
        assert!(v.get("swaps").and_then(Json::as_usize).unwrap() >= 1, "{v}");
        let mut loads = [0usize; 4];
        for group in v.get("groups").and_then(Json::as_arr).unwrap() {
            let group = group.as_arr().unwrap();
            assert_eq!(group.len(), 1);
            loads[group[0].as_usize().unwrap()] += 1;
        }
        assert!(loads.iter().all(|&l| l <= 1), "loads {loads:?}");
    }

    #[test]
    fn lockstep_apply_touches_exactly_the_affected_shards() {
        let shards = local_shards(&instance(), 3);
        let router = router(&shards);
        // Reviewer updates broadcast: every shard advances.
        let add_reviewer =
            r#"{"op":"update","updates":[{"kind":"add_reviewer","expertise":[0.2,0.2,0.6]}]}"#;
        assert!(ok(&handle_line(&router, add_reviewer)));
        assert_eq!(epochs(&shards), [1, 1, 1]);
        // add_paper routes to the last shard only.
        let add_paper =
            r#"{"op":"update","updates":[{"kind":"add_paper","topics":[0.0,1.0,0.0]}]}"#;
        let v = handle_line(&router, add_paper);
        assert_eq!(
            (v.get("epoch"), v.get("papers")),
            (Some(&Json::Num(2.0)), Some(&Json::Num(7.0)))
        );
        assert_eq!(epochs(&shards), [1, 1, 2]);
        // The new paper answers queries with its global id.
        assert!(ok(&handle_line(&router, r#"{"op":"jra","paper_id":6}"#)));
        // Empty batches are a no-op.
        let v = handle_line(&router, r#"{"op":"update","updates":[]}"#);
        assert_eq!(v.get("epoch").and_then(Json::as_usize), Some(2));
        assert_eq!(epochs(&shards), [1, 1, 2]);
    }

    #[test]
    fn failed_build_publishes_nothing() {
        // The last entry fails on every shard, after the last shard's
        // add_paper would have applied: no shard may publish any of it.
        let inst = instance();
        let shards = local_shards(&inst, 3);
        let router = router(&shards);
        let bad = r#"{"op":"update","updates":[{"kind":"add_paper","topics":[0.5,0.5,0.0]},{"kind":"patch_scores","reviewer":99,"expertise":[1.0,0.0,0.0]}]}"#;
        assert_eq!(reply(&router, bad), reply(frontend(inst).as_ref(), bad));
        assert_eq!(epochs(&shards), [0, 0, 0]);
        let stats = handle_line(&router, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("epoch").and_then(Json::as_usize), Some(0));
        assert_eq!(stats.get("papers").and_then(Json::as_usize), Some(6));
    }

    #[test]
    fn global_capacity_check_matches_unsharded_error() {
        // P = 2, R = 2, δp = δr = 1: exactly at capacity. Each shard holds
        // one paper, so shard-local checks would admit another paper — the
        // router must reject with the unsharded error bytes.
        let inst = Instance::new(
            vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0])],
            vec![tv(&[0.8, 0.2]), tv(&[0.2, 0.8])],
            1,
            1,
        )
        .unwrap();
        let shards = local_shards(&inst, 2);
        let router = router(&shards);
        let add = r#"{"op":"update","updates":[{"kind":"add_paper","topics":[0.5,0.5]}]}"#;
        let want = reply(frontend(inst).as_ref(), add);
        assert!(want.contains("capacity shortfall"), "{want}");
        assert_eq!(reply(&router, add), want);
        assert_eq!(epochs(&shards), [0, 0]);
    }

    #[test]
    fn concurrent_updates_reach_every_shard_in_one_order() {
        const THREADS: usize = 8;
        const BATCHES: usize = 50;
        let shards = local_shards(&instance(), 3);
        let router = Arc::new(router(&shards));
        // Release every writer at once, so their fan-outs overlap.
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (router, start) = (Arc::clone(&router), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for b in 0..BATCHES {
                        let line = format!(
                            r#"{{"op":"update","updates":[{{"kind":"add_reviewer","name":"t{t}-{b}","expertise":[0.2,0.3,0.5]}}]}}"#
                        );
                        assert!(ok(&handle_line(router.as_ref(), &line)));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        // Every shard handed out the same id to every name.
        let names = |shard: &Frontend| {
            let snapshot = shard.service().snapshot();
            let inst = snapshot.instance();
            (0..inst.num_reviewers()).map(|r| inst.reviewer_name(r)).collect::<Vec<_>>()
        };
        let first = names(&shards[0]);
        assert_eq!(first.len(), 4 + THREADS * BATCHES);
        for shard in &shards[1..] {
            assert_eq!(names(shard), first);
        }
        let stats = handle_line(router.as_ref(), r#"{"op":"stats"}"#);
        assert_eq!(stats.get("epoch").and_then(Json::as_usize), Some(THREADS * BATCHES));
    }

    #[test]
    fn unreachable_shard_degrades_to_structured_errors() {
        let inst = instance();
        let plan = ShardPlan::balanced(inst.num_papers(), 3).unwrap();
        let mut subs = plan.split_instance(&inst).unwrap();
        let dying = subs.pop().unwrap();
        let mut addrs: Vec<String> = subs
            .into_iter()
            .map(|sub| {
                let shard = frontend(sub);
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                std::thread::spawn(move || serve_tcp(listener, shard));
                addr
            })
            .collect();
        // Shard 2 answers exactly one request (the startup probe), then
        // drops its listener — every later contact is a dead connection
        // plus a refused reconnect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
        let shard = frontend(dying);
        std::thread::spawn(move || {
            let (socket, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(socket.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut socket = socket;
            writeln!(socket, "{}", handle_line(shard.as_ref(), &line)).unwrap();
        });
        let router = Router::connect(addrs.into_iter().map(Link::Tcp).collect()).unwrap();
        // A paper on the dead shard: structured shard_down, not a hang.
        assert_eq!(
            reply(&router, r#"{"v":2,"op":"jra","paper_id":5}"#),
            r#"{"ok":false,"v":2,"shard":2,"error":"shard_down: shard 2 unreachable"}"#
        );
        // A paper on a live shard still answers.
        assert!(ok(&handle_line(&router, r#"{"op":"jra","paper_id":0}"#)));
        // Batch degrades per entry.
        let batch =
            handle_line(&router, r#"{"op":"batch","queries":[{"paper_id":0},{"paper_id":5}]}"#);
        let results = batch.get("results").and_then(Json::as_arr).unwrap();
        assert!(ok(&results[0]));
        assert_eq!(
            results[1].get("error").and_then(Json::as_str),
            Some("shard_down: shard 2 unreachable")
        );
        // Stats marks the shard down and keeps aggregating the live ones.
        let stats = handle_line(&router, r#"{"v":2,"op":"stats"}"#);
        assert_eq!(stats.get("papers").and_then(Json::as_usize), Some(4));
        let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards[2].get("up").and_then(Json::as_bool), Some(false));
        assert_eq!(shards[2].get("error").and_then(Json::as_str), Some("shard_down"));
        assert_eq!(shards[0].get("up").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn routed_cache_hits_do_not_wait_for_delayed_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = frontend(instance());
        std::thread::spawn(move || serve_tcp(listener, shard));
        let router = Router::connect(vec![Link::Tcp(addr)]).unwrap();
        // Cache hits cost microseconds on the shard. A request or reply
        // split over several writes would wait ~40 ms per hop for a
        // delayed ACK.
        let jra = r#"{"v":2,"op":"jra","paper_id":1}"#;
        assert!(ok(&handle_line(&router, jra)));
        let median = crate::testutil::median_time(50, || {
            let reply = handle_line(&router, jra);
            assert_eq!(reply.get("cache").and_then(Json::as_str), Some("hit"), "{reply}");
        });
        assert!(
            median < std::time::Duration::from_millis(20),
            "median routed cache-hit round trip {median:?}"
        );
    }
}
