//! Golden-file smoke tests for `wgrap serve`: pipe the fixture request
//! streams through the real binary and require byte-identical responses.
//!
//! Two sessions, one per protocol version: the v1 fixture predates the
//! typed request layer and pins down that v1 replies are byte-identical
//! through it; the v2 fixture covers the `"v":2` diagnostics (cache
//! hit/miss, canonical keys, loss bounds, stats counters). Rayon on and
//! off share each golden file — serve responses are part of the engine's
//! bit-determinism contract, and the result cache's hit/miss sequence is
//! deterministic for a fixed session. The router sessions replay the same
//! way through `serve --router` in front of three shard processes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStderr, Command, Stdio};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// Compare a session's output with a committed golden, line by line.
fn assert_matches_golden(got: &str, golden_file: &str) {
    let golden = std::fs::read_to_string(format!("{FIXTURES}/{golden_file}")).unwrap();
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "response line {} diverged from {golden_file}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "one response line per request, golden count must match"
    );
}

/// Run `wgrap <args>` on `requests` to EOF and return its stdout.
fn run_session(args: &[&str], requests: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wgrap serve");
    child.stdin.take().unwrap().write_all(requests.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("wgrap serve runs to EOF");
    assert!(out.status.success(), "serve exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

fn replay_session(requests_file: &str, golden_file: &str) {
    let requests = std::fs::read_to_string(format!("{FIXTURES}/{requests_file}")).unwrap();
    let got = run_session(&["serve", &format!("{FIXTURES}/serve.wgrap")], &requests);
    assert_matches_golden(&got, golden_file);
}

#[test]
fn serve_stdin_matches_golden_responses() {
    replay_session("serve_requests.ndjson", "serve_golden.ndjson");
}

#[test]
fn serve_v2_stdin_matches_golden_responses() {
    replay_session("serve_requests_v2.ndjson", "serve_golden_v2.ndjson");
}

/// The observability golden: the v2 `metrics` op (counters, gauges,
/// histogram observation counts — no wall-clock fields) and inline
/// `"trace":true` span trees (names, nesting, counts — no durations) are
/// deterministic for a fixed session, so the whole session replays byte
/// for byte. Rayon on and off share this golden, like every other.
#[test]
fn serve_metrics_and_trace_match_golden_responses() {
    replay_session("serve_requests_metrics.ndjson", "serve_golden_metrics.ndjson");
}

/// Replay the interleaved 3-client session through `serve --multi` and
/// return its grouped `<cid>\t<response>` output.
fn replay_multi() -> String {
    let requests =
        std::fs::read_to_string(format!("{FIXTURES}/serve_requests_multi.ndjson")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(["serve", &format!("{FIXTURES}/serve.wgrap"), "--multi"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wgrap serve --multi");
    child.stdin.take().unwrap().write_all(requests.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("serve --multi runs to EOF");
    assert!(out.status.success(), "serve --multi exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

/// The tentpole's determinism contract: N clients race on real threads
/// (requests within a phase are handled concurrently and may coalesce into
/// one JraBatch), yet each connection's responses are byte-identical to
/// its golden, run after run, rayon on or off — because batched answers
/// are bit-identical to one-at-a-time solves and the fixture isolates
/// epoch bumps between `#sync` barriers.
#[test]
fn serve_multi_matches_per_connection_goldens() {
    let got = replay_multi();
    for conn in ["a", "b", "c"] {
        let golden =
            std::fs::read_to_string(format!("{FIXTURES}/serve_golden_multi_{conn}.ndjson"))
                .unwrap();
        let prefix = format!("{conn}\t");
        let mine: Vec<&str> = got.lines().filter_map(|l| l.strip_prefix(prefix.as_str())).collect();
        for (i, (g, w)) in mine.iter().zip(golden.lines()).enumerate() {
            assert_eq!(g, &w, "connection {conn} line {} diverged", i + 1);
        }
        assert_eq!(mine.len(), golden.lines().count(), "connection {conn} response count");
    }
    // And nothing beyond the three known connections.
    assert_eq!(got.lines().count(), 12, "12 responses across a, b, c");
}

#[test]
fn serve_multi_is_deterministic_run_to_run() {
    let first = replay_multi();
    let second = replay_multi();
    assert_eq!(first, second, "multi-client replay must be byte-identical across runs");
}

/// `--metrics-listen` serves Prometheus text over plain HTTP *during* the
/// session: scrape after the first request and the jra series must
/// already be there. Port 0 exercises the ephemeral-port path the CI
/// smoke uses a fixed port for.
#[test]
fn serve_metrics_listen_scrapes_live_mid_session() {
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(["serve", &format!("{FIXTURES}/serve.wgrap"), "--metrics-listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wgrap serve --metrics-listen");
    // The bound address is announced on stderr before the session starts.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut announce = String::new();
    stderr.read_line(&mut announce).unwrap();
    let addr = announce.trim().rsplit(' ').next().expect("addr in announcement").to_string();
    assert!(announce.contains("metrics listening"), "{announce}");

    // Serve one request and wait for its response, so the scrape below is
    // genuinely mid-session with recorded traffic.
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"{\"op\":\"jra\",\"paper_id\":1,\"v\":2}\n").unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut response = String::new();
    stdout.read_line(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");

    let mut sock = std::net::TcpStream::connect(&addr).expect("connect to metrics endpoint");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n").unwrap();
    let mut scrape = String::new();
    sock.read_to_string(&mut scrape).unwrap();
    assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
    let body = scrape.split_once("\r\n\r\n").expect("HTTP head and body").1;
    let lines: Vec<&str> = body.lines().collect();
    // Required series must be live mid-session, with the traffic recorded.
    for line in [
        "# TYPE wgrap_requests_total counter",
        "wgrap_requests_total{op=\"jra\"} 1",
        "wgrap_cache_misses_total 1",
        "wgrap_op_latency_seconds_count{op=\"jra\"} 1",
        "wgrap_query_solve_seconds_count 1",
        "# TYPE wgrap_store_epoch gauge",
        "wgrap_store_epoch 0",
    ] {
        assert!(lines.contains(&line), "missing line {line:?} in scrape:\n{body}");
    }
    let quantile = "wgrap_op_latency_seconds{op=\"jra\",quantile=\"0.5\"} ";
    assert!(lines.iter().any(|l| l.starts_with(quantile)), "missing {quantile:?} in:\n{body}");
    // Exposition-format lint: every non-comment line is `name[{labels}] value`.
    for line in lines.iter().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        assert!(is_prometheus_sample(line), "malformed Prometheus line: {line}");
    }

    drop(stdin); // EOF ends the session cleanly.
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");
}

/// Is `line` a Prometheus text-format sample, `name[{labels}] value`?
/// The name matches `[a-zA-Z_:][a-zA-Z0-9_:]*`, the label block holds no
/// braces, and the value is `-?[0-9][0-9.eE+-]*`.
fn is_prometheus_sample(line: &str) -> bool {
    let name_len = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(name_len);
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let rest = match rest.strip_prefix('{') {
        Some(labels) => match labels.split_once('}') {
            Some((inner, after)) if !inner.contains('{') => after,
            _ => return false,
        },
        None => rest,
    };
    let Some(value) = rest.strip_prefix(' ') else { return false };
    let digits = value.strip_prefix('-').unwrap_or(value);
    digits.starts_with(|c: char| c.is_ascii_digit())
        && digits.chars().all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
}

#[test]
fn prometheus_lint_accepts_samples_and_rejects_garbage() {
    for good in ["a 1", "wgrap_x{op=\"jra\",quantile=\"0.5\"} 2.5e-5", "ns:m -0"] {
        assert!(is_prometheus_sample(good), "{good}");
    }
    for bad in ["", "1a 1", "a{b=\"{\"} 1", "a{b=\"c\"}1", "a 1 2", "a NaN", "a{ 1"] {
        assert!(!is_prometheus_sample(bad), "{bad}");
    }
}

/// The durability restart golden: run the part-1 fixture session against
/// `serve --data-dir`, SIGKILL the process mid-session (after every
/// response — and so every WAL fsync — has landed), restart from the same
/// directory, and replay the part-2 continuation. Both halves must match
/// their committed goldens byte for byte: the restarted server answers
/// exactly as the uninterrupted session would, reports what recovery did
/// under `"recovered"`, and starts its stats counters and result cache
/// fresh (the part-2 stats golden pins `"cache"`/`"store"` at zero).
#[test]
fn serve_durable_survives_kill_and_restart_byte_identically() {
    let dir = std::env::temp_dir().join(format!("wgrap-smoke-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data_dir = dir.to_str().unwrap().to_string();
    let serve_args = [
        "serve",
        &format!("{FIXTURES}/serve.wgrap"),
        "--data-dir",
        &data_dir,
        "--checkpoint-every",
        "2",
    ];

    // Part 1: feed the requests but keep stdin open (no EOF, no clean
    // shutdown), read every response, then crash the process outright.
    let requests =
        std::fs::read_to_string(format!("{FIXTURES}/serve_requests_durable_1.ndjson")).unwrap();
    let golden1 =
        std::fs::read_to_string(format!("{FIXTURES}/serve_golden_durable_1.ndjson")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(serve_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn durable serve");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(requests.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    for (i, want) in golden1.lines().enumerate() {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), want, "part 1 line {} diverged", i + 1);
    }
    // Every response implies its update was fsync'd (--fsync defaults to
    // always) — killing now loses nothing durable.
    child.kill().expect("SIGKILL serve");
    child.wait().unwrap();
    drop(stdin);
    assert!(!dir.join("clean.marker").exists(), "a crash must not look clean");

    // Part 2: restart from the crashed directory and run to EOF.
    let requests =
        std::fs::read_to_string(format!("{FIXTURES}/serve_requests_durable_2.ndjson")).unwrap();
    let golden2 =
        std::fs::read_to_string(format!("{FIXTURES}/serve_golden_durable_2.ndjson")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(serve_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("respawn durable serve");
    child.stdin.take().unwrap().write_all(requests.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("restarted serve runs to EOF");
    assert!(out.status.success(), "restarted serve exited with {:?}", out.status);
    let got = String::from_utf8(out.stdout).expect("responses are UTF-8");
    for (i, (g, w)) in got.lines().zip(golden2.lines()).enumerate() {
        assert_eq!(g, w, "part 2 line {} diverged", i + 1);
    }
    assert_eq!(got.lines().count(), golden2.lines().count(), "part 2 response count");
    let announce = String::from_utf8_lossy(&out.stderr);
    assert!(
        announce.contains("recovered at epoch 3 (1 frames replayed, 0 tail bytes truncated)"),
        "startup line: {announce}"
    );
    assert!(dir.join("clean.marker").exists(), "EOF drain must leave the marker");
    std::fs::remove_dir_all(&dir).ok();
}

/// Durability's answer-invariance contract, pinned at the byte level:
/// replaying the durable part-1 requests *without* `--data-dir` yields
/// byte-identical responses everywhere except v2 `stats`, which differs
/// only by the absence of the trailing `"durability"` section.
#[test]
fn durability_changes_only_the_stats_durability_section() {
    let requests =
        std::fs::read_to_string(format!("{FIXTURES}/serve_requests_durable_1.ndjson")).unwrap();
    let golden =
        std::fs::read_to_string(format!("{FIXTURES}/serve_golden_durable_1.ndjson")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .arg("serve")
        .arg(format!("{FIXTURES}/serve.wgrap"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn in-memory serve");
    child.stdin.take().unwrap().write_all(requests.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("serve runs to EOF");
    assert!(out.status.success());
    let got = String::from_utf8(out.stdout).expect("responses are UTF-8");
    assert_eq!(got.lines().count(), golden.lines().count());
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        if let Some(idx) = w.find(",\"durability\":") {
            // The durable golden's stats line minus its durability section
            // must be the in-memory line, byte for byte.
            assert_eq!(g, format!("{}}}", &w[..idx]), "stats line {} diverged", i + 1);
        } else {
            assert_eq!(g, w, "line {} must not depend on durability", i + 1);
        }
    }
}

/// A `wgrap serve --listen 127.0.0.1:0` process, killed when dropped so a
/// failing test leaves no server behind.
struct ListeningServer {
    child: Child,
    /// Kept open: the server may still write to stderr after announcing.
    stderr: BufReader<ChildStderr>,
}

impl ListeningServer {
    fn start(instance: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wgrap"))
            .args(["serve", instance, "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shard server");
        let stderr = BufReader::new(child.stderr.take().unwrap());
        Self { child, stderr }
    }

    /// Block until the server announces its address, and return it.
    fn addr(&mut self) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                self.stderr.read_line(&mut line).unwrap() > 0,
                "server exited before listening"
            );
            if let Some((_, addr)) = line.trim_end().split_once(" listening on ") {
                return addr.to_string();
            }
        }
    }
}

impl Drop for ListeningServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The router goldens, replayed through `serve --router` in front of three
/// real shard processes over `wgrap gen 50000 2000 3`, split by `wgrap
/// shard`. Session 1 routes jra, batch, update and stats across every
/// shard and grows the plan with an `add_paper`. Session 2 is a fresh
/// router over the same shards: after its first reply shard 2 is killed,
/// and the remaining replies pin the exact `shard_down` degradation bytes.
#[test]
fn router_sessions_match_goldens_over_three_shard_processes() {
    let wgrap = env!("CARGO_BIN_EXE_wgrap");
    let dir = std::env::temp_dir().join(format!("wgrap-smoke-router-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let generated = Command::new(wgrap).args(["gen", "50000", "2000", "3"]).output().unwrap();
    assert!(generated.status.success());
    std::fs::write(path("inst.wgrap"), generated.stdout).unwrap();
    let split = Command::new(wgrap)
        .args(["shard", &path("inst.wgrap"), "3", &path("part")])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(split.success());
    // Start all three before waiting on any: their stores build in parallel.
    let mut shards: Vec<ListeningServer> =
        (0..3).map(|s| ListeningServer::start(&path(&format!("part-{s}.wgrap")))).collect();
    let addrs = shards.iter_mut().map(ListeningServer::addr).collect::<Vec<_>>().join(",");
    let router = ["serve", "--router", addrs.as_str()];

    let requests = std::fs::read_to_string(format!("{FIXTURES}/router_requests.ndjson")).unwrap();
    assert_matches_golden(&run_session(&router, &requests), "router_golden.ndjson");

    let requests =
        std::fs::read_to_string(format!("{FIXTURES}/router_requests_down.ndjson")).unwrap();
    let (first, rest) = requests.split_once('\n').unwrap();
    let mut child = Command::new(wgrap)
        .args(router)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn router");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{first}").unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut got = String::new();
    stdout.read_line(&mut got).unwrap();
    drop(shards.pop()); // kills shard 2 and waits for it
    stdin.write_all(rest.as_bytes()).unwrap();
    drop(stdin);
    std::io::Read::read_to_string(&mut stdout, &mut got).unwrap();
    assert!(child.wait().unwrap().success());
    assert_matches_golden(&got, "router_golden_down.ndjson");
    drop(shards);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_missing_instance() {
    let out = Command::new(env!("CARGO_BIN_EXE_wgrap"))
        .args(["serve", "/nonexistent/instance.wgrap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn confusable_flag_rejections_share_one_message_shape() {
    // Satellite contract: every subcommand rejects a foreign flag through
    // the same path, and the --topk/--top-k confusion is always explained.
    let cases = [
        (vec!["assign", "x.wgrap", "--top-k", "3"], "--top-k counts best groups"),
        (vec!["check", "x.wgrap", "y.txt", "--topk", "3"], "--topk K is candidate pruning"),
        (vec!["check", "x.wgrap", "y.txt", "--pruning", "auto"], "does not take --pruning"),
        (vec!["gen", "3", "4", "1", "--listen", ":1"], "does not take --listen"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_wgrap")).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("allowed flags:"), "{args:?} -> {err}");
        assert!(err.contains(needle), "{args:?} -> {err}");
    }
}
