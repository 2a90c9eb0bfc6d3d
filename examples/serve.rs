//! A complete `wgrap serve` session, in-process: the same
//! newline-delimited JSON protocol `wgrap serve <file>` speaks on
//! stdin/stdout (and over `--listen HOST:PORT` TCP), run against an
//! in-memory pipe so the transcript prints as `>>> request` / `<<< response`
//! pairs. The tail of the session switches to protocol v2 (`"v":2`) to show
//! the cache/key diagnostics the typed request layer adds — including a
//! repeated query coming back as a `"cache":"hit"`, bit-identical to its
//! cold solve.
//!
//! The second act replays a **two-client interleaved session** through the
//! concurrent front-end (`serve_multi`, the engine behind
//! `wgrap serve --multi`): the clients' `jra` requests race on real
//! threads, each in its own solve slot, and the output is still
//! deterministic — grouped per connection, byte-identical run-to-run,
//! because each answer depends only on its request and the epoch the
//! `#sync` barriers pin. The closing v2 `stats` prints the front-end
//! counters (connections, executed `jra` requests, rejections) and the
//! LRU result-cache counters (cap, evictions).
//!
//! ```text
//! cargo run --example serve
//! ```

use std::sync::Arc;
use wgrap::core::io;
use wgrap::prelude::*;
use wgrap::service::api::Service;
use wgrap::service::server::handle_line;
use wgrap::service::{serve_multi, Frontend};

const INSTANCE: &str = "\
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

const SESSION: &[&str] = &[
    // Who's here?
    r#"{"op":"stats"}"#,
    // Online JRA: best group for a stored paper (alice is conflicted)...
    r#"{"op":"jra","paper_name":"p-17"}"#,
    // ... and for a brand-new submission that is not in the instance.
    r#"{"op":"jra","paper":[0.1,0.1,0.8],"delta_p":1,"top_k":2}"#,
    // Many queries, one snapshot, one epoch: the batch runs on the
    // work-stealing pool under --features rayon, bit-identically.
    r#"{"op":"batch","queries":[{"paper_id":0},{"paper_id":1},{"paper":[0.9,0.1,0.0],"delta_p":1}]}"#,
    // The pool changes: dave joins, a new paper lands (with a COI), and
    // alice's profile is re-scored — one atomic epoch bump, built
    // copy-on-write off the read path and published with a bare Arc swap.
    r#"{"op":"update","updates":[{"kind":"add_reviewer","name":"dave","expertise":[0.0,0.1,0.9]},{"kind":"add_paper","name":"p-31","topics":[0.2,0.0,0.8],"coi":[1]},{"kind":"patch_scores","reviewer":0,"expertise":[0.9,0.1,0.0]}]}"#,
    // Queries now admit at epoch 1.
    r#"{"op":"jra","paper_name":"p-31"}"#,
    // A full conference assignment over the standing instance.
    r#"{"op":"assign","method":"SDGA"}"#,
    // Protocol v2: same ops, typed through the same SolveRequest layer,
    // with cache/key diagnostics in the response...
    r#"{"v":2,"op":"jra","paper_name":"p-31"}"#,
    // ... so the repeat is visibly a per-epoch cache hit (bit-identical).
    r#"{"v":2,"op":"jra","paper_name":"p-31"}"#,
];

/// Two clients, interleaved on real threads. Lines for different
/// connections race; `#sync` is a global barrier, so the update's epoch
/// bump lands deterministically between the phases.
const MULTI_SESSION: &str = "\
# phase 1: both clients query epoch 1 concurrently
ada {\"op\":\"jra\",\"paper_id\":0}
bob {\"op\":\"jra\",\"paper_id\":1,\"top_k\":2}
ada {\"v\":2,\"op\":\"jra\",\"paper_name\":\"p-23\"}
#sync
# phase 2: ada retires carol -- one epoch bump, isolated by the barriers
ada {\"op\":\"update\",\"updates\":[{\"kind\":\"retire_reviewer\",\"reviewer\":2}]}
#sync
# phase 3: bob's repeat re-solves at the new epoch (publish invalidated it)
bob {\"op\":\"jra\",\"paper_id\":1,\"top_k\":2}
";

fn main() -> Result<()> {
    let inst = io::parse_instance(INSTANCE)?;
    let service = Arc::new(Service::new(inst, Scoring::WeightedCoverage, 42));
    let frontend = Arc::new(Frontend::with_defaults(service));

    println!("--- single connection ---");
    for request in SESSION {
        println!(">>> {request}");
        println!("<<< {}", handle_line(frontend.as_ref(), request));
    }

    println!();
    println!("--- two clients, interleaved (serve --multi) ---");
    print!("{}", MULTI_SESSION);
    let mut out = Vec::new();
    serve_multi(&frontend, MULTI_SESSION.as_bytes(), &mut out)
        .map_err(|e| Error::InvalidInstance(format!("multi session I/O error: {e}")))?;
    println!("--- responses, grouped per connection ---");
    print!("{}", String::from_utf8_lossy(&out));

    // The counters: "frontend" (connections served, executed jra requests,
    // busy rejections) and the LRU-bounded "cache" (cap, evictions). Some
    // values — like the hit/miss split between racing clients — vary run
    // to run; the response *bytes* of every solve above do not.
    println!();
    println!("--- closing v2 stats: front-end + LRU cache counters ---");
    let stats = r#"{"v":2,"op":"stats"}"#;
    println!(">>> {stats}");
    println!("<<< {}", handle_line(frontend.as_ref(), stats));
    Ok(())
}
