//! `wgrap` — command-line reviewer assignment over `.wgrap` instance files.
//!
//! ```text
//! wgrap assign  <instance-file> [--method sdga-sra] [--seed N] [--scoring weighted]
//!               [--pruning exact|auto|topk:K] [--topk K]
//!     Solve the instance and print the assignment (paper <TAB> reviewer).
//!     `--pruning auto` prunes reviewer scans wherever that is certified
//!     exact; `--topk K` (short for `--pruning topk:K`) trades bounded
//!     objective loss for O(P·k) score state.
//! wgrap check   <instance-file> <assignment-file>
//!     Validate an assignment, report its quality metrics, and print
//!     per-paper candidate-coverage stats (how many reviewers score
//!     positively per paper) to guide the choice of k.
//! wgrap journal <instance-file> <paper-name> [--top-k K] [--pruning ...]
//!     Exact best reviewer group(s) for a single paper (BBA).
//! wgrap gen     <papers> <reviewers> <delta_p> [--seed N]
//!     Emit a synthetic instance in the text format.
//! wgrap shard   <instance-file> <num-shards> <out-prefix>
//!     Split the instance into contiguous-by-paper shard files
//!     (<out-prefix>-0.wgrap, ...): each shard gets its paper slice, the
//!     full reviewer pool, the same delta_p/delta_r, remapped COI pairs
//!     and the original display names. Serve each file with a plain
//!     `wgrap serve --listen`, then front them with `wgrap serve
//!     --router`.
//! wgrap serve   <instance-file> [--listen ADDR] [--scoring ...] [--seed N]
//!               [--method sdga-sra] [--pruning ...] [--topk K]
//!               [--max-inflight N] [--queue-depth N] [--cache-cap N]
//!               [--multi]
//!               [--metrics-listen ADDR] [--data-dir DIR]
//!               [--fsync always|batch|never] [--checkpoint-every N]
//!     Serve the instance: newline-delimited JSON requests on stdin (one
//!     response line each), with --listen HOST:PORT over TCP (thread per
//!     connection), or with --multi as an interleaved multi-client replay
//!     ("<cid> <request>" lines, "#sync" barriers — see
//!     wgrap_service::server::serve_multi). Ops: jra, batch, update,
//!     assign, stats — see wgrap_service::server. Protocol v2
//!     ({"v":2,...}) adds cache/key diagnostics; v1 requests keep their
//!     exact pre-v2 response bytes. Concurrency knobs: --max-inflight N
//!     bounds the solve requests (jra, batch, assign) running at once,
//!     --queue-depth N bounds those waiting for a slot (excess answers
//!     {"busy":true}), and --cache-cap bounds the LRU result cache (0
//!     disables caching). A build with --features rayon reads its solver
//!     worker count from the WGRAP_THREADS environment variable.
//!     --metrics-listen HOST:PORT serves the telemetry registry as
//!     Prometheus text on a side listener (GET /metrics) alongside any
//!     serve mode; the v2 "metrics" op returns the same registry as JSON.
//!     --data-dir DIR makes the store durable: every admitted update batch
//!     is appended + fsync'd to a write-ahead log in DIR before it becomes
//!     visible, a full snapshot checkpoint is cut every --checkpoint-every
//!     epochs (default 64, compacting the log), and startup recovers the
//!     last durable epoch from DIR (newest checkpoint + WAL replay,
//!     truncating any torn tail). --fsync picks the WAL fsync policy
//!     (always | batch | never; default always). Durability never changes
//!     answer bytes — v2 stats just gains a "durability" section.
//! wgrap serve   --router HOST:PORT,HOST:PORT,... [--listen ADDR]
//!               [--metrics-listen ADDR]
//!     Scatter-gather router mode: no instance file — the router connects
//!     to the given shard servers (each a plain `wgrap serve --listen`
//!     over one `wgrap shard` file, in shard order), builds its paper
//!     plan from their reported sizes, and serves the same NDJSON v1/v2
//!     protocol through the same wire layer as `serve`, on stdin or
//!     --listen. jra/batch route by paper and return the owning shard's
//!     reply bytes; updates run one at a time, split by kind (add_paper to
//!     the last shard, reviewer changes broadcast); assign runs per-shard
//!     solves plus a cross-shard capacity-reconciliation pass and reports
//!     the per-shard coverage sum from before the swaps; v2 stats gains a
//!     per-shard "shards" section. An unreachable shard degrades to a
//!     structured "shard_down" error, never a hang; a shard that dies in
//!     mid-update is not rolled back on the others. --metrics-listen
//!     exposes the router's own registry (wgrap_shard_* series) as
//!     Prometheus text.
//! ```
//!
//! Every solving subcommand — `assign`, `journal`, `check`'s candidate
//! stats, and all of `serve` — builds a typed
//! [`SolveRequest`](wgrap::service::api::SolveRequest) and routes through
//! [`Service`](wgrap::service::api::Service) planning: the CLI owns flag
//! parsing and printing, nothing else. `--method` and `--scoring` resolve
//! through the same registries (`wgrap_core::engine::spec`,
//! [`Scoring::by_label`]) as the serve protocol, so every surface shares
//! one set of labels and one unknown-label error message.

use std::process::ExitCode;
use std::sync::Arc;
use wgrap::core::cra::ideal::{ideal_assignment, IdealMode};
use wgrap::core::engine::spec::{self, MethodKind};
use wgrap::core::engine::PruningPolicy;
use wgrap::core::io;
use wgrap::core::metrics;
use wgrap::prelude::*;
use wgrap::service::api::{Answer, PaperRef, ServeOptions, Service, SolveRequest};
use wgrap::service::{
    Backend, DurableOptions, Frontend, FrontendOptions, FsyncPolicy, Link, Router,
};

/// Which flags each subcommand accepts — the single source of truth the
/// parser validates against, so every subcommand shares one rejection path
/// (and one error message for the confusable `--topk` / `--top-k` pair)
/// instead of re-implementing its own checks.
const SUBCOMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("assign", &["--method", "--scoring", "--seed", "--pruning", "--topk"]),
    ("check", &["--scoring"]),
    ("journal", &["--scoring", "--top-k", "--pruning", "--topk"]),
    ("gen", &["--seed"]),
    ("shard", &[]),
    (
        "serve",
        &[
            "--method",
            "--scoring",
            "--seed",
            "--pruning",
            "--topk",
            "--listen",
            "--max-inflight",
            "--queue-depth",
            "--cache-cap",
            "--multi",
            "--metrics-listen",
            "--data-dir",
            "--fsync",
            "--checkpoint-every",
            "--router",
        ],
    ),
];

/// The one shared error for a flag a subcommand does not take. Mentions the
/// `--topk` (candidate pruning) vs `--top-k` (journal's best-group count)
/// confusion whenever either is involved, instead of silently ignoring the
/// flag or failing differently per subcommand.
fn unknown_flag(cmd: &str, flag: &str, allowed: &[&str]) -> Error {
    let hint = match flag {
        "--top-k" => " (--top-k counts best groups for journal; candidate pruning is --topk K)",
        "--topk" => " (--topk K is candidate pruning, shorthand for --pruning topk:K; journal's best-group count is --top-k)",
        _ => "",
    };
    Error::InvalidInstance(format!(
        "'{cmd}' does not take {flag}{hint}; allowed flags: {}",
        if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") }
    ))
}

struct Flags {
    positional: Vec<String>,
    method: Option<MethodKind>,
    scoring: Scoring,
    seed: u64,
    top_k: Option<usize>,
    pruning: Option<PruningPolicy>,
    listen: Option<String>,
    max_inflight: Option<usize>,
    queue_depth: Option<usize>,
    cache_cap: Option<usize>,
    multi: bool,
    metrics_listen: Option<String>,
    data_dir: Option<String>,
    fsync: Option<FsyncPolicy>,
    checkpoint_every: Option<u64>,
    router: Option<String>,
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags> {
    let allowed = SUBCOMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, flags)| *flags)
        .unwrap_or(&[]);
    let mut flags = Flags {
        positional: Vec::new(),
        method: None,
        scoring: Scoring::WeightedCoverage,
        seed: 42,
        top_k: None,
        pruning: None,
        listen: None,
        max_inflight: None,
        queue_depth: None,
        cache_cap: None,
        multi: false,
        metrics_listen: None,
        data_dir: None,
        fsync: None,
        checkpoint_every: None,
        router: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(unknown_flag(cmd, arg, allowed));
        }
        let mut value = |what: &str| -> Result<String> {
            it.next()
                .cloned()
                .ok_or_else(|| Error::InvalidInstance(format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--method" => {
                // The shared registry: same labels, same error as serve.
                flags.method = Some(spec::method_by_label(&value("--method")?)?);
            }
            "--scoring" => {
                flags.scoring = Scoring::by_label(&value("--scoring")?)?;
            }
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| Error::InvalidInstance("--seed needs an integer".into()))?;
            }
            "--top-k" => {
                flags.top_k = Some(
                    value("--top-k")?
                        .parse()
                        .map_err(|_| Error::InvalidInstance("--top-k needs an integer".into()))?,
                );
            }
            "--pruning" => {
                let v = value("--pruning")?;
                flags.pruning = Some(v.parse().map_err(Error::InvalidInstance)?);
            }
            "--topk" => {
                let k: usize = value("--topk")?
                    .parse()
                    .map_err(|_| Error::InvalidInstance("--topk needs an integer".into()))?;
                if k == 0 {
                    return Err(Error::InvalidInstance("--topk must be positive".into()));
                }
                flags.pruning = Some(PruningPolicy::TopK(k));
            }
            "--listen" => flags.listen = Some(value("--listen")?),
            "--router" => flags.router = Some(value("--router")?),
            "--metrics-listen" => flags.metrics_listen = Some(value("--metrics-listen")?),
            "--data-dir" => flags.data_dir = Some(value("--data-dir")?),
            "--fsync" => {
                flags.fsync = Some(
                    FsyncPolicy::by_label(&value("--fsync")?).map_err(Error::InvalidInstance)?,
                );
            }
            "--checkpoint-every" => {
                let n: u64 = value("--checkpoint-every")?.parse().map_err(|_| {
                    Error::InvalidInstance("--checkpoint-every needs an integer".into())
                })?;
                if n == 0 {
                    return Err(Error::InvalidInstance(
                        "--checkpoint-every must be positive".into(),
                    ));
                }
                flags.checkpoint_every = Some(n);
            }
            "--multi" => flags.multi = true,
            "--max-inflight" | "--queue-depth" | "--cache-cap" => {
                let flag = arg.as_str();
                let n: usize = value(flag)?
                    .parse()
                    .map_err(|_| Error::InvalidInstance(format!("{flag} needs an integer")))?;
                match flag {
                    "--max-inflight" => flags.max_inflight = Some(n),
                    "--queue-depth" => flags.queue_depth = Some(n),
                    _ => flags.cache_cap = Some(n),
                }
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path)
        .map_err(|e| Error::InvalidInstance(format!("cannot read {path}: {e}")))
}

/// The [`ServeOptions`] a subcommand's flags resolve to — shared between
/// the in-memory and durable (`--data-dir`) service constructors.
fn serve_options(flags: &Flags) -> ServeOptions {
    ServeOptions {
        pruning: flags.pruning.unwrap_or_default(),
        method: flags.method.unwrap_or(MethodKind::Cra(CraAlgorithm::SdgaSra)),
        cache_cap: flags.cache_cap.unwrap_or(wgrap::service::api::DEFAULT_CACHE_CAP),
        telemetry: true,
    }
}

/// Build the [`Service`] a subcommand plans its requests against.
fn service_for(inst: Instance, flags: &Flags) -> Service {
    Service::with_options(inst, flags.scoring, flags.seed, serve_options(flags))
}

fn cmd_assign(flags: &Flags) -> Result<()> {
    let [path] = &flags.positional[..] else {
        return Err(Error::InvalidInstance("assign needs exactly one file".into()));
    };
    let inst = io::parse_instance(&read(path)?)?;
    let service = service_for(inst, flags);
    // The one typed entry point: defaults (method/pruning/seed) resolve in
    // planning, identically to a serve-side "assign" op.
    let outcome = service.execute(&SolveRequest::cra())?;
    let Answer::Cra(answer) = &outcome.answer else { unreachable!("cra answer") };
    let inst = service.snapshot();
    let inst = inst.instance();
    print!("{}", io::write_assignment(inst, &answer.assignment));
    eprintln!(
        "# {}: coverage {:.4}, lowest paper {:.4}",
        answer.method.label(),
        answer.coverage,
        metrics::lowest_coverage(inst, flags.scoring, &answer.assignment),
    );
    eprintln!("{}", outcome.diag_line());
    Ok(())
}

fn cmd_check(flags: &Flags) -> Result<()> {
    let [inst_path, assign_path] = &flags.positional[..] else {
        return Err(Error::InvalidInstance("check needs <instance> <assignment>".into()));
    };
    let inst = io::parse_instance(&read(inst_path)?)?;
    let a = io::parse_assignment(&inst, &read(assign_path)?)?;
    a.validate(&inst)?;
    let ideal = ideal_assignment(&inst, flags.scoring, IdealMode::Exact)?;
    println!("valid: yes");
    println!("coverage: {:.4}", a.coverage_score(&inst, flags.scoring));
    println!(
        "optimality ratio vs ideal: {:.2}%",
        100.0 * metrics::optimality_ratio(&inst, flags.scoring, &a, &ideal)
    );
    println!("lowest paper coverage: {:.4}", metrics::lowest_coverage(&inst, flags.scoring, &a));

    // Candidate-coverage stats, through the same Stats request serve
    // answers: how many reviewers score positively per paper. Picking
    // --topk at or above the p75 keeps pruning near-lossless for most
    // papers; the min flags papers where any truncation bites.
    let delta_p = inst.delta_p();
    let service = service_for(inst, flags);
    let outcome = service.execute(&SolveRequest::Stats)?;
    let Answer::Stats(stats) = &outcome.answer else { unreachable!("stats answer") };
    if let Some(s) = stats.support {
        println!(
            "candidate support (reviewers with positive score per paper): \
             min {} / p25 {} / median {} / p75 {} / max {} (of {} reviewers)",
            s.min, s.p25, s.median, s.p75, s.max, stats.reviewers
        );
        println!(
            "suggested --topk: {} (p75; lossless for >=75% of papers), exact pruning via --pruning auto",
            s.p75.max(delta_p)
        );
    }
    Ok(())
}

fn cmd_journal(flags: &Flags) -> Result<()> {
    let [inst_path, paper_name] = &flags.positional[..] else {
        return Err(Error::InvalidInstance("journal needs <instance> <paper-name>".into()));
    };
    let inst = io::parse_instance(&read(inst_path)?)?;
    let service = service_for(inst, flags);
    let mut spec = wgrap::service::api::JraSpec::new(PaperRef::Name(paper_name.clone()));
    spec.top_k = flags.top_k.unwrap_or(1);
    let outcome = service.execute(&SolveRequest::Jra(spec))?;
    let Answer::Jra(answers) = &outcome.answer else { unreachable!("jra answer") };
    let answer = match &answers[0] {
        Ok(answer) => answer,
        // The query's error is already rendered (`invalid instance: …`,
        // `infeasible: …`); report it as `main` reports an `Error`.
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let snapshot = service.snapshot();
    for (i, res) in answer.results.iter().enumerate() {
        let names: Vec<String> =
            res.group.iter().map(|&r| snapshot.instance().reviewer_name(r)).collect();
        println!("#{} score {:.4}: {}", i + 1, res.score, names.join(" "));
    }
    eprintln!("{}", outcome.diag_line());
    Ok(())
}

fn cmd_gen(flags: &Flags) -> Result<()> {
    let [p, r, dp] = &flags.positional[..] else {
        return Err(Error::InvalidInstance("gen needs <papers> <reviewers> <delta_p>".into()));
    };
    let parse = |s: &String, what: &str| -> Result<usize> {
        s.parse().map_err(|_| Error::InvalidInstance(format!("{what} must be an integer")))
    };
    let (p, r, dp) = (parse(p, "papers")?, parse(r, "reviewers")?, parse(dp, "delta_p")?);
    let spec = wgrap::datagen::DatasetSpec {
        name: "GEN",
        area: wgrap::datagen::Area::Databases,
        year: 2026,
        num_papers: p,
        num_reviewers: r,
    };
    let inst = wgrap::datagen::vectors::area_instance(&spec, dp, flags.seed);
    print!("{}", io::write_instance(&inst));
    Ok(())
}

fn cmd_shard(flags: &Flags) -> Result<()> {
    let [path, shards, prefix] = &flags.positional[..] else {
        return Err(Error::InvalidInstance(
            "shard needs <instance> <num-shards> <out-prefix>".into(),
        ));
    };
    let shards: usize = shards
        .parse()
        .map_err(|_| Error::InvalidInstance("num-shards must be an integer".into()))?;
    let inst = io::parse_instance(&read(path)?)?;
    let plan = wgrap::service::ShardPlan::balanced(inst.num_papers(), shards)?;
    for (s, sub) in plan.split_instance(&inst)?.iter().enumerate() {
        let out = format!("{prefix}-{s}.wgrap");
        std::fs::write(&out, io::write_instance(sub))
            .map_err(|e| Error::Io(format!("cannot write {out}: {e}")))?;
        let range = plan.range(s);
        eprintln!("# shard {s}: papers {}..{} -> {out}", range.start, range.end);
    }
    Ok(())
}

fn bind(addr: &str) -> Result<std::net::TcpListener> {
    std::net::TcpListener::bind(addr)
        .map_err(|e| Error::Io(format!("cannot listen on {addr}: {e}")))
}

/// The serve wiring `serve` and `serve --router` share: the Prometheus
/// scrape endpoint on its own listener thread (reading the registry the
/// protocol records into), then the session itself — stdin/stdout, the
/// `--multi` replay, or a TCP accept loop on `--listen`.
fn serve_backend<B: Backend + 'static>(flags: &Flags, backend: Arc<B>) -> Result<()> {
    if let Some(addr) = &flags.metrics_listen {
        let listener = bind(addr)?;
        eprintln!("# wgrap metrics listening on {}", listener.local_addr().unwrap());
        let telemetry = Arc::clone(backend.telemetry());
        std::thread::spawn(move || wgrap::service::serve_metrics(listener, telemetry));
    }
    let io_err = |e: std::io::Error| Error::Io(format!("serve: {e}"));
    match (&flags.listen, flags.multi) {
        (Some(_), true) => {
            Err(Error::InvalidInstance("--multi replays stdin; drop --listen".into()))
        }
        (None, true) => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            wgrap::service::serve_multi(&backend, stdin.lock(), stdout.lock()).map_err(io_err)
        }
        (None, false) => wgrap::service::serve_stdio(backend.as_ref()).map_err(io_err),
        (Some(addr), false) => {
            let listener = bind(addr)?;
            eprintln!("# wgrap serve listening on {}", listener.local_addr().unwrap());
            wgrap::service::serve_tcp(listener, backend)
        }
    }
}

/// `serve --router`: scatter-gather front-end over already-running shard
/// servers. No local store — the router holds only the shard plan, the
/// persistent downstream connections and its own telemetry registry.
fn cmd_serve_router(flags: &Flags, addr_list: &str) -> Result<()> {
    if !flags.positional.is_empty() {
        return Err(Error::InvalidInstance(
            "--router replaces the instance file; drop the positional argument".into(),
        ));
    }
    if flags.multi {
        return Err(Error::InvalidInstance("--multi replays one process; drop --router".into()));
    }
    if flags.data_dir.is_some() || flags.fsync.is_some() || flags.checkpoint_every.is_some() {
        return Err(Error::InvalidInstance(
            "--data-dir/--fsync/--checkpoint-every apply to shard processes, not the router".into(),
        ));
    }
    let links = addr_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|addr| Link::Tcp(addr.to_string()))
        .collect();
    let router = Router::connect(links)?;
    eprintln!("# wgrap router: {} shards", router.num_shards());
    serve_backend(flags, Arc::new(router))
}

fn cmd_serve(flags: &Flags) -> Result<()> {
    if let Some(addrs) = &flags.router {
        return cmd_serve_router(flags, addrs);
    }
    let [path] = &flags.positional[..] else {
        return Err(Error::InvalidInstance("serve needs exactly one instance file".into()));
    };
    let inst = io::parse_instance(&read(path)?)?;
    let service = if let Some(dir) = &flags.data_dir {
        // Durable path: recover the last durable epoch from the data dir
        // (or initialise it from the instance file on first run), then
        // serve from the recovered store. The instance file only seeds a
        // fresh dir; once epochs exist, the dir is authoritative.
        let opts = DurableOptions {
            dir: dir.into(),
            fsync: flags.fsync.unwrap_or_default(),
            checkpoint_every: flags
                .checkpoint_every
                .unwrap_or(wgrap::service::durable::DEFAULT_CHECKPOINT_EVERY),
        };
        let (store, info) =
            wgrap::service::durable::recover(opts, inst, flags.scoring, flags.seed)?;
        eprintln!(
            "# wgrap durability: {} at epoch {} ({} frames replayed, {} tail bytes truncated)",
            if info.clean { "clean start" } else { "recovered" },
            info.epochs,
            info.frames_replayed,
            info.truncated_tail_bytes,
        );
        Service::from_store(store, serve_options(flags))
    } else {
        if flags.fsync.is_some() || flags.checkpoint_every.is_some() {
            return Err(Error::InvalidInstance(
                "--fsync/--checkpoint-every only apply with --data-dir".into(),
            ));
        }
        service_for(inst, flags)
    };
    let service = Arc::new(service);
    let mut options = FrontendOptions::default();
    if let Some(n) = flags.max_inflight {
        options.max_inflight = n;
    }
    if let Some(n) = flags.queue_depth {
        options.queue_depth = n;
    }
    serve_backend(flags, Arc::new(Frontend::new(Arc::clone(&service), options)))?;
    // Drained cleanly (stdin EOF / listener closed): fsync the WAL and
    // leave the clean-shutdown marker so the next startup can prove the
    // log is complete. A crash skips this — that is what recovery is for.
    if let Some(durable) = service.store().durability() {
        durable.shutdown_clean()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: wgrap <assign|check|journal|gen|shard|serve> ... (see --help in source docs)"
        );
        return ExitCode::from(2);
    };
    let run = || -> Result<()> {
        let flags = parse_flags(cmd, rest)?;
        match cmd.as_str() {
            "assign" => cmd_assign(&flags),
            "check" => cmd_check(&flags),
            "journal" => cmd_journal(&flags),
            "gen" => cmd_gen(&flags),
            "shard" => cmd_shard(&flags),
            "serve" => cmd_serve(&flags),
            other => Err(Error::InvalidInstance(format!("unknown command '{other}'"))),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
