//! Service-layer benchmarks at P=5000 / R=10000 (T=300, topic-model-shaped
//! sparsity, δp=2 journal queries — exact BBA at a pool size the paper's
//! §5.1 sweeps never reach):
//!
//! * **Batched JRA throughput vs batch size** — ad-hoc journal queries
//!   through [`Service`] with the result cache off, so every query solves
//!   cold: one at a time under `Exact` and under `Auto` candidate pruning
//!   over the same 32 queries (the printed ratio compares the two
//!   policies), and as `batch` requests of 16 and 128 queries under `Auto`
//!   (work-stealing fan-out under `--features rayon`). Queries/sec per
//!   configuration print as `service_jra_*` lines.
//! * **Incremental update vs full rebuild** — [`VersionedStore::apply`]
//!   latency per [`Update`] kind (copy-on-write clone + splice) against
//!   [`Snapshot::build`] on the same final instance (re-score everything),
//!   ten samples each (every apply on a fresh store), printed as
//!   `service_update_*` lines.
//! * **Telemetry overhead** — the cache-hit serve line (`handle_line`,
//!   the cheapest request the server answers) with telemetry recording on
//!   vs off (`serve_cache_hit_telemetry_*` records). The delta is a fixed
//!   few hundred nanoseconds — single-digit percent of this ~4µs
//!   worst-case line, < 2% of any request that actually solves.
//! * **Concurrent serving** — N client threads race the same 16 cold
//!   ad-hoc queries through `Frontend::jra` at the default admission
//!   bounds (`serve_concurrent_c{N}` records: q/s, p50/p99 per-request
//!   latency). Each query takes its own solve slot, so N clients solve on
//!   up to `max_inflight` cores at once.
//! * **Wire round trip** — 50 sequential cache-hit `jra` round trips from
//!   a loopback client through `serve_tcp` (`serve_tcp_round_trip`, one
//!   sample per round trip). A reply that leaves the server in several
//!   `write`s waits for the client's delayed ACK, ~44 ms on Linux; one
//!   write per reply brings the round trip down to tens of microseconds.
//!
//! The measured numbers, with the host's core count and the commit they
//! ran on, are in `BENCH_service.json` at the repository root.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wgrap_bench::report::BenchReport;
use wgrap_core::engine::PruningPolicy;
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;
use wgrap_service::{
    Answer, JraSpec, PaperRef, ServeOptions, Service, Snapshot, SolveRequest, Update,
    VersionedStore,
};
const P: usize = 5_000;
const R: usize = 10_000;
const T: usize = 300;
const PAPER_NNZ: usize = 4;
const REVIEWER_NNZ: usize = 6;
const DELTA_P: usize = 2;
/// Samples per update and rebuild record: enough for p10/p90.
const UPDATE_REPS: usize = wgrap_bench::report::SPREAD_MIN_SAMPLES;

fn sparse_vectors(n: usize, t: usize, nnz: usize, rng: &mut StdRng) -> Vec<TopicVector> {
    (0..n)
        .map(|_| {
            let entries: Vec<(usize, f64)> =
                (0..nnz).map(|_| (rng.random_range(0..t), rng.random::<f64>().max(1e-3))).collect();
            TopicVector::from_sparse(t, &entries).normalized()
        })
        .collect()
}

fn build_store(seed: u64) -> (VersionedStore, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let papers = sparse_vectors(P, T, PAPER_NNZ, &mut rng);
    let reviewers = sparse_vectors(R, T, REVIEWER_NNZ, &mut rng);
    let delta_r = Instance::minimal_delta_r(P, R, DELTA_P) + 2;
    let inst = Instance::new(papers, reviewers, DELTA_P, delta_r).expect("valid bench instance");
    (VersionedStore::new(inst, Scoring::WeightedCoverage, seed), rng)
}

/// Solve `queries` as one `batch` request under `pruning`; returns the
/// best group's score per query.
fn run_batch(service: &Service, queries: &[TopicVector], pruning: PruningPolicy) -> Vec<f64> {
    let specs = queries
        .iter()
        .map(|q| JraSpec { pruning: Some(pruning), ..JraSpec::new(PaperRef::Adhoc(q.clone())) })
        .collect();
    let outcome = service.execute(&SolveRequest::JraBatch(specs)).expect("a batch executes");
    let Answer::Jra(answers) = outcome.answer else { unreachable!("a jra request") };
    answers.into_iter().map(|a| a.expect("feasible").results[0].score).collect()
}

fn bench_batched_jra(report: &mut BenchReport) {
    let (store, mut rng) = build_store(42);
    // Caching off: every query below solves cold, whatever ran before it.
    let service = Service::from_store(store, ServeOptions { cache_cap: 0, ..Default::default() });
    let queries = sparse_vectors(128, T, PAPER_NNZ, &mut rng);

    // Correctness cross-check before timing: Auto answers must match the
    // dense baseline score-for-score on a sample.
    for i in 0..2 {
        let sample = &queries[i..i + 1];
        let auto = run_batch(&service, sample, PruningPolicy::Auto);
        let dense = run_batch(&service, sample, PruningPolicy::Exact);
        assert_eq!(auto[0].to_bits(), dense[0].to_bits(), "Auto must stay score-exact");
    }

    // Throughput per configuration, recorded into BENCH_service.json as it
    // prints.
    let mut throughput = |label: &str, pruning: PruningPolicy, chunk: usize, total: usize| {
        let start = Instant::now();
        let mut solved = 0usize;
        for queries in queries[..total].chunks(chunk) {
            solved += run_batch(&service, queries, pruning).len();
        }
        let elapsed = start.elapsed();
        let qps = solved as f64 / elapsed.as_secs_f64();
        println!(
            "service_jra_p{P}_r{R}_t{T}: {label:<24} {solved:>4} queries in {elapsed:<12.2?} ({qps:.2} q/s)"
        );
        report.record(
            &format!("jra_{label}"),
            &[
                ("papers", P as f64),
                ("reviewers", R as f64),
                ("topics", T as f64),
                ("batch", chunk as f64),
                ("queries", total as f64),
            ],
            &[elapsed],
            Some(qps),
        );
        qps
    };
    let dense_qps = throughput("one_at_a_time_dense", PruningPolicy::Exact, 1, 32);
    let auto_qps = throughput("one_at_a_time_auto", PruningPolicy::Auto, 1, 32);
    throughput("batch16_auto", PruningPolicy::Auto, 16, 32);
    throughput("batch128_auto", PruningPolicy::Auto, 128, 128);
    println!(
        "service_jra_p{P}_r{R}_t{T}: one at a time, auto vs dense on the same 32 queries: \
         {:.2}x (parallel workers: {})",
        auto_qps / dense_qps,
        if wgrap_core::engine::par::is_parallel() { "enabled" } else { "serial build" },
    );
}

fn bench_updates_vs_rebuild(report: &mut BenchReport) {
    let (store, mut rng) = build_store(7);
    let base = store.snapshot();
    let new_paper = sparse_vectors(1, T, PAPER_NNZ, &mut rng).pop().unwrap();
    let new_reviewer = sparse_vectors(1, T, REVIEWER_NNZ, &mut rng).pop().unwrap();
    let updates: Vec<(&str, Update)> = vec![
        ("add_paper", Update::AddPaper { name: None, topics: new_paper, coi: vec![] }),
        ("add_reviewer", Update::AddReviewer { name: None, expertise: new_reviewer.clone() }),
        ("patch_scores", Update::PatchScores { reviewer: 17, expertise: new_reviewer.clone() }),
        ("retire_reviewer", Update::RetireReviewer { reviewer: 23 }),
    ];

    // Measured summary: per-update apply latency vs a full rebuild of the
    // same final instance, over UPDATE_REPS samples each. Every apply
    // sample runs on a fresh store, so each one applies the same update to
    // the same state.
    for (label, update) in &updates {
        let mut apply = Vec::with_capacity(UPDATE_REPS);
        let mut rebuild = Vec::with_capacity(UPDATE_REPS);
        for _ in 0..UPDATE_REPS {
            let scratch =
                VersionedStore::new(base.instance().clone(), Scoring::WeightedCoverage, 7);
            let start = Instant::now();
            scratch.apply(std::slice::from_ref(update)).expect("applies");
            apply.push(start.elapsed());
            let final_inst = scratch.snapshot().instance().clone();
            drop(scratch);
            let start = Instant::now();
            let rebuilt = Snapshot::build(final_inst, Scoring::WeightedCoverage, 7);
            rebuild.push(start.elapsed());
            black_box(&rebuilt);
        }
        let median = |samples: &[Duration]| {
            let mut sorted = samples.to_vec();
            sorted.sort();
            sorted[sorted.len() / 2]
        };
        let (apply_t, rebuild_t) = (median(&apply), median(&rebuild));
        println!(
            "service_update_p{P}_r{R}_t{T}: {label:<16} apply {apply_t:<12.2?} vs rebuild \
             {rebuild_t:<12.2?} ({:.1}x, medians of {UPDATE_REPS})",
            rebuild_t.as_secs_f64() / apply_t.as_secs_f64()
        );
        let params = [("papers", P as f64), ("reviewers", R as f64), ("topics", T as f64)];
        report.record(
            &format!("update_apply_{label}"),
            &params,
            &apply,
            Some(1.0 / apply_t.as_secs_f64()),
        );
        report.record(
            &format!("update_rebuild_after_{label}"),
            &params,
            &rebuild,
            Some(1.0 / rebuild_t.as_secs_f64()),
        );
    }
}

/// Paged copy-on-write clone vs the flat full-memcpy clone it replaced:
/// `clone_for_update` is now O(pages) refcount bumps; the flat baseline is
/// reconstructed honestly by unsharing every matrix page and candidate row
/// slab after the clone (the exact allocate-and-copy the pre-paging layout
/// paid on every update).
fn bench_paged_vs_flat_clone(report: &mut BenchReport) {
    let (store, _) = build_store(11);
    let snapshot = store.snapshot();
    let ctx = snapshot.ctx();
    // Force the Auto candidate set so both variants clone the same state.
    let cand_bytes = ctx.auto_candidates().memory_bytes();
    let params = [
        ("papers", P as f64),
        ("reviewers", R as f64),
        ("topics", T as f64),
        ("matrix_bytes", ctx.memory_bytes() as f64),
        ("candidate_bytes", cand_bytes as f64),
    ];

    const REPS: usize = 10;
    let mut paged = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let clone = ctx.clone_for_update();
        paged.push(start.elapsed());
        black_box(&clone);
    }
    let mut flat = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let mut clone = ctx.clone_for_update();
        clone.unshare_pages();
        let mut cands = clone.auto_candidates().clone();
        cands.unshare();
        clone.install_auto_candidates(cands);
        flat.push(start.elapsed());
        black_box(&clone);
    }
    let mean =
        |ts: &[std::time::Duration]| ts.iter().sum::<std::time::Duration>() / ts.len() as u32;
    let (paged_t, flat_t) = (mean(&paged), mean(&flat));
    println!(
        "service_clone_p{P}_r{R}_t{T}: paged {paged_t:<12.2?} vs flat memcpy {flat_t:<12.2?} \
         ({:.0}x)",
        flat_t.as_secs_f64() / paged_t.as_secs_f64()
    );
    report.record("update_clone_paged", &params, &paged, Some(1.0 / paged_t.as_secs_f64()));
    report.record("update_clone_flat", &params, &flat, Some(1.0 / flat_t.as_secs_f64()));
}

/// Memory cost of retaining historical epochs: apply a chain of single-
/// reviewer patches, hold every published snapshot, and compare the naive
/// sum of per-snapshot sizes against the deduplicated footprint of the
/// distinct pages actually resident (shared pages counted once).
fn bench_epoch_retention(report: &mut BenchReport) {
    let (store, mut rng) = build_store(13);
    const EPOCHS: usize = 16;
    let mut retained: Vec<Arc<Snapshot>> = vec![store.snapshot()];
    let mut apply_times = Vec::with_capacity(EPOCHS);
    for i in 0..EPOCHS {
        let expertise = sparse_vectors(1, T, REVIEWER_NNZ, &mut rng).pop().unwrap();
        let update = Update::PatchScores { reviewer: ((i * 97) % R) as u32, expertise };
        let start = Instant::now();
        store.apply(std::slice::from_ref(&update)).expect("applies");
        apply_times.push(start.elapsed());
        retained.push(store.snapshot());
    }

    let naive_bytes: usize = retained.iter().map(|s| s.memory_bytes()).sum();
    let mut seen = std::collections::HashMap::new();
    for snap in &retained {
        for (addr, bytes) in snap.page_identities() {
            seen.insert(addr, bytes);
        }
    }
    let deduped_page_bytes: usize = seen.values().sum();
    // Non-page state (CSR, normalisers, inverted indexes) is still cloned
    // per epoch; charge it per snapshot so the footprint stays honest.
    let nonpage_bytes: usize = retained
        .iter()
        .map(|s| {
            let page_bytes: usize = s.page_identities().iter().map(|&(_, b)| b).sum();
            s.memory_bytes() - page_bytes
        })
        .sum();
    let paged_bytes = deduped_page_bytes + nonpage_bytes;
    println!(
        "service_retention_p{P}_r{R}_t{T}: {} epochs retained — naive {:.1} MiB vs \
         shared {:.1} MiB ({:.1}x smaller)",
        retained.len(),
        naive_bytes as f64 / (1 << 20) as f64,
        paged_bytes as f64 / (1 << 20) as f64,
        naive_bytes as f64 / paged_bytes as f64
    );
    report.record(
        "update_epoch_retention",
        &[
            ("papers", P as f64),
            ("reviewers", R as f64),
            ("topics", T as f64),
            ("epochs_retained", retained.len() as f64),
            ("naive_bytes", naive_bytes as f64),
            ("resident_bytes", paged_bytes as f64),
        ],
        &apply_times,
        Some(EPOCHS as f64 / apply_times.iter().map(|t| t.as_secs_f64()).sum::<f64>()),
    );
}

/// The per-epoch result cache: cold solves vs cache hits, through the
/// typed `Service::execute` entry point. `cache_cold_single_query` times
/// 20 distinct ad-hoc queries, each a miss (`counts.nodes` sums their
/// search nodes); `cache_hit_single_query` times 20 batches of 1,000 hits
/// on those same requests, one sample per batch (the batch's mean per
/// hit). Both records therefore carry p10/p90.
fn bench_result_cache(report: &mut BenchReport) {
    const QUERIES: usize = 20;
    const HITS: usize = 1_000;
    let mut rng = StdRng::seed_from_u64(99);
    let papers = sparse_vectors(P, T, PAPER_NNZ, &mut rng);
    let reviewers = sparse_vectors(R, T, REVIEWER_NNZ, &mut rng);
    let delta_r = Instance::minimal_delta_r(P, R, DELTA_P) + 2;
    let inst = Instance::new(papers, reviewers, DELTA_P, delta_r).expect("valid bench instance");
    let service = Service::new(inst, Scoring::WeightedCoverage, 99);
    let requests: Vec<SolveRequest> = sparse_vectors(QUERIES, T, PAPER_NNZ, &mut rng)
        .into_iter()
        .map(|query| {
            SolveRequest::Jra(JraSpec {
                pruning: Some(PruningPolicy::Auto),
                ..JraSpec::new(PaperRef::Adhoc(query))
            })
        })
        .collect();
    let params = [
        ("papers", P as f64),
        ("reviewers", R as f64),
        ("topics", T as f64),
        ("queries", QUERIES as f64),
    ];

    let mut cold = Vec::with_capacity(QUERIES);
    let mut nodes = 0u64;
    for request in &requests {
        let start = Instant::now();
        let outcome = service.execute(request).expect("solves");
        cold.push(start.elapsed());
        assert!(!outcome.diag.cache.is_hit(), "every cold query is a distinct key");
        let Answer::Jra(answers) = &outcome.answer else { unreachable!("a jra request") };
        nodes += answers[0].as_ref().expect("feasible").results[0].nodes;
    }
    report.record_with_counts(
        "cache_cold_single_query",
        &params,
        &cold,
        None,
        &[("nodes", nodes as f64)],
    );

    let hits: Vec<_> = requests
        .iter()
        .map(|request| {
            let start = Instant::now();
            for _ in 0..HITS {
                let warm = service.execute(request).expect("solves");
                assert!(warm.diag.cache.is_hit());
            }
            start.elapsed() / HITS as u32
        })
        .collect();
    let median = |v: &[std::time::Duration]| {
        let mut v = v.to_vec();
        v.sort();
        v[v.len() / 2]
    };
    let (cold_t, hit_t) = (median(&cold), median(&hits));
    let hit_qps = 1.0 / hit_t.as_secs_f64();
    println!(
        "service_cache_p{P}_r{R}_t{T}: cold {cold_t:.2?} vs hit {hit_t:.2?} (medians; \
         {hit_qps:.0} q/s from cache, {:.0}x), {nodes} nodes over {QUERIES} cold queries",
        cold_t.as_secs_f64() / hit_t.as_secs_f64()
    );
    report.record("cache_hit_single_query", &params, &hits, Some(hit_qps));
}

/// Telemetry overhead on the serve hot path: the same NDJSON request line
/// driven through the full protocol dispatch (`handle_line`: parse → plan
/// → admission → cache probe → render) against a telemetry-on
/// service and a telemetry-off one (`ServeOptions { telemetry: false }`
/// swaps in the disabled registry, so every counter bump, histogram
/// observation, and span record is a dropped single-branch no-op). The
/// cache-hit request is the cheapest line the server ever serves — the
/// absolute recording cost (a span tree + ring push + three histogram
/// observations, a few hundred nanoseconds) is the same on a cold solve,
/// where it vanishes into milliseconds. The < 2% serve hot-path target is
/// therefore met with enormous margin on any solving request; on this
/// pure in-memory worst-case line the same fixed cost reads as single-
/// digit percent of a ~4µs total, and the report prints both.
fn bench_telemetry_overhead(report: &mut BenchReport) {
    use wgrap_service::server::handle_line;
    use wgrap_service::Frontend;
    let mut rng = StdRng::seed_from_u64(23);
    let papers = sparse_vectors(P, T, PAPER_NNZ, &mut rng);
    let reviewers = sparse_vectors(R, T, REVIEWER_NNZ, &mut rng);
    let delta_r = Instance::minimal_delta_r(P, R, DELTA_P) + 2;
    let inst = Instance::new(papers, reviewers, DELTA_P, delta_r).expect("valid bench instance");
    let line = r#"{"op":"jra","paper_id":17,"pruning":"auto","v":2}"#;

    let build = |telemetry: bool| {
        let service = Service::with_options(
            inst.clone(),
            Scoring::WeightedCoverage,
            23,
            ServeOptions { telemetry, ..ServeOptions::default() },
        );
        let frontend = Frontend::with_defaults(Arc::new(service));
        // One cold solve warms the result cache; every timed line below
        // is a pure cache hit.
        let cold = handle_line(&frontend, line).to_string();
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        frontend
    };
    let (front_on, front_off) = (build(true), build(false));

    const REPS: usize = 7;
    const HITS: usize = 2_000;
    let time_hits = |frontend: &Frontend| {
        let start = Instant::now();
        for _ in 0..HITS {
            black_box(handle_line(frontend, line));
        }
        start.elapsed() / HITS as u32
    };
    // Interleave the reps so drift (thermal, page cache) hits both sides.
    let (mut on, mut off) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        on.push(time_hits(&front_on));
        off.push(time_hits(&front_off));
    }
    let median = |ts: &[std::time::Duration]| {
        let mut sorted = ts.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };
    let (on_t, off_t) = (median(&on), median(&off));
    let overhead_pct = (on_t.as_secs_f64() / off_t.as_secs_f64() - 1.0) * 100.0;
    let overhead_ns = (on_t.as_secs_f64() - off_t.as_secs_f64()) * 1e9;
    println!(
        "serve_telemetry_p{P}_r{R}_t{T}: cache-hit serve line on {on_t:.2?} vs off {off_t:.2?} \
         ({overhead_pct:+.2}%, {overhead_ns:+.0}ns absolute; < 2% of any solving request)"
    );
    // Sanity: the off frontend really recorded nothing, the on one
    // recorded everything.
    let t_off = front_off.service().telemetry();
    assert_eq!(t_off.traces().pushed(), 0, "disabled ring stays empty");
    assert_eq!(t_off.counter("requests_total{op=\"jra\"}").get(), 0);
    let t_on = front_on.service().telemetry();
    let served = 1 + REPS as u64 * HITS as u64;
    assert_eq!(t_on.counter("requests_total{op=\"jra\"}").get(), served);
    assert_eq!(t_on.histogram("op_latency_seconds{op=\"jra\"}").snapshot().count(), served);

    let params = [
        ("papers", P as f64),
        ("reviewers", R as f64),
        ("topics", T as f64),
        ("hits_per_sample", HITS as f64),
        ("overhead_pct", overhead_pct),
    ];
    report.record("serve_cache_hit_telemetry_on", &params, &on, Some(1.0 / on_t.as_secs_f64()));
    report.record("serve_cache_hit_telemetry_off", &params, &off, Some(1.0 / off_t.as_secs_f64()));
}

/// Concurrent serving through the [`Frontend`]: N client threads submit
/// distinct ad-hoc `Auto` queries through `Frontend::jra` at the same
/// time, under [`FrontendOptions::default`] admission bounds. Records
/// per-config q/s and p50/p99 per-request latency
/// (`serve_concurrent_c{N}` lines).
fn bench_concurrent_frontend(report: &mut BenchReport) {
    use wgrap_service::{Frontend, FrontendOptions, JraOutcome};

    let (store, mut rng) = build_store(17);
    // Caching disabled: every config replays the *same* 16 queries (so
    // q/s is comparable across client counts — BBA solve times are
    // heavy-tailed, fresh queries per config would drown the signal) and
    // each must pay the full cold solve.
    let service = Arc::new(Service::from_store(
        store,
        ServeOptions { cache_cap: 0, ..ServeOptions::default() },
    ));

    const TOTAL: usize = 16;
    let papers = sparse_vectors(TOTAL, T, PAPER_NNZ, &mut rng);
    let (mut baseline_qps, mut last_qps) = (0.0f64, 0.0f64);
    for &clients in &[1usize, 4, 8] {
        let per_client = TOTAL / clients;
        let total = clients * per_client;
        let frontend = Arc::new(Frontend::new(Arc::clone(&service), FrontendOptions::default()));
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|cid| {
                let frontend = Arc::clone(&frontend);
                let mine: Vec<_> = papers[cid * per_client..(cid + 1) * per_client].to_vec();
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(mine.len());
                    for paper in mine {
                        let spec = JraSpec {
                            pruning: Some(PruningPolicy::Auto),
                            ..JraSpec::new(PaperRef::Adhoc(paper))
                        };
                        let t0 = Instant::now();
                        match frontend.jra(&spec) {
                            JraOutcome::Done { answer, .. } => {
                                assert!(answer.expect("feasible").results[0].score > 0.0)
                            }
                            JraOutcome::Busy => panic!("queue_depth 64 never rejects here"),
                        }
                        latencies.push(t0.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<Duration> =
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
        let elapsed = start.elapsed();
        latencies.sort();
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        let (p50, p99) = (pct(0.50), pct(0.99));
        let qps = total as f64 / elapsed.as_secs_f64();
        if clients == 1 {
            baseline_qps = qps;
        }
        last_qps = qps;
        println!(
            "serve_concurrent_p{P}_r{R}_t{T}: {clients} clients  {total:>2} queries in \
             {elapsed:<10.2?} ({qps:.2} q/s, p50 {p50:.2?}, p99 {p99:.2?})"
        );
        report.record(
            &format!("serve_concurrent_c{clients}"),
            &[
                ("papers", P as f64),
                ("reviewers", R as f64),
                ("topics", T as f64),
                ("clients", clients as f64),
                ("queries", total as f64),
                ("p50_ms", p50.as_secs_f64() * 1e3),
                ("p99_ms", p99.as_secs_f64() * 1e3),
            ],
            &latencies,
            Some(qps),
        );
    }
    println!(
        "serve_concurrent_p{P}_r{R}_t{T}: 8 clients {:.1}x vs 1-client sequential Auto",
        last_qps / baseline_qps.max(1e-9)
    );
}

/// Over-the-wire latency of the cheapest request: sequential cache-hit
/// `jra` round trips from a loopback client through `serve_tcp` on the
/// service-shape [`Frontend`](wgrap_service::Frontend), so each sample
/// holds the line framing, the socket writes and the client's read
/// around the few microseconds the server spends.
fn bench_serve_tcp_round_trip(report: &mut BenchReport) {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use wgrap_service::server::serve_tcp;
    use wgrap_service::Frontend;

    let (store, _) = build_store(29);
    let service = Service::from_store(store, ServeOptions::default());
    let frontend = Arc::new(Frontend::with_defaults(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    // The accept loop runs until the bench process exits.
    std::thread::spawn(move || serve_tcp(listener, frontend));
    let mut client = TcpStream::connect(addr).expect("connect to serve_tcp");
    let mut reader = BufReader::new(client.try_clone().expect("clone client socket"));
    let mut round_trip = || {
        client.write_all(b"{\"op\":\"jra\",\"paper_id\":17,\"v\":2}\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("receive");
        reply
    };
    let cold = round_trip();
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");

    const ROUND_TRIPS: usize = 50;
    let samples: Vec<std::time::Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            let reply = round_trip();
            let elapsed = start.elapsed();
            assert!(reply.contains("\"cache\":\"hit\""), "{reply}");
            elapsed
        })
        .collect();
    let mut sorted = samples.clone();
    sorted.sort();
    let median = sorted[ROUND_TRIPS / 2];
    println!(
        "serve_tcp_p{P}_r{R}_t{T}: cache-hit jra round trip median {median:.2?} \
         ({ROUND_TRIPS} sequential)"
    );
    report.record(
        "serve_tcp_round_trip",
        &[
            ("papers", P as f64),
            ("reviewers", R as f64),
            ("topics", T as f64),
            ("round_trips", ROUND_TRIPS as f64),
        ],
        &samples,
        Some(1.0 / median.as_secs_f64()),
    );
}

fn main() {
    let mut report = BenchReport::new("service");
    bench_batched_jra(&mut report);
    bench_updates_vs_rebuild(&mut report);
    bench_paged_vs_flat_clone(&mut report);
    bench_epoch_retention(&mut report);
    bench_result_cache(&mut report);
    bench_telemetry_overhead(&mut report);
    bench_serve_tcp_round_trip(&mut report);
    bench_concurrent_frontend(&mut report);
    match report.write() {
        Ok(path) => println!("bench records -> {}", path.display()),
        Err(e) => eprintln!("could not write bench records: {e}"),
    }
}
