//! Exact JRA per query: BBA (Algorithm 1) at the served shapes, timed one
//! query at a time, with the search's `nodes` recorded next to each time.
//! Records land in `BENCH_jra.json`.
//!
//! BBA's work follows the paper's topic support `s` (its non-zero topics),
//! not the topic count `T`, so the sparse shapes sweep `s` at `T = 300`:
//!
//! * `bba_sparse_r1000_s{2,4,8}_{wc,pc,dp}` — R=1000 reviewers with 6
//!   topic draws each (the service bench's reviewer shape at perfbench's
//!   `cold` size), δp=2, 20 papers of exactly `s` distinct topics;
//! * `bba_sparse_r10000_s4_wc` — the full service shape (R=10000), 4 papers;
//! * `bba_dense_gen_r1000_dp2_wc` — the dense 30-topic `wgrap gen`
//!   generator (every weight positive, so `s = T`): where support
//!   bounding gains nothing, and must not cost anything either;
//! * `jra_solvers_r40_dp3_*` and `bba_bound_{on,off}_r60_dp3` — the
//!   Figure 9 solver comparison and the Eq. 3 bound ablation at sizes
//!   every solver finishes.
//!
//! `counts.nodes` is the summed BBA node count over a record's queries. It
//! is deterministic, so two builds that claim the same search must agree
//! on it exactly while their times differ.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wgrap_bench::report::BenchReport;
use wgrap_core::engine::ScoreContext;
use wgrap_core::jra::{bba, bfs, cp, ilp, JraProblem};
use wgrap_core::prelude::{Instance, Scoring, TopicVector};
use wgrap_datagen::areas::{Area, DatasetSpec};
use wgrap_datagen::vectors::{area_instance, jra_paper, jra_pool, VectorConfig};

const T: usize = 300;
const REVIEWER_DRAWS: usize = 6;

/// A vector over `T` topics with `draws` weights in [0.001, 1) on random
/// topics (repeats add up), normalised — the service bench's generator.
fn drawn(rng: &mut StdRng, draws: usize) -> TopicVector {
    let entries: Vec<(usize, f64)> =
        (0..draws).map(|_| (rng.random_range(0..T), rng.random::<f64>().max(1e-3))).collect();
    TopicVector::from_sparse(T, &entries).normalized()
}

/// A paper with exactly `s` distinct non-zero topics.
fn paper_with_support(rng: &mut StdRng, s: usize) -> TopicVector {
    let mut topics: Vec<usize> = Vec::with_capacity(s);
    while topics.len() < s {
        let t = rng.random_range(0..T);
        if !topics.contains(&t) {
            topics.push(t);
        }
    }
    let entries: Vec<(usize, f64)> =
        topics.into_iter().map(|t| (t, rng.random::<f64>().max(1e-3))).collect();
    TopicVector::from_sparse(T, &entries).normalized()
}

/// Time exact BBA on every paper of `inst`, one query at a time.
fn time_queries(
    report: &mut BenchReport,
    name: &str,
    inst: &Instance,
    scoring: Scoring,
    params: &[(&'static str, f64)],
) {
    let ctx = ScoreContext::new(inst, scoring);
    let opts = bba::BbaOptions::default();
    let mut samples: Vec<Duration> = Vec::with_capacity(inst.num_papers());
    let mut nodes = 0u64;
    for p in 0..inst.num_papers() {
        let start = Instant::now();
        let best = bba::solve_ctx(&ctx, p, &opts).expect("feasible");
        samples.push(start.elapsed());
        nodes += best[0].nodes;
        black_box(best);
    }
    let mut sorted = samples.clone();
    sorted.sort();
    println!(
        "{name}: median {:>10.2?} over {} queries, {nodes} nodes",
        sorted[sorted.len() / 2],
        samples.len()
    );
    report.record_with_counts(name, params, &samples, None, &[("nodes", nodes as f64)]);
}

fn sparse_shapes(report: &mut BenchReport) {
    for (reviewers, papers, supports, scorings) in [
        (
            1_000usize,
            20usize,
            &[2usize, 4, 8][..],
            &[Scoring::WeightedCoverage, Scoring::PaperCoverage, Scoring::DotProduct][..],
        ),
        (10_000, 4, &[4][..], &[Scoring::WeightedCoverage][..]),
    ] {
        let mut rng = StdRng::seed_from_u64(14);
        let pool: Vec<TopicVector> =
            (0..reviewers).map(|_| drawn(&mut rng, REVIEWER_DRAWS)).collect();
        for &s in supports {
            let docs: Vec<TopicVector> =
                (0..papers).map(|_| paper_with_support(&mut rng, s)).collect();
            let delta_r = Instance::minimal_delta_r(papers, reviewers, 2);
            let inst = Instance::new(docs, pool.clone(), 2, delta_r).expect("valid");
            for &scoring in scorings {
                let label = match scoring {
                    Scoring::WeightedCoverage => "wc",
                    Scoring::PaperCoverage => "pc",
                    Scoring::DotProduct => "dp",
                    Scoring::ReviewerCoverage => "rc",
                };
                let params = [
                    ("reviewers", reviewers as f64),
                    ("topics", T as f64),
                    ("support", s as f64),
                    ("delta_p", 2.0),
                    ("queries", papers as f64),
                ];
                let name = format!("bba_sparse_r{reviewers}_s{s}_{label}");
                time_queries(report, &name, &inst, scoring, &params);
            }
        }
    }
}

fn dense_gen_shape(report: &mut BenchReport) {
    let spec = DatasetSpec {
        name: "GEN",
        area: Area::Databases,
        year: 2026,
        num_papers: 20,
        num_reviewers: 1_000,
    };
    let inst = area_instance(&spec, 2, 0);
    let params = [
        ("reviewers", 1_000.0),
        ("topics", inst.num_topics() as f64),
        ("delta_p", 2.0),
        ("queries", 20.0),
    ];
    time_queries(report, "bba_dense_gen_r1000_dp2_wc", &inst, Scoring::WeightedCoverage, &params);
}

/// Time `run` `reps` times; returns the samples and the last result.
fn repeat<R>(reps: usize, mut run: impl FnMut() -> R) -> (Vec<Duration>, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = run();
        samples.push(start.elapsed());
        last = Some(black_box(out));
    }
    (samples, last.expect("reps >= 1"))
}

fn small_solvers(report: &mut BenchReport) {
    let vc = VectorConfig::default();
    let pool = jra_pool(40, &vc, 1);
    let paper = jra_paper(&vc, 2);
    let problem = JraProblem::new(&paper, &pool, 3);
    let params = [("reviewers", 40.0), ("topics", vc.num_topics as f64), ("delta_p", 3.0)];
    let (samples, best) = repeat(10, || bba::solve(&problem).expect("feasible"));
    report.record_with_counts(
        "jra_solvers_r40_dp3_bba",
        &params,
        &samples,
        None,
        &[("nodes", best.nodes as f64)],
    );
    let (samples, _) = repeat(10, || bfs::solve(&problem));
    report.record("jra_solvers_r40_dp3_bfs", &params, &samples, None);
    let (samples, _) = repeat(10, || cp::solve(&problem, None));
    report.record("jra_solvers_r40_dp3_cp", &params, &samples, None);
    let (samples, _) = repeat(10, || ilp::solve(&problem, None));
    report.record("jra_solvers_r40_dp3_ilp", &params, &samples, None);

    // Eq. 3 bounding on vs off (branching order alone).
    let pool = jra_pool(60, &vc, 5);
    let paper = jra_paper(&vc, 6);
    let problem = JraProblem::new(&paper, &pool, 3);
    let params = [("reviewers", 60.0), ("topics", vc.num_topics as f64), ("delta_p", 3.0)];
    for (name, use_bound) in [("bba_bound_on_r60_dp3", true), ("bba_bound_off_r60_dp3", false)] {
        let opts = bba::BbaOptions { use_bound, ..Default::default() };
        let (samples, best) =
            repeat(10, || bba::solve_with_options(&problem, &opts).expect("feasible"));
        report.record_with_counts(
            name,
            &params,
            &samples,
            None,
            &[("nodes", best[0].nodes as f64)],
        );
    }
}

fn main() {
    let mut report = BenchReport::new("jra");
    sparse_shapes(&mut report);
    dense_gen_shape(&mut report);
    small_solvers(&mut report);
    let path = report.write().expect("write BENCH_jra.json");
    println!("wrote {}", path.display());
}
