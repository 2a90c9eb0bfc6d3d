//! The ScoreEngine's flat SoA + CSR kernels on the two hot kernels every
//! solver shares: the dense P×R pair-score matrix build and one SDGA stage
//! cost-matrix build (all marginal gains, groups one reviewer deep).
//! Records land in `BENCH_engine.json`.
//!
//! P=500, R=1000, T=100 with topic-model-shaped papers (mass concentrated
//! on a few topics, as ATM inference produces). The seed's boxed-vector
//! path these kernels replaced is a test-only oracle now; the unit test
//! `engine::gain::tests::gain_table_matches_running_groups_bitwise` and the
//! `cra_algorithms_bit_identical` proptest pin the engine to it bit for bit.
//!
//! Two more records time the two largest steps of a `wgrap serve` start at
//! the service shape (P=5000, R=10000, T=300; 4 topics per paper, 6 per
//! reviewer, one conflict per paper, as perfbench's `hot` instance):
//! `instance_parse_*` parses the instance file's text, and
//! `candidate_set_auto_*` builds the Auto candidate set over a context
//! whose topic index is already built. Its counts `entries` (candidates
//! over all rows) and `score_sum` (their scores summed in row order) are
//! deterministic; CI pins them to the committed file.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wgrap_bench::report::BenchReport;
use wgrap_core::engine::{CandidateSet, GainProvider, GainTable, ScoreContext};
use wgrap_core::io;
use wgrap_core::prelude::{Instance, Scoring, TopicVector};

const P: usize = 500;
const R: usize = 1000;
const T: usize = 100;
/// Non-zero topics per paper (topic-model posteriors concentrate mass).
const PAPER_NNZ: usize = 8;
const REPS: usize = 10;

fn bench_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(42);
    let papers: Vec<TopicVector> = (0..P)
        .map(|_| {
            let entries: Vec<(usize, f64)> = (0..PAPER_NNZ)
                .map(|_| (rng.random_range(0..T), rng.random::<f64>().max(1e-3)))
                .collect();
            TopicVector::from_sparse(T, &entries).normalized()
        })
        .collect();
    let reviewers: Vec<TopicVector> = (0..R)
        .map(|_| {
            let raw: Vec<f64> = (0..T).map(|_| rng.random::<f64>().powi(3)).collect();
            TopicVector::new(raw).normalized()
        })
        .collect();
    let delta_p = 3;
    let delta_r = Instance::minimal_delta_r(P, R, delta_p);
    Instance::new(papers, reviewers, delta_p, delta_r).expect("valid bench instance")
}

/// The service shape of the start-up records.
const SERVICE_P: usize = 5_000;
const SERVICE_R: usize = 10_000;
const SERVICE_T: usize = 300;
const START_REPS: usize = 10;

/// The service-shape instance as `wgrap serve` reads it: `.wgrap` text.
fn service_instance_text() -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let mut sparse = |n: usize, nnz: usize| -> Vec<TopicVector> {
        (0..n)
            .map(|_| {
                let entries: Vec<(usize, f64)> = (0..nnz)
                    .map(|_| (rng.random_range(0..SERVICE_T), rng.random::<f64>().max(1e-3)))
                    .collect();
                TopicVector::from_sparse(SERVICE_T, &entries).normalized()
            })
            .collect()
    };
    let papers = sparse(SERVICE_P, 4);
    let reviewers = sparse(SERVICE_R, 6);
    let delta_r = Instance::minimal_delta_r(SERVICE_P, SERVICE_R, 2) + 2;
    let mut inst = Instance::new(papers, reviewers, 2, delta_r).expect("valid bench instance");
    for p in 0..SERVICE_P {
        inst.add_coi(rng.random_range(0..SERVICE_R), p);
    }
    io::write_instance(&inst)
}

/// One stage-matrix build: every paper's marginal-gain row over all
/// reviewers, the gain kernel an unpruned SDGA stage runs.
fn build_stage_rows<G: GainProvider>(gains: &G, row: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    for p in 0..gains.num_papers() {
        gains.gains_into(p, row);
        acc += row[0] + row[R - 1];
    }
    acc
}

fn main() {
    let mut report = BenchReport::new("engine");
    let inst = bench_instance();
    let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
    let params = [("papers", P as f64), ("reviewers", R as f64), ("topics", T as f64)];

    report.timed(
        "pair_matrix_p500_r1000_t100/engine_flat_csr",
        &params,
        REPS,
        || ctx.build_pair_matrix(),
        |_| vec![],
    );

    // Stage 2 of SDGA: each paper's group already holds one reviewer.
    let mut engine = GainTable::new(&ctx);
    for p in 0..P {
        engine.add(p, p % R);
    }
    let mut row = vec![0.0; R];
    report.timed(
        "sdga_stage_matrix_p500_r1000_t100/engine_flat_csr",
        &params,
        REPS,
        || build_stage_rows(&engine, &mut row),
        |_| vec![],
    );

    let text = service_instance_text();
    let params = [
        ("papers", SERVICE_P as f64),
        ("reviewers", SERVICE_R as f64),
        ("topics", SERVICE_T as f64),
    ];
    let inst = report.timed(
        "instance_parse_p5000_r10000_t300",
        &params,
        START_REPS,
        || io::parse_instance(&text).expect("the written instance parses"),
        |_| vec![],
    );
    drop(text);
    let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
    ctx.topic_index();
    report.timed(
        "candidate_set_auto_p5000_r10000_t300",
        &params,
        START_REPS,
        || CandidateSet::build(&ctx, None),
        |cands| {
            let rows = (0..cands.num_papers()).map(|p| cands.candidates(p).1);
            let (entries, score_sum) = rows.fold((0, 0.0), |(n, sum), scores| {
                (n + scores.len(), sum + scores.iter().sum::<f64>())
            });
            vec![("entries", entries as f64), ("score_sum", score_sum)]
        },
    );

    let path = report.write().expect("write BENCH_engine.json");
    println!("wrote {}", path.display());
}
