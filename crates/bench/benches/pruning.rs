//! CandidateSet pruning at the scale where the dense path is memory-bound:
//! P=5000, R=10000, T=500 with topic-model-shaped sparsity on both sides.
//!
//! Three measurements at full size (reference numbers from one container
//! run, single-threaded):
//!
//! * `candidate_build_k16` (~1.4 s) — building the top-16 candidate lists,
//!   the one-off cost the pruned path pays;
//! * `sparse_stage_build_plus_solve_k16` (~25 s) — one complete SDGA stage
//!   over candidate edges: gain rows + the exact [`SparseMatrix`]
//!   min-cost-flow solve over `P·k = 80k` edges;
//! * `dense_stage_build_only` (~3.1 s) — just *materialising* the dense
//!   `P × R` stage matrix: 400 MB of score state. The dense *solve* is not
//!   benched because it cannot reasonably run: its flow network carries
//!   `P·R = 50M` pair edges (~625× the sparse edge count per Dijkstra,
//!   hours of augmentation) and ~3 GB of network state. At this scale the
//!   sparse stage including its solve is the only path that finishes, which
//!   is the memory-bound regime this bench pins down.
//!
//! A mid-size end-to-end group (P=500, R=1000) runs complete dense and
//! pruned SDGA solves so the build+solve win is *measured*, not argued:
//! ~7.2 s dense vs ~0.45 s at k=16 (≈16×) at 96.9% of the dense coverage.
//! The harness also asserts the ≥5× peak score-state memory reduction
//! (~377× at k=16) and prints the exact byte counts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use wgrap_bench::report::BenchReport;
use wgrap_core::engine::{
    CandidateSet, GainProvider, GainTable, PruningPolicy, ScoreContext, SdgaSolver, Solver,
};
use wgrap_core::prelude::{Instance, Scoring, TopicVector};
use wgrap_lap::SparseMatrix;

const P: usize = 5_000;
const R: usize = 10_000;
const T: usize = 500;
/// Non-zero topics per paper / reviewer (topic-model posteriors
/// concentrate mass; ATM author vectors are a little wider).
const PAPER_NNZ: usize = 8;
const REVIEWER_NNZ: usize = 16;
const K: usize = 16;

fn sparse_instance(p: usize, r: usize, t: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = |n: usize, nnz: usize| -> Vec<TopicVector> {
        (0..n)
            .map(|_| {
                let entries: Vec<(usize, f64)> = (0..nnz)
                    .map(|_| (rng.random_range(0..t), rng.random::<f64>().max(1e-3)))
                    .collect();
                TopicVector::from_sparse(t, &entries).normalized()
            })
            .collect()
    };
    let papers = gen(p, PAPER_NNZ);
    let reviewers = gen(r, REVIEWER_NNZ);
    let delta_p = 3;
    let delta_r = Instance::minimal_delta_r(p, r, delta_p);
    Instance::new(papers, reviewers, delta_p, delta_r).expect("valid bench instance")
}

/// One pruned SDGA stage from empty groups: candidate gain rows feeding the
/// sparse flow solve (what the SDGA stage builder runs per stage under
/// `TopK`).
fn sparse_stage(
    inst: &Instance,
    gains: &GainTable<'_, '_>,
    cands: &CandidateSet,
) -> (usize, usize) {
    let stage_cap = inst.delta_r().div_ceil(inst.delta_p()).max(1) as i64;
    let rows: Vec<Vec<(u32, f64)>> = (0..inst.num_papers())
        .map(|p| {
            let (rs, _) = cands.candidates(p);
            let mut row = vec![0.0f64; rs.len()];
            gains.gains_for(p, rs, &mut row);
            rs.iter().zip(&row).map(|(&r, &g)| (r, g)).collect()
        })
        .collect();
    let sparse = SparseMatrix::from_rows(inst.num_reviewers(), rows);
    let nnz = sparse.memory_bytes();
    let caps = vec![stage_cap; inst.num_reviewers()];
    let sol = sparse.solve_capacitated(&caps).expect("weights in range");
    (sol.matched(), nnz)
}

/// The dense stage matrix (gain row per paper over all R reviewers) — the
/// memory-bound build the sparse path replaces.
fn dense_stage_matrix(inst: &Instance, gains: &GainTable<'_, '_>) -> Vec<f64> {
    let num_r = inst.num_reviewers();
    let mut flat = vec![0.0f64; inst.num_papers() * num_r];
    for p in 0..inst.num_papers() {
        gains.gains_into(p, &mut flat[p * num_r..(p + 1) * num_r]);
    }
    flat
}

fn bench_full_scale(report: &mut BenchReport) {
    let inst = sparse_instance(P, R, T, 42);
    let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
    let gains = GainTable::new(&ctx);
    let build_start = Instant::now();
    let cands = CandidateSet::build(&ctx, Some(K));
    let build_t = build_start.elapsed();

    // Acceptance gate: >=5x lower peak score-state memory than the dense
    // P x R stage matrix (in practice hundreds of times at k=16).
    let dense_bytes = P * R * std::mem::size_of::<f64>();
    let sparse_bytes = cands.memory_bytes();
    let ratio = dense_bytes as f64 / sparse_bytes as f64;
    println!(
        "score-state memory: dense {:.1} MB vs candidates {:.2} MB ({ratio:.0}x reduction)",
        dense_bytes as f64 / 1e6,
        sparse_bytes as f64 / 1e6,
    );
    assert!(ratio >= 5.0, "candidate pruning must cut score-state memory >=5x, got {ratio:.1}x");
    let params = [
        ("papers", P as f64),
        ("reviewers", R as f64),
        ("topics", T as f64),
        ("k", K as f64),
        ("memory_bytes", sparse_bytes as f64),
        ("dense_memory_bytes", dense_bytes as f64),
    ];
    report.record("candidate_build_k16", &params, &[build_t], None);
    let stats = cands.coverage_stats().expect("papers exist");
    println!(
        "candidate support before truncation: min {} / median {} / max {} (k = {K})",
        stats.min, stats.median, stats.max
    );

    // Sanity: the sparse stage actually places papers — timed once for the
    // machine-readable record.
    let stage_start = Instant::now();
    let (matched, _) = sparse_stage(&inst, &gains, &cands);
    report.record("sparse_stage_build_plus_solve_k16", &params, &[stage_start.elapsed()], None);
    assert!(matched == P, "sparse stage left {} of {P} papers unplaced", P - matched);
    let dense_start = Instant::now();
    black_box(dense_stage_matrix(&inst, &gains));
    report.record("dense_stage_build_only", &params, &[dense_start.elapsed()], None);
}

fn bench_mid_scale_end_to_end(report: &mut BenchReport) {
    let inst = sparse_instance(500, 1_000, 120, 7);
    let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);

    // Cross-check quality before timing: top-k SDGA must stay feasible and
    // land close to the dense objective. The two timed runs double as the
    // machine-readable records.
    let dense_start = Instant::now();
    let dense = SdgaSolver::default().solve(&ctx).expect("dense sdga");
    let dense_t = dense_start.elapsed();
    let pruned_start = Instant::now();
    let pruned = SdgaSolver { pruning: PruningPolicy::TopK(K) }.solve(&ctx).expect("pruned sdga");
    let pruned_t = pruned_start.elapsed();
    pruned.validate(&inst).expect("pruned assignment valid");
    let (ds, ps) = (
        dense.coverage_score(&inst, Scoring::WeightedCoverage),
        pruned.coverage_score(&inst, Scoring::WeightedCoverage),
    );
    println!("sdga_p500_r1000 coverage: dense {ds:.4} vs topk16 {ps:.4} ({:.2}%)", 100.0 * ps / ds);
    let params = [
        ("papers", 500.0),
        ("reviewers", 1_000.0),
        ("topics", 120.0),
        ("k", K as f64),
        ("coverage_vs_dense", ps / ds),
    ];
    report.record("sdga_dense_build_plus_solve", &params, &[dense_t], None);
    report.record("sdga_topk16_build_plus_solve", &params, &[pruned_t], None);
}

fn main() {
    let mut report = BenchReport::new("pruning");
    bench_full_scale(&mut report);
    bench_mid_scale_end_to_end(&mut report);
    match report.write() {
        Ok(path) => println!("bench records -> {}", path.display()),
        Err(e) => eprintln!("could not write bench records: {e}"),
    }
}
