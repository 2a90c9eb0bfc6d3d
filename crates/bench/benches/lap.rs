//! The linear-assignment substrate: the Hungarian oracle vs the min-cost
//! flow front-end (`SparseMatrix::solve_capacitated`, the one product
//! kernel) on square unit-capacity problems and on the SDGA stage shape.
//! Records land in `BENCH_lap.json`; they are the evidence a faster stage
//! kernel must beat.
//!
//! `counts.weight` is each solve's matched weight. Both kernels are exact,
//! so the two records of one shape must agree on it up to rounding; CI
//! pins it against the committed file.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wgrap_bench::report::BenchReport;
use wgrap_lap::{hungarian_max, CostMatrix, SparseMatrix};

const REPS: usize = 10;

fn random_weights(rows: usize, cols: usize, seed: u64) -> CostMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CostMatrix::from_fn(rows, cols, |_, _| rng.random::<f64>())
}

fn bench_square(report: &mut BenchReport) {
    for n in [50usize, 100, 200] {
        let w = random_weights(n, n, n as u64);
        let params = [("rows", n as f64), ("cols", n as f64), ("cap", 1.0)];
        report.timed(
            &format!("lap_square_unit_caps/hungarian/{n}"),
            &params,
            REPS,
            || hungarian_max(&w).expect("square matrix matches"),
            |sol| vec![("weight", sol.objective)],
        );
        let (edges, caps) = (SparseMatrix::from_dense(&w), vec![1i64; n]);
        report.timed(
            &format!("lap_square_unit_caps/flow/{n}"),
            &params,
            REPS,
            || edges.solve_capacitated(&caps).expect("weights in range"),
            |sol| vec![("weight", sol.objective)],
        );
    }
}

fn bench_stage_shape(report: &mut BenchReport) {
    // SDGA stage shape: P papers x R reviewers, reviewer capacity cap.
    // Hungarian needs slot expansion (R*cap columns); flow takes the caps
    // as column capacities.
    let (p, r, cap) = (154usize, 26usize, 6i64); // DB08 / 4 at delta_p = 3
    let w = random_weights(p, r, 9);
    let (edges, caps) = (SparseMatrix::from_dense(&w), vec![cap; r]);
    let params = [("rows", p as f64), ("cols", r as f64), ("cap", cap as f64)];
    report.timed(
        "lap_sdga_stage_shape/flow_capacitated",
        &params,
        REPS,
        || edges.solve_capacitated(&caps).expect("weights in range"),
        |sol| vec![("weight", sol.objective)],
    );
    report.timed(
        "lap_sdga_stage_shape/hungarian_slot_expanded",
        &params,
        REPS,
        || {
            let expanded =
                CostMatrix::from_fn(p, r * cap as usize, |i, s| w.get(i, s / cap as usize));
            hungarian_max(&expanded).expect("slots cover every row")
        },
        |sol| vec![("weight", sol.objective)],
    );
}

fn main() {
    let mut report = BenchReport::new("lap");
    bench_square(&mut report);
    bench_stage_shape(&mut report);
    let path = report.write().expect("write BENCH_lap.json");
    println!("wrote {}", path.display());
}
