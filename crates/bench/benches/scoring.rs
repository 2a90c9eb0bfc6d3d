//! The scoring kernel — the innermost loop of every assignment algorithm
//! (gain evaluation dominates Greedy and BBA): pair scores under the four
//! scorings and one marginal-gain sweep, each over 256 reviewers at T=30.
//! Records land in `BENCH_scoring.json`; `counts.sum` is the sweep's sum.

use std::hint::black_box;
use wgrap_bench::report::BenchReport;
use wgrap_core::prelude::{RunningGroup, Scoring};
use wgrap_datagen::vectors::{jra_paper, jra_pool, VectorConfig};

const REVIEWERS: usize = 256;
/// Samples per record: one sweep takes microseconds.
const REPS: usize = 200;

fn main() {
    let mut report = BenchReport::new("scoring");
    let vc = VectorConfig::default();
    let params = [("reviewers", REVIEWERS as f64), ("topics", vc.num_topics as f64)];

    let pool = jra_pool(REVIEWERS, &vc, 1);
    let paper = jra_paper(&vc, 2);
    for scoring in Scoring::ALL {
        report.timed(
            &format!("pair_score_256_reviewers_t30/{scoring:?}"),
            &params,
            REPS,
            || pool.iter().map(|r| scoring.pair_score(black_box(r), black_box(&paper))).sum(),
            |&sum: &f64| vec![("sum", sum)],
        );
    }

    let pool = jra_pool(REVIEWERS, &vc, 3);
    let paper = jra_paper(&vc, 4);
    let mut rg = RunningGroup::new(Scoring::WeightedCoverage, &paper);
    rg.add(&pool[0]);
    rg.add(&pool[1]);
    report.timed(
        "marginal_gain_t30",
        &params,
        REPS,
        || pool.iter().map(|r| rg.gain(black_box(r))).sum(),
        |&sum: &f64| vec![("sum", sum)],
    );

    let path = report.write().expect("write BENCH_scoring.json");
    println!("wrote {}", path.display());
}
