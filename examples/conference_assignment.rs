//! Conference Reviewer Assignment (paper §4–5): run all six evaluated
//! methods on a SIGMOD'08-shaped synthetic workload and print the §5.2
//! quality metrics.
//!
//! ```text
//! cargo run --release --example conference_assignment [scale]
//! ```
//!
//! The optional `scale` divides the DB08 cardinalities (617 papers / 105
//! reviewers); default 4 keeps the run under ~30 s.

use wgrap::core::cra::ideal::{ideal_assignment, IdealMode};
use wgrap::core::cra::CraAlgorithm;
use wgrap::core::engine::{PruningPolicy, ScoreContext};
use wgrap::core::metrics;
use wgrap::datagen::areas::DB08;
use wgrap::datagen::vectors::area_instance;
use wgrap::datagen::DatasetSpec;
use wgrap::prelude::*;

fn main() -> Result<()> {
    let scale: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let spec = DatasetSpec {
        num_papers: (DB08.num_papers / scale).max(6),
        num_reviewers: (DB08.num_reviewers / scale).max(6),
        ..DB08
    };
    let inst = area_instance(&spec, 3, 7);
    println!(
        "DB08/{scale}: {} papers, {} reviewers, delta_p=3, delta_r={}",
        inst.num_papers(),
        inst.num_reviewers(),
        inst.delta_r()
    );

    let scoring = Scoring::WeightedCoverage;
    let ideal = ideal_assignment(&inst, scoring, IdealMode::Exact)?;

    // One flat ScoreContext shared by all six solvers.
    let ctx = ScoreContext::new(&inst, scoring).with_seed(7);
    let mut results = Vec::new();
    for algo in CraAlgorithm::ALL {
        let start = std::time::Instant::now();
        let a = algo.solver_with(PruningPolicy::Exact).solve(&ctx)?;
        let elapsed = start.elapsed();
        a.validate(&inst)?;
        println!(
            "{:<9} coverage {:>8.3}  optimality {:>6.2}%  lowest {:>5.3}  ({elapsed:.2?})",
            algo.label(),
            a.coverage_score(&inst, scoring),
            100.0 * metrics::optimality_ratio(&inst, scoring, &a, &ideal),
            metrics::lowest_coverage(&inst, scoring, &a),
        );
        results.push((algo.label(), a));
    }

    let (_, sra) = results.last().expect("ran all methods");
    println!("\nSDGA-SRA superiority (fraction of papers at least as well served):");
    for (label, a) in &results[..4] {
        let s = metrics::superiority_ratio(&inst, scoring, sra, a);
        println!(
            "  vs {:<7} {:>5.1}% ({:.1}% ties)",
            label,
            100.0 * s.better_or_equal(),
            100.0 * s.tied
        );
    }
    Ok(())
}
