//! The Table 4 story: the CRA methods on a scaled-down DB08 instance,
//! dispatched through the engine's Solver trait over one shared
//! ScoreContext. Records land in `BENCH_cra.json`.
//!
//! `counts.coverage` is each method's total coverage `c(A)` (and
//! `counts.rounds` the SRA rounds). Both are deterministic, so a kernel
//! change that claims the same answers must leave them unchanged while the
//! times move; CI pins them against the committed file.

use wgrap_bench::report::BenchReport;
use wgrap_core::assignment::Assignment;
use wgrap_core::cra::sra;
use wgrap_core::engine::{
    GreedySolver, PruningPolicy, ScoreContext, SdgaSolver, Solver, StableMatchingSolver,
};
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_datagen::areas::DB08;
use wgrap_datagen::vectors::area_instance;
use wgrap_datagen::DatasetSpec;

const SCORING: Scoring = Scoring::WeightedCoverage;
/// Samples per record: every call here takes milliseconds.
const REPS: usize = 20;

fn scaled_db08(factor: usize) -> DatasetSpec {
    DatasetSpec {
        num_papers: DB08.num_papers / factor,
        num_reviewers: DB08.num_reviewers / factor,
        ..DB08
    }
}

fn params(inst: &Instance) -> [(&'static str, f64); 3] {
    [
        ("papers", inst.num_papers() as f64),
        ("reviewers", inst.num_reviewers() as f64),
        ("delta_p", inst.delta_p() as f64),
    ]
}

fn bench_methods(report: &mut BenchReport) {
    let inst = area_instance(&scaled_db08(8), 3, 1);
    let ctx = ScoreContext::new(&inst, SCORING).with_seed(0);
    let params = params(&inst);
    let coverage = |a: &Assignment| vec![("coverage", a.coverage_score(&inst, SCORING))];
    let group = "cra_methods_db08_over8_dp3";
    let solvers: [(&str, &dyn Solver); 3] = [
        ("stable_matching", &StableMatchingSolver),
        ("greedy", &GreedySolver::default()),
        ("sdga", &SdgaSolver::default()),
    ];
    for (label, solver) in solvers {
        let name = format!("{group}/{label}");
        report.timed(&name, &params, REPS, || solver.solve(&ctx).unwrap(), coverage);
    }
    report.timed(
        &format!("{group}/sdga_sra_omega5"),
        &params,
        REPS,
        || {
            let a = SdgaSolver::default().solve(&ctx).unwrap();
            let opts = sra::SraOptions { omega: 5, ..Default::default() };
            sra::refine(&ctx, a, &opts, PruningPolicy::Exact)
        },
        |out| vec![("coverage", out.score), ("rounds", out.rounds as f64)],
    );
}

fn main() {
    let mut report = BenchReport::new("cra");
    bench_methods(&mut report);
    let path = report.write().expect("write BENCH_cra.json");
    println!("wrote {}", path.display());
}
