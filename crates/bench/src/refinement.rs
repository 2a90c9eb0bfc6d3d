//! Refinement experiments: Figure 12 (SRA vs plain local search over time)
//! and Figure 16 (the effect of the convergence threshold ω).

use crate::util::{banner, render_table, RunConfig};
use std::time::Duration;
use wgrap_core::assignment::Assignment;
use wgrap_core::cra::ideal::{ideal_assignment, IdealMode};
use wgrap_core::cra::{local_search, sra};
use wgrap_core::engine::{PruningPolicy, ScoreContext, SdgaSolver, Solver};
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_datagen::areas::{DB08, DM08};
use wgrap_datagen::vectors::area_instance;
use wgrap_datagen::DatasetSpec;

const SCORING: Scoring = Scoring::WeightedCoverage;

fn setup(cfg: &RunConfig, spec: &DatasetSpec, delta_p: usize) -> (Instance, f64) {
    let inst = area_instance(&cfg.scaled(spec), delta_p, cfg.seed);
    let ideal = ideal_assignment(&inst, SCORING, IdealMode::Exact).expect("ideal");
    let denom = ideal.coverage_score(&inst, SCORING);
    (inst, denom)
}

/// SDGA's assignment, the starting point every refinement here runs from.
fn sdga(ctx: &ScoreContext<'_>) -> Assignment {
    SdgaSolver::default().solve(ctx).expect("sdga")
}

/// Unpruned SRA over `ctx`.
fn refine(ctx: &ScoreContext<'_>, initial: &Assignment, opts: &sra::SraOptions) -> sra::SraOutcome {
    sra::refine(ctx, initial.clone(), opts, PruningPolicy::Exact)
}

/// Sample a refinement trace at fixed wall-clock ticks, as optimality ratio.
fn sample_trace(trace: &[(Duration, f64)], denom: f64, ticks: &[f64]) -> Vec<String> {
    ticks
        .iter()
        .map(|&tick| {
            let best = trace
                .iter()
                .take_while(|(d, _)| d.as_secs_f64() <= tick)
                .map(|&(_, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            let best = if best.is_finite() { best } else { trace[0].1 };
            format!("{:.2}%", 100.0 * best / denom)
        })
        .collect()
}

/// Figure 12: optimality ratio over refinement time, SDGA-SRA vs SDGA-LS.
/// The paper runs for 50 s; the budget scales down with the instance.
pub fn fig12(cfg: &RunConfig) {
    let budget = Duration::from_secs_f64(50.0 / cfg.scale as f64).max(Duration::from_secs(2));
    let ticks: Vec<f64> = (0..=5).map(|i| budget.as_secs_f64() * i as f64 / 5.0).collect();
    for spec in [DB08, DM08] {
        banner(&format!(
            "Figure 12 ({}): optimality ratio during refinement (budget {budget:?})",
            spec.name
        ));
        let (inst, denom) = setup(cfg, &spec, 3);
        let ctx = ScoreContext::new(&inst, SCORING);
        let initial = sdga(&ctx);

        let sra_out = refine(
            &ctx,
            &initial,
            &sra::SraOptions {
                omega: usize::MAX,
                max_rounds: usize::MAX,
                time_limit: Some(budget),
                seed: cfg.seed,
                ..Default::default()
            },
        );
        let ls_out = local_search::refine(
            &ctx,
            initial,
            &local_search::LocalSearchOptions {
                patience: usize::MAX,
                time_limit: Some(budget),
                seed: cfg.seed,
            },
            PruningPolicy::Exact,
        );

        let mut rows = Vec::new();
        let mut row = vec!["SDGA-SRA".to_string()];
        row.extend(sample_trace(&sra_out.trace, denom, &ticks));
        rows.push(row);
        let mut row = vec!["SDGA-LS".to_string()];
        row.extend(sample_trace(&ls_out.trace, denom, &ticks));
        rows.push(row);

        let headers: Vec<String> = std::iter::once("method".to_string())
            .chain(ticks.iter().map(|t| format!("{t:.0}s")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", render_table(&header_refs, &rows));
        println!("SRA rounds: {}, LS proposals: {}", sra_out.rounds, ls_out.proposals);
    }
}

/// Figure 16: effect of ω on quality and response time (δp = 3).
pub fn fig16(cfg: &RunConfig) {
    for spec in [DB08, DM08] {
        banner(&format!("Figure 16 ({}): effect of omega (delta_p=3)", spec.name));
        let (inst, denom) = setup(cfg, &spec, 3);
        let ctx = ScoreContext::new(&inst, SCORING);
        let initial = sdga(&ctx);
        let mut rows = Vec::new();
        for &omega in &[2usize, 5, 10, 20, 40] {
            let (out, t) = crate::util::timeit(|| {
                refine(
                    &ctx,
                    &initial,
                    &sra::SraOptions { omega, seed: cfg.seed, ..Default::default() },
                )
            });
            rows.push(vec![
                omega.to_string(),
                format!("{:.2}%", 100.0 * out.score / denom),
                format!("{:.2}", t.as_secs_f64()),
                out.rounds.to_string(),
            ]);
        }
        println!("{}", render_table(&["omega", "optimality ratio", "time (s)", "rounds"], &rows));
    }
}

/// `SraOptions::trials` vs ω on Table-4-style datasets: is it better to run
/// one long chain (large ω) or several independent chains (trials > 1,
/// seeds `seed + t`, best outcome wins) at the same total round budget?
///
/// Each grid cell reports the optimality ratio, wall-clock, and total
/// rounds across chains. The chains run in parallel under the `rayon`
/// feature, so trials also convert cores into quality at roughly the
/// single-chain latency.
pub fn trials_tradeoff(cfg: &RunConfig) {
    for spec in [DB08, DM08] {
        banner(&format!(
            "SRA trials x omega trade-off ({}, delta_p=3, equal chain budgets)",
            spec.name
        ));
        let (inst, denom) = setup(cfg, &spec, 3);
        let ctx = ScoreContext::new(&inst, SCORING);
        let initial = sdga(&ctx);
        let mut rows = Vec::new();
        for &(trials, omega) in
            &[(1usize, 5usize), (1, 10), (1, 20), (2, 5), (2, 10), (4, 5), (4, 10), (8, 5)]
        {
            let (out, t) = crate::util::timeit(|| {
                refine(
                    &ctx,
                    &initial,
                    &sra::SraOptions { omega, trials, seed: cfg.seed, ..Default::default() },
                )
            });
            rows.push(vec![
                trials.to_string(),
                omega.to_string(),
                format!("{:.3}%", 100.0 * out.score / denom),
                format!("{:.2}", t.as_secs_f64()),
                out.rounds.to_string(),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["trials", "omega", "optimality ratio", "time (s)", "winning-chain rounds"],
                &rows
            )
        );
    }
}

/// Ablation (DESIGN.md §7): Eq. 10's coverage-based removal model vs the
/// uniform `1/R` model the paper dismisses in §4.4.
pub fn sra_model_ablation(cfg: &RunConfig) {
    banner("Ablation: SRA removal model (Eq. 10 coverage vs uniform)");
    let (inst, denom) = setup(cfg, &DB08, 3);
    let ctx = ScoreContext::new(&inst, SCORING);
    let initial = sdga(&ctx);
    let mut rows = Vec::new();
    for (label, model) in [
        ("Eq. 10 coverage", sra::RemovalModel::Coverage),
        ("uniform 1/R", sra::RemovalModel::Uniform),
    ] {
        let (out, t) = crate::util::timeit(|| {
            refine(&ctx, &initial, &sra::SraOptions { model, seed: cfg.seed, ..Default::default() })
        });
        rows.push(vec![
            label.to_string(),
            format!("{:.2}%", 100.0 * out.score / denom),
            format!("{:.2}", t.as_secs_f64()),
            out.rounds.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["removal model", "optimality ratio", "time (s)", "rounds"], &rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_trace_takes_running_max() {
        let trace = vec![
            (Duration::from_millis(0), 1.0),
            (Duration::from_millis(500), 2.0),
            (Duration::from_millis(1500), 3.0),
        ];
        let cells = sample_trace(&trace, 4.0, &[0.0, 1.0, 2.0]);
        assert_eq!(cells, vec!["25.00%", "50.00%", "75.00%"]);
    }

    #[test]
    fn fig16_smoke() {
        let cfg = RunConfig { scale: 60, seed: 1, ..Default::default() };
        fig16(&cfg);
    }

    #[test]
    fn trials_tradeoff_smoke() {
        let cfg = RunConfig { scale: 80, seed: 5, ..Default::default() };
        trials_tradeoff(&cfg);
    }

    #[test]
    fn more_trials_never_hurt_quality() {
        // The multi-chain reduction keeps the best outcome, and trial 0
        // reuses the single-chain seed — so trials=4 dominates trials=1 at
        // equal omega by construction.
        let cfg = RunConfig { scale: 80, seed: 9, ..Default::default() };
        let (inst, _) = setup(&cfg, &DB08, 3);
        let ctx = ScoreContext::new(&inst, SCORING);
        let initial = sdga(&ctx);
        let run = |trials: usize| {
            refine(
                &ctx,
                &initial,
                &sra::SraOptions { omega: 4, trials, seed: cfg.seed, ..Default::default() },
            )
            .score
        };
        assert!(run(4) >= run(1) - 1e-12);
    }
}
