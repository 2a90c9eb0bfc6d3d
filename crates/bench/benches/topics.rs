//! The topic-model substrate: ATM Gibbs sweeps and EM folding-in (the §2.4
//! extraction pipeline) on a small synthetic corpus. Records land in
//! `BENCH_topics.json`.

use wgrap_bench::report::BenchReport;
use wgrap_datagen::areas::{Area, DatasetSpec};
use wgrap_datagen::corpus::{generate, CorpusConfig};
use wgrap_topics::atm::{fit, AtmOptions};
use wgrap_topics::em::infer_document;

const TOPICS: usize = 10;
const REPS: usize = 10;

fn small_corpus() -> (wgrap_topics::Corpus, Vec<Vec<u32>>) {
    let spec = DatasetSpec {
        name: "BENCH",
        area: Area::DataMining,
        year: 2008,
        num_papers: 20,
        num_reviewers: 15,
    };
    let cfg = CorpusConfig {
        vocab_size: 400,
        num_topics: TOPICS,
        docs_per_author: (3, 6),
        words_per_doc: (40, 80),
        ..Default::default()
    };
    let sc = generate(&spec, &cfg, 7);
    (sc.publications, sc.submissions)
}

fn main() {
    let mut report = BenchReport::new("topics");
    let (corpus, submissions) = small_corpus();

    let opts = AtmOptions { num_topics: TOPICS, iterations: 20, ..Default::default() };
    report.timed(
        "atm_gibbs/fit_t10_20sweeps",
        &[("topics", TOPICS as f64), ("sweeps", 20.0)],
        REPS,
        || fit(&corpus, &opts),
        |_| vec![],
    );

    let model =
        fit(&corpus, &AtmOptions { num_topics: TOPICS, iterations: 30, ..Default::default() });
    report.timed(
        "em_folding_in_20_papers",
        &[("topics", TOPICS as f64), ("papers", submissions.len() as f64)],
        REPS,
        || {
            submissions
                .iter()
                .map(|words| infer_document(&model.phi, words, 50, 1e-8))
                .collect::<Vec<_>>()
        },
        |_| vec![],
    );

    let path = report.write().expect("write BENCH_topics.json");
    println!("wrote {}", path.display());
}
