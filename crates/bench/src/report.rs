//! Machine-readable benchmark results: `BENCH_<name>.json` at the
//! workspace root, so the perf trajectory is tracked across PRs instead of
//! living only in scrollback.
//!
//! Each record is `{name, params, samples, median_ns, p10_ns?, p90_ns?,
//! throughput_per_s?, counts?}`: the median is computed here over however
//! many timing samples the bench took (expensive kernels report a single
//! sample — the `samples` field says so), the p10/p90 spread once there
//! are at least [`SPREAD_MIN_SAMPLES`], and `counts` holds deterministic
//! work counters (e.g. search nodes) that a before/after pair must agree
//! on. The file header names the host's core count and the commit the
//! bench ran on (`git rev-parse HEAD`, `"unknown"` outside a git
//! checkout; `dirty` when tracked files differ from it). The file is
//! rewritten wholesale on every bench run; diffing two commits' files is
//! the intended workflow.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use wgrap_service::json::Json;

/// Records with at least this many samples also report p10 and p90.
pub const SPREAD_MIN_SAMPLES: usize = 10;

/// Accumulates records for one bench binary and writes them as
/// `BENCH_<name>.json` at the workspace root.
#[derive(Debug)]
pub struct BenchReport {
    bench: &'static str,
    records: Vec<Json>,
}

impl BenchReport {
    /// A report for the bench binary `bench` (the file name suffix).
    pub fn new(bench: &'static str) -> Self {
        Self { bench, records: Vec::new() }
    }

    /// Record one measurement. `params` are the workload knobs (sizes,
    /// batch widths, k); `samples` are raw wall-clock timings (must be
    /// non-empty — the median is taken here); `throughput` is an optional
    /// items-per-second figure for rate-style measurements.
    pub fn record(
        &mut self,
        name: &str,
        params: &[(&'static str, f64)],
        samples: &[Duration],
        throughput: Option<f64>,
    ) {
        self.record_with_counts(name, params, samples, throughput, &[]);
    }

    /// [`record`](BenchReport::record) plus deterministic work `counts`
    /// (search nodes, pruned branches) — outputs of the run, unlike
    /// `params`, and identical across builds that do the same work.
    pub fn record_with_counts(
        &mut self,
        name: &str,
        params: &[(&'static str, f64)],
        samples: &[Duration],
        throughput: Option<f64>,
        counts: &[(&'static str, f64)],
    ) {
        assert!(!samples.is_empty(), "record '{name}' needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort();
        let ns = |d: Duration| Json::Num(d.as_nanos() as f64);
        let mut members = vec![
            ("name", Json::Str(name.into())),
            ("params", Json::obj(params.iter().map(|&(k, v)| (k, Json::Num(v))))),
            ("samples", Json::Num(samples.len() as f64)),
            ("median_ns", ns(sorted[sorted.len() / 2])),
        ];
        if sorted.len() >= SPREAD_MIN_SAMPLES {
            members.push(("p10_ns", ns(nearest_rank(&sorted, 0.1))));
            members.push(("p90_ns", ns(nearest_rank(&sorted, 0.9))));
        }
        if let Some(t) = throughput {
            members.push(("throughput_per_s", Json::Num(t)));
        }
        if !counts.is_empty() {
            members.push(("counts", Json::obj(counts.iter().map(|&(k, v)| (k, Json::Num(v))))));
        }
        self.records.push(Json::obj(members));
    }

    /// Write `BENCH_<bench>.json` at the workspace root and return its
    /// path. Call once, after all records are in.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.bench));
        let root = path.parent().expect("workspace root");
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let commit = git(root, &["rev-parse", "HEAD"]);
        let dirty = git(root, &["status", "--porcelain", "--untracked-files=no"]);
        let mut header = vec![
            ("bench", Json::Str(self.bench.into())),
            ("cores", Json::Num(cores as f64)),
            ("commit", Json::Str(commit.clone().unwrap_or_else(|| "unknown".into()))),
        ];
        if commit.is_some() {
            header.push(("dirty", Json::Bool(dirty.is_some_and(|d| !d.is_empty()))));
        }
        header.push(("records", Json::Arr(self.records.clone())));
        std::fs::write(&path, format!("{}\n", Json::obj(header)))?;
        Ok(path.canonicalize().unwrap_or(path))
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` (non-empty).
fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Trimmed stdout of `git <args>` run in `dir`, or `None` if git is
/// missing or fails (e.g. outside a checkout).
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git").arg("-C").arg(dir).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_shape() {
        let mut report = BenchReport::new("test-shape");
        report.record(
            "k1",
            &[("n", 5.0)],
            &[Duration::from_nanos(30), Duration::from_nanos(10), Duration::from_nanos(20)],
            Some(1.5),
        );
        let doc = format!("{}", Json::obj([("records", Json::Arr(report.records.clone()))]));
        assert!(doc.contains("\"median_ns\":20"), "{doc}");
        assert!(doc.contains("\"throughput_per_s\":1.5"), "{doc}");
        assert!(doc.contains("\"params\":{\"n\":5}"), "{doc}");
        assert!(!doc.contains("p10_ns"), "3 samples carry no spread: {doc}");
    }

    #[test]
    fn spread_and_counts_from_ten_samples() {
        let mut report = BenchReport::new("test-spread");
        let samples: Vec<Duration> = (1..=10).rev().map(Duration::from_nanos).collect();
        report.record_with_counts("k", &[], &samples, None, &[("nodes", 42.0)]);
        let doc = format!("{}", Json::Arr(report.records.clone()));
        assert!(doc.contains("\"median_ns\":6"), "{doc}");
        assert!(doc.contains("\"p10_ns\":1,\"p90_ns\":9"), "{doc}");
        assert!(doc.contains("\"counts\":{\"nodes\":42}"), "{doc}");
    }
}
