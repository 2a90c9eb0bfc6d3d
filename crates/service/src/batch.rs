//! [`JraBatch`]: grouped JRA queries executed against one snapshot.
//!
//! The journal scenario is online — queries arrive one at a time — but a
//! busy service sees many in flight at once. A batch admits every query at
//! one epoch (a single `Arc<Snapshot>`), shares that snapshot's candidate
//! lists and topic → reviewers index across all of them, and fans the
//! solves out on the engine's deterministic parallel substrate
//! (`wgrap-par` work-stealing under the `rayon` feature). Results are
//! written positionally — `results[i]` answers `queries[i]` — so a batch
//! returns **bit-identical** answers to solving its queries one at a time
//! in order, under any worker count (the skew proptest in this crate's
//! tests pins that down).

use crate::store::Snapshot;
use crate::telemetry::Histogram;
use crate::{Error, Result};
use std::sync::Arc;
use std::time::Instant;
use wgrap_core::engine::{par, PruningPolicy};
use wgrap_core::jra::bba::{self, BbaOptions};
use wgrap_core::jra::JraResult;
use wgrap_core::topic::TopicVector;

/// The paper a JRA query asks about.
#[derive(Debug, Clone)]
pub enum QueryPaper {
    /// A paper stored in the instance (its COI mask applies).
    Stored(usize),
    /// An ad-hoc paper that is not part of the instance — the classic
    /// journal query: a fresh submission against the standing pool.
    Adhoc(TopicVector),
}

/// One JRA query: the best group(s) of reviewers for one paper.
#[derive(Debug, Clone)]
pub struct JraQuery {
    /// The paper to find reviewers for.
    pub paper: QueryPaper,
    /// Group size override (default: the instance's `δp`).
    pub delta_p: Option<usize>,
    /// Number of best groups to return (default 1).
    pub top_k: usize,
    /// Per-query conflicted reviewer ids (on top of stored COIs).
    pub exclude: Vec<u32>,
    /// Per-query candidate pruning override (default: the batch's policy).
    pub pruning: Option<PruningPolicy>,
}

impl JraQuery {
    /// Query with defaults: instance `δp`, single best group, no excludes,
    /// the batch's pruning policy.
    pub fn new(paper: QueryPaper) -> Self {
        Self { paper, delta_p: None, top_k: 1, exclude: Vec::new(), pruning: None }
    }
}

/// A batch of JRA queries admitted at one epoch. See the module docs.
#[derive(Debug, Clone)]
pub struct JraBatch {
    snapshot: Arc<Snapshot>,
    pruning: PruningPolicy,
    queries: Vec<JraQuery>,
    /// Optional per-query solve-latency histogram (the service's
    /// `query_solve_seconds` series). Recorded from the solving worker
    /// thread — the histogram shards per thread, so the fan-out never
    /// contends — and never affects results (pure observation).
    solve_hist: Option<Arc<Histogram>>,
}

impl JraBatch {
    /// An empty batch against `snapshot` under a candidate pruning policy
    /// (`Auto` restricts each search to the certified candidate pool —
    /// score-exact; `TopK(k)` additionally truncates — lossy but bounded).
    pub fn new(snapshot: Arc<Snapshot>, pruning: PruningPolicy) -> Self {
        Self { snapshot, pruning, queries: Vec::new(), solve_hist: None }
    }

    /// Record each query's solve wall time into `hist` during [`run`]
    /// (nanosecond observations; see the module docs for determinism —
    /// observation never changes an answer).
    ///
    /// [`run`]: JraBatch::run
    pub fn set_solve_hist(&mut self, hist: Arc<Histogram>) {
        self.solve_hist = Some(hist);
    }

    /// Enqueue a query; answers come back positionally from [`run`].
    ///
    /// [`run`]: JraBatch::run
    pub fn push(&mut self, query: JraQuery) -> &mut Self {
        self.queries.push(query);
        self
    }

    /// The epoch every query in this batch is admitted at.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Number of enqueued queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Execute every query against the admitted snapshot. `results[i]`
    /// answers `queries[i]`; each entry fails independently (a malformed
    /// query never poisons its neighbours).
    pub fn run(&self) -> Vec<Result<Vec<JraResult>>> {
        par::map_indexed(self.queries.len(), |i| {
            let start = Instant::now();
            let result = self.solve_one(&self.queries[i]);
            if let Some(hist) = &self.solve_hist {
                hist.observe_duration(start.elapsed());
            }
            result
        })
    }

    fn solve_one(&self, query: &JraQuery) -> Result<Vec<JraResult>> {
        let pruning = query.pruning.unwrap_or(self.pruning);
        let ctx = self.snapshot.ctx();
        let num_r = ctx.num_reviewers();
        let delta_p = query.delta_p.unwrap_or_else(|| ctx.instance().delta_p());
        if delta_p == 0 || delta_p > num_r {
            return Err(Error::InvalidInstance(format!(
                "need 1 <= delta_p <= R, got delta_p={delta_p} R={num_r}"
            )));
        }
        if query.top_k == 0 {
            return Err(Error::InvalidInstance("top_k must be >= 1".into()));
        }
        for &r in &query.exclude {
            if r as usize >= num_r {
                return Err(Error::InvalidInstance(format!(
                    "excluded reviewer {r} out of range (R = {num_r})"
                )));
            }
        }
        let opts = BbaOptions { top_k: query.top_k, ..Default::default() };
        let results = match &query.paper {
            QueryPaper::Stored(p) => {
                let p = *p;
                if p >= ctx.num_papers() {
                    return Err(Error::InvalidInstance(format!(
                        "paper {p} out of range (P = {})",
                        ctx.num_papers()
                    )));
                }
                let mut view = ctx.jra_view(p);
                view.delta_p = delta_p;
                for &r in &query.exclude {
                    view.forbidden[r as usize] = true;
                }
                let row = || {
                    let (ids, scores) = self.snapshot.candidates().candidates(p);
                    Some(ids.iter().copied().zip(scores.iter().copied()).collect())
                };
                bba::solve_view_pruned(&view, pruning, row, &opts)
            }
            QueryPaper::Adhoc(paper) => {
                if paper.dim() != ctx.num_topics() {
                    return Err(Error::InvalidInstance(format!(
                        "query paper dimension {} != instance dimension {}",
                        paper.dim(),
                        ctx.num_topics()
                    )));
                }
                let mut forbidden = vec![false; num_r];
                for &r in &query.exclude {
                    forbidden[r as usize] = true;
                }
                let view = ctx.jra_view_adhoc(paper, forbidden, delta_p);
                // The scored pool from the shared index ranks — and
                // tie-breaks — exactly like the same vector stored as a
                // paper (scores are the `raw / total` pair-score form), so
                // `TopK` truncates without a second scoring pass.
                let row = || self.snapshot.candidate_pool_adhoc(paper);
                bba::solve_view_pruned(&view, pruning, row, &opts)
            }
        };
        results.ok_or_else(|| Error::Infeasible("fewer than δp non-conflicted reviewers".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VersionedStore;
    use wgrap_core::prelude::{Instance, Scoring};

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    fn store() -> VersionedStore {
        let inst = Instance::new(
            vec![tv(&[0.5, 0.5, 0.0]), tv(&[0.0, 0.3, 0.7])],
            vec![
                tv(&[0.3, 0.7, 0.0]),
                tv(&[0.6, 0.4, 0.0]),
                tv(&[0.0, 0.2, 0.8]),
                tv(&[0.1, 0.1, 0.8]),
            ],
            2,
            2,
        )
        .unwrap();
        VersionedStore::new(inst, Scoring::WeightedCoverage, 0)
    }

    #[test]
    fn batch_matches_sequential_one_at_a_time() {
        let store = store();
        let snap = store.snapshot();
        for pruning in [PruningPolicy::Exact, PruningPolicy::Auto, PruningPolicy::TopK(2)] {
            let mut batch = JraBatch::new(Arc::clone(&snap), pruning);
            let queries = vec![
                JraQuery::new(QueryPaper::Stored(0)),
                JraQuery::new(QueryPaper::Stored(1)),
                JraQuery { top_k: 3, ..JraQuery::new(QueryPaper::Adhoc(tv(&[0.2, 0.2, 0.6]))) },
                JraQuery { exclude: vec![2], ..JraQuery::new(QueryPaper::Stored(1)) },
                JraQuery { delta_p: Some(1), ..JraQuery::new(QueryPaper::Stored(0)) },
            ];
            for q in &queries {
                batch.push(q.clone());
            }
            let batched = batch.run();
            assert_eq!(batched.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let mut single = JraBatch::new(Arc::clone(&snap), pruning);
                single.push(q.clone());
                let alone = single.run().pop().unwrap();
                match (&batched[i], &alone) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.len(), b.len());
                        for (x, y) in a.iter().zip(b) {
                            assert_eq!(x.group, y.group, "{pruning:?} query {i}");
                            assert_eq!(x.score.to_bits(), y.score.to_bits());
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{pruning:?} query {i}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn auto_pruning_preserves_exact_scores() {
        let store = store();
        let snap = store.snapshot();
        let queries = vec![
            JraQuery::new(QueryPaper::Stored(0)),
            JraQuery::new(QueryPaper::Stored(1)),
            JraQuery::new(QueryPaper::Adhoc(tv(&[0.9, 0.1, 0.0]))),
        ];
        let run = |pruning| {
            let mut b = JraBatch::new(Arc::clone(&snap), pruning);
            for q in &queries {
                b.push(q.clone());
            }
            b.run()
        };
        let exact = run(PruningPolicy::Exact);
        let auto = run(PruningPolicy::Auto);
        for (e, a) in exact.iter().zip(&auto) {
            let (e, a) = (e.as_ref().unwrap(), a.as_ref().unwrap());
            assert_eq!(e[0].score.to_bits(), a[0].score.to_bits());
        }
    }

    #[test]
    fn query_validation_fails_per_entry() {
        let store = store();
        let mut batch = JraBatch::new(store.snapshot(), PruningPolicy::Auto);
        batch
            .push(JraQuery::new(QueryPaper::Stored(99)))
            .push(JraQuery { delta_p: Some(0), ..JraQuery::new(QueryPaper::Stored(0)) })
            .push(JraQuery { top_k: 0, ..JraQuery::new(QueryPaper::Stored(0)) })
            .push(JraQuery::new(QueryPaper::Adhoc(tv(&[1.0]))))
            .push(JraQuery { exclude: vec![9], ..JraQuery::new(QueryPaper::Stored(0)) })
            .push(JraQuery::new(QueryPaper::Stored(0)));
        let results = batch.run();
        assert_eq!(results.len(), 6);
        for r in &results[..5] {
            assert!(r.is_err());
        }
        assert!(results[5].is_ok());
    }

    #[test]
    fn excluding_everyone_is_infeasible() {
        let store = store();
        let mut batch = JraBatch::new(store.snapshot(), PruningPolicy::Auto);
        batch.push(JraQuery { exclude: vec![0, 1, 2, 3], ..JraQuery::new(QueryPaper::Stored(0)) });
        assert!(matches!(batch.run().pop().unwrap(), Err(Error::Infeasible(_))));
        assert!(!batch.is_empty());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.epoch(), 0);
    }
}
