//! The service-layer contracts:
//!
//! 1. **`apply(updates) ≡ rebuild(final_instance)`** — after any update
//!    sequence, the incrementally-patched snapshot is bit-identical to a
//!    from-scratch [`Snapshot::build`] of the final instance (flat arrays,
//!    CSR, candidate rows, inverted indexes), for all four scorings, whether
//!    the updates land as one atomic batch or as one epoch each.
//! 2. **Batched JRA determinism** — a `batch` request through [`Service`]
//!    returns bit-identical answers to solving its queries one at a time,
//!    under skewed per-query cost, with the parallel feature on or off
//!    (positional writes).
//! 3. **Request canonicalization** (`api_contracts`) — semantically equal
//!    [`SolveRequest`]s (reordered/duplicated excludes, defaulted vs
//!    explicit knobs, paper by name vs by id) plan to identical
//!    `RequestKey`s, and a per-epoch cache hit is **bit-identical** to a
//!    cold solve, for all four scorings.
//! 4. **Telemetry histograms** (`telemetry_hist`) — merging per-thread
//!    histogram shards is equivalent to pooling the raw observations, and
//!    every reported quantile respects the log-bucket relative error
//!    bound (including empty and single-observation histograms).

use proptest::prelude::*;
use wgrap_core::engine::PruningPolicy;
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;
use wgrap_service::testutil::{assert_snapshot_bit_eq, reference_apply};
use wgrap_service::{
    Answer, JraSpec, PaperRef, ServeOptions, Service, SolveRequest, Update, VersionedStore,
};

fn sparse_topic_vector(dim: usize) -> impl Strategy<Value = TopicVector> {
    (proptest::collection::vec(0.0..1.0f64, dim), proptest::collection::vec(any::<bool>(), dim))
        .prop_map(|(mut v, mask)| {
            for (w, drop) in v.iter_mut().zip(mask) {
                if drop {
                    *w = 0.0;
                }
            }
            if v.iter().sum::<f64>() <= 0.0 {
                v[0] = 1.0;
            }
            TopicVector::new(v).normalized()
        })
}

/// Expertise weights for tied rows: a few values so that equal expertise
/// — and with it the topic index's `(expertise desc, id asc)` tie order —
/// is common, and zeros as both `+0.0` and `-0.0`.
const TIED: [f64; 5] = [0.0, -0.0, 0.125, 0.25, 0.5];

/// An update before id resolution: ids become concrete only while replaying
/// (the pool grows and shrinks as the sequence applies). `Reweigh` is a
/// `PatchScores` that keeps the reviewer's support and redraws each positive
/// value from `TIED`, so it moves or ties without changing support.
#[derive(Debug, Clone)]
enum RawUpdate {
    AddPaper { topics: TopicVector, coi_seed: u32 },
    AddReviewer { expertise: TopicVector },
    RetireReviewer { seed: u32 },
    PatchScores { seed: u32, expertise: TopicVector },
    Reweigh { seed: u32, draws: Vec<usize> },
}

fn raw_update(dim: usize) -> impl Strategy<Value = RawUpdate> {
    (
        0u32..5,
        any::<bool>(),
        sparse_topic_vector(dim),
        proptest::collection::vec(0usize..TIED.len(), dim),
        any::<u32>(),
    )
        .prop_map(|(kind, tie, v, draws, seed)| {
            // Added and patched rows are arbitrary normalised weights or,
            // half the time, drawn from `TIED`.
            let expertise = if tie {
                TopicVector::new(draws.iter().map(|&i| TIED[i]).collect())
            } else {
                v.clone()
            };
            match kind {
                0 => RawUpdate::AddPaper { topics: v, coi_seed: seed },
                1 => RawUpdate::AddReviewer { expertise },
                2 => RawUpdate::RetireReviewer { seed },
                3 => RawUpdate::PatchScores { seed, expertise },
                _ => RawUpdate::Reweigh { seed, draws },
            }
        })
}

/// Resolve raw updates into concrete ones against the evolving pool, so
/// both the incremental and the reference path replay the *same* sequence.
fn resolve(inst: &Instance, raws: &[RawUpdate]) -> Vec<Update> {
    let (mut num_p, mut num_r) = (inst.num_papers(), inst.num_reviewers());
    let mut rows: Vec<TopicVector> = inst.reviewers().to_vec();
    let capacity_left = |num_p: usize, num_r: usize, inst: &Instance| {
        num_r * inst.delta_r() >= (num_p + 1) * inst.delta_p()
    };
    let mut out = Vec::new();
    for raw in raws {
        match raw {
            RawUpdate::AddPaper { topics, coi_seed } => {
                if !capacity_left(num_p, num_r, inst) {
                    continue; // would be rejected; keep the sequence applying
                }
                let coi = if coi_seed % 3 == 0 && num_r > 0 {
                    vec![(coi_seed / 3) % num_r as u32]
                } else {
                    Vec::new()
                };
                out.push(Update::AddPaper { name: None, topics: topics.clone(), coi });
                num_p += 1;
            }
            RawUpdate::AddReviewer { expertise } => {
                rows.push(expertise.clone());
                out.push(Update::AddReviewer { name: None, expertise: expertise.clone() });
                num_r += 1;
            }
            RawUpdate::RetireReviewer { seed } => {
                let reviewer = seed % num_r as u32;
                rows[reviewer as usize] = TopicVector::zeros(inst.num_topics());
                out.push(Update::RetireReviewer { reviewer });
            }
            RawUpdate::PatchScores { seed, expertise } => {
                let reviewer = seed % num_r as u32;
                rows[reviewer as usize] = expertise.clone();
                out.push(Update::PatchScores { reviewer, expertise: expertise.clone() });
            }
            RawUpdate::Reweigh { seed, draws } => {
                let reviewer = seed % num_r as u32;
                let row = &mut rows[reviewer as usize];
                let values = row
                    .as_slice()
                    .iter()
                    .zip(draws)
                    .map(|(&e, &i)| if e > 0.0 { TIED[2 + i % 3] } else { e })
                    .collect();
                *row = TopicVector::new(values);
                out.push(Update::PatchScores { reviewer, expertise: row.clone() });
            }
        }
    }
    out
}

fn instance_strategy(dim: usize) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(sparse_topic_vector(dim), 2..5),
        proptest::collection::vec(sparse_topic_vector(dim), 4..8),
        1usize..3,
    )
        .prop_map(move |(papers, reviewers, delta_p)| {
            let delta_p = delta_p.min(reviewers.len());
            // Generous workload headroom so AddPaper updates mostly apply.
            let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p) + 2;
            Instance::new(papers, reviewers, delta_p, delta_r).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance contract: any update sequence, applied incrementally
    /// (one atomic batch AND one epoch per update), yields a snapshot
    /// bit-identical to a from-scratch rebuild of the final instance —
    /// across all four scorings.
    #[test]
    fn apply_equals_rebuild(
        inst in instance_strategy(5),
        raws in proptest::collection::vec(raw_update(5), 1..8),
        seed in 0u64..1_000,
    ) {
        let updates = resolve(&inst, &raws);
        for scoring in Scoring::ALL {
            let want = reference_apply(&inst, scoring, seed, &updates).expect("reference applies");

            // One atomic batch.
            let store = VersionedStore::new(inst.clone(), scoring, seed);
            store.apply(&updates).expect("resolved updates apply");
            assert_snapshot_bit_eq(&store.snapshot(), &want);
            prop_assert_eq!(store.epoch(), 1);

            // One epoch per update: same final state, epoch per step.
            let step_store = VersionedStore::new(inst.clone(), scoring, seed);
            for u in &updates {
                step_store.apply(std::slice::from_ref(u)).expect("applies");
            }
            assert_snapshot_bit_eq(&step_store.snapshot(), &want);
            prop_assert_eq!(step_store.epoch(), updates.len() as u64);
        }
    }

    /// Paged storage certification + time travel. Two halves:
    ///
    /// * **Paged ≡ flat** — unsharing every matrix page and candidate row
    ///   slab of an incrementally-updated snapshot reconstructs the
    ///   pre-paging flat layout; its contents must be bit-identical to the
    ///   paged snapshot (per row, per candidate list) with sharing fully
    ///   severed, for all four scorings. CI runs this with the `rayon`
    ///   feature on and off.
    /// * **Time travel** — every retained historical epoch stays readable
    ///   after later publishes: bit-identical to a reference replay of its
    ///   update prefix, and a JRA query planned at the oldest epoch and
    ///   executed after every publish answers at that epoch, crash-free,
    ///   even though newer epochs have since CoW'd pages away from it.
    #[test]
    fn paged_equals_flat_and_retained_epochs_stay_readable(
        inst in instance_strategy(5),
        raws in proptest::collection::vec(raw_update(5), 1..8),
        seed in 0u64..1_000,
    ) {
        let updates = resolve(&inst, &raws);
        for scoring in Scoring::ALL {
            let service = Service::from_store(
                VersionedStore::new(inst.clone(), scoring, seed),
                ServeOptions::default(),
            );
            let store = service.store();
            // Auto reads epoch 0's candidate rows and runs the pooled
            // search on pages newer epochs copy away.
            let straggler = service.plan(&SolveRequest::Jra(JraSpec {
                pruning: Some(PruningPolicy::Auto),
                ..JraSpec::new(PaperRef::Id(0))
            }));
            let mut retained = vec![store.snapshot()];
            for u in &updates {
                store.apply(std::slice::from_ref(u)).expect("applies");
                retained.push(store.snapshot());
            }

            let snap = store.snapshot();
            let ctx = snap.ctx();
            let mut flat = ctx.clone_for_update();
            flat.unshare_pages();
            let mut cands = flat.auto_candidates().clone();
            cands.unshare();
            flat.install_auto_candidates(cands);
            prop_assert_eq!(flat.shared_pages_with(ctx), 0, "{:?}: pages still shared", scoring);
            prop_assert_eq!(
                flat.auto_candidates().shared_rows_with(snap.candidates()),
                0,
                "{:?}: candidate rows still shared",
                scoring
            );
            for r in 0..ctx.num_reviewers() {
                let (a, b) = (ctx.reviewer_row(r), flat.reviewer_row(r));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}: reviewer {}", scoring, r);
                }
            }
            for p in 0..ctx.num_papers() {
                let (a, b) = (ctx.paper_row(p), flat.paper_row(p));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}: paper {}", scoring, p);
                }
                let (ri, rs) = snap.candidates().candidates(p);
                let (fi, fs) = flat.auto_candidates().candidates(p);
                prop_assert_eq!(ri, fi, "{:?}: candidate ids for paper {}", scoring, p);
                prop_assert_eq!(rs.len(), fs.len());
                for (x, y) in rs.iter().zip(fs) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}: cand score p{}", scoring, p);
                }
            }

            for (k, old) in retained.iter().enumerate() {
                let want =
                    reference_apply(&inst, scoring, seed, &updates[..k]).expect("prefix applies");
                assert_snapshot_bit_eq(old, &want);
                prop_assert_eq!(old.epoch(), k as u64);
            }
            let outcome = service.execute_plan(straggler).expect("a jra request executes");
            prop_assert_eq!(outcome.diag.epoch, 0);
            let Answer::Jra(answers) = &outcome.answer else { unreachable!("a jra request") };
            prop_assert!(answers[0].is_ok(), "{:?}: time-travel solve failed: {:?}", scoring, answers);
        }
    }

    /// Ad-hoc candidate pools computed against an updated snapshot match
    /// pools computed against the rebuilt one (the index the batch executor
    /// probes is part of the bit-identity contract).
    #[test]
    fn adhoc_pools_match_after_updates(
        inst in instance_strategy(4),
        raws in proptest::collection::vec(raw_update(4), 1..6),
        query in sparse_topic_vector(4),
    ) {
        let updates = resolve(&inst, &raws);
        let rebuilt =
            reference_apply(&inst, Scoring::WeightedCoverage, 0, &updates).expect("applies");
        let store = VersionedStore::new(inst, Scoring::WeightedCoverage, 0);
        store.apply(&updates).expect("applies");
        prop_assert_eq!(
            store.snapshot().candidate_pool_adhoc(&query),
            rebuilt.candidate_pool_adhoc(&query)
        );
    }
}

/// Batched JRA under deliberately skewed per-query cost: some queries are
/// `δp = 3` searches over the full pool (expensive), some are `δp = 1`
/// lookups (cheap). Under the `rayon` feature the batch's misses
/// self-schedule on the work-stealing pool; output must be the
/// one-at-a-time sequence, query for query, bit for bit, under any worker
/// count. Caching is off, so every query solves cold on both sides.
#[test]
fn skewed_batch_matches_one_at_a_time() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(9);
    let dim = 10;
    let mut gen = |n: usize| -> Vec<TopicVector> {
        (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..dim)
                    .map(|_| if rng.random::<f64>() < 0.5 { 0.0 } else { rng.random() })
                    .collect();
                if raw.iter().sum::<f64>() <= 0.0 {
                    TopicVector::uniform(dim)
                } else {
                    TopicVector::new(raw).normalized()
                }
            })
            .collect()
    };
    let papers = gen(6);
    let reviewers = gen(36);
    let inst = Instance::new(papers, reviewers, 2, 1).unwrap();
    let options = ServeOptions { cache_cap: 0, ..ServeOptions::default() };
    let service = Service::with_options(inst, Scoring::WeightedCoverage, 0, options);

    let query_papers = gen(30);
    for pruning in [PruningPolicy::Exact, PruningPolicy::Auto] {
        let specs: Vec<JraSpec> = query_papers
            .iter()
            .enumerate()
            .map(|(i, qp)| JraSpec {
                // Skew: every 5th query is a heavy δp=3 search, the rest
                // are cheap δp=1 lookups; sprinkle stored papers in too.
                delta_p: Some(if i % 5 == 0 { 3 } else { 1 }),
                top_k: 1 + i % 3,
                pruning: Some(pruning),
                ..JraSpec::new(if i % 7 == 0 {
                    PaperRef::Id(i % 6)
                } else {
                    PaperRef::Adhoc(qp.clone())
                })
            })
            .collect();
        let answers = |request: SolveRequest| {
            let Answer::Jra(answers) = service.execute(&request).expect("executes").answer else {
                unreachable!("a jra request")
            };
            answers
        };
        let batched = answers(SolveRequest::JraBatch(specs.clone()));
        assert_eq!(batched.len(), specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            let alone = answers(SolveRequest::Jra(spec)).pop().unwrap();
            match (&batched[i], &alone) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.results.len(), b.results.len(), "{pruning:?} query {i}");
                    for (x, y) in a.results.iter().zip(&b.results) {
                        assert_eq!(x.group, y.group, "{pruning:?} query {i}");
                        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{pruning:?} query {i}");
                        assert_eq!(x.nodes, y.nodes, "{pruning:?} query {i}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("{pruning:?} query {i}: {a:?} vs {b:?}"),
            }
        }
    }
}

/// Typed-request contracts: canonical keys and the result-cache
/// bit-identity guarantee.
mod api_contracts {
    use super::{instance_strategy, sparse_topic_vector};
    use proptest::prelude::*;
    use wgrap_core::engine::PruningPolicy;
    use wgrap_core::jra::JraResult;
    use wgrap_core::prelude::Scoring;
    use wgrap_service::api::{Answer, JraSpec, PaperRef, Service, SolveRequest};

    fn assert_results_bit_eq(a: &[JraResult], b: &[JraResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.group, y.group);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.nodes, y.nodes);
        }
    }

    fn jra_results(outcome: &wgrap_service::api::Outcome) -> Vec<&JraResult> {
        let Answer::Jra(answers) = &outcome.answer else { panic!("jra answer expected") };
        answers.iter().flat_map(|a| a.as_ref().expect("query solves").results.iter()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Semantically equal requests — however spelled — get identical
        /// keys; genuinely different knobs get different keys.
        #[test]
        fn equal_requests_plan_to_equal_keys(
            inst in instance_strategy(5),
            paper_sel in any::<u32>(),
            raw_excludes in proptest::collection::vec(any::<u32>(), 0..5),
            delta_p_explicit in any::<bool>(),
            top_k in 1usize..4,
        ) {
            let service = Service::new(inst.clone(), Scoring::WeightedCoverage, 3);
            let p = paper_sel as usize % inst.num_papers();
            let excludes: Vec<u32> =
                raw_excludes.iter().map(|&r| r % inst.num_reviewers() as u32).collect();

            // Spelling A: defaults left implicit, excludes as generated.
            let a = SolveRequest::Jra(JraSpec {
                paper: PaperRef::Id(p),
                delta_p: None,
                top_k,
                exclude: excludes.clone(),
                pruning: None,
            });
            // Spelling B: paper by display name, every default explicit,
            // excludes reversed and with a duplicated head.
            let mut spelled_excludes: Vec<u32> = excludes.iter().rev().copied().collect();
            if let Some(&first) = excludes.first() {
                spelled_excludes.push(first);
            }
            let b = SolveRequest::Jra(JraSpec {
                paper: PaperRef::Name(inst.paper_name(p)),
                delta_p: delta_p_explicit.then(|| inst.delta_p()),
                top_k,
                exclude: spelled_excludes,
                pruning: Some(PruningPolicy::Exact), // the service default
            });
            let (ka, kb) = (service.plan(&a).key().cloned(), service.plan(&b).key().cloned());
            prop_assert!(ka.is_some());
            prop_assert_eq!(&ka, &kb);

            // Different effective knobs must not collide.
            let c = SolveRequest::Jra(JraSpec {
                paper: PaperRef::Id(p),
                delta_p: None,
                top_k: top_k + 1,
                exclude: excludes.clone(),
                pruning: None,
            });
            prop_assert_ne!(service.plan(&c).key().cloned(), ka.clone());
            let d = SolveRequest::Jra(JraSpec {
                paper: PaperRef::Id(p),
                delta_p: None,
                top_k,
                exclude: excludes,
                pruning: Some(PruningPolicy::Auto),
            });
            prop_assert_ne!(service.plan(&d).key().cloned(), ka.clone());
        }

        /// The acceptance contract: a cache hit is bit-identical to a cold
        /// solve — same groups, same score bits, same node counts — across
        /// all four scorings, for stored and ad-hoc papers, single and
        /// batched, and for CRA runs.
        #[test]
        fn cache_hits_are_bit_identical_to_cold_solves(
            inst in instance_strategy(4),
            adhoc in sparse_topic_vector(4),
            seed in 0u64..500,
        ) {
            let requests = vec![
                SolveRequest::jra(PaperRef::Id(0)),
                SolveRequest::Jra(JraSpec {
                    pruning: Some(PruningPolicy::Auto),
                    ..JraSpec::new(PaperRef::Adhoc(adhoc.clone()))
                }),
                SolveRequest::JraBatch(vec![
                    JraSpec::new(PaperRef::Id(1)),
                    JraSpec::new(PaperRef::Adhoc(adhoc.clone())),
                ]),
                SolveRequest::cra(),
            ];
            for scoring in Scoring::ALL {
                // `warm` answers every request twice (second time from
                // cache); `fresh` is a brand-new service whose answers are
                // all cold — the reference the hits must match bitwise.
                let warm = Service::new(inst.clone(), scoring, seed);
                let fresh = Service::new(inst.clone(), scoring, seed);
                for request in &requests {
                    let cold = warm.execute(request).expect("cold solve");
                    let hit = warm.execute(request).expect("warm solve");
                    let reference = fresh.execute(request).expect("fresh solve");
                    prop_assert!(hit.diag.cache.is_hit(), "{scoring:?}: second solve must hit");
                    match (&hit.answer, &reference.answer, &cold.answer) {
                        (Answer::Jra(_), Answer::Jra(_), Answer::Jra(_)) => {
                            let (h, r, c) =
                                (jra_results(&hit), jra_results(&reference), jra_results(&cold));
                            for ((h, r), c) in h.iter().zip(&r).zip(&c) {
                                assert_results_bit_eq(
                                    std::slice::from_ref(h),
                                    std::slice::from_ref(r),
                                );
                                assert_results_bit_eq(
                                    std::slice::from_ref(h),
                                    std::slice::from_ref(c),
                                );
                            }
                        }
                        (Answer::Cra(h), Answer::Cra(r), Answer::Cra(c)) => {
                            prop_assert_eq!(&h.assignment, &r.assignment);
                            prop_assert_eq!(&h.assignment, &c.assignment);
                            prop_assert_eq!(h.coverage.to_bits(), r.coverage.to_bits());
                            prop_assert_eq!(h.coverage.to_bits(), c.coverage.to_bits());
                        }
                        _ => prop_assert!(false, "answer kinds diverged"),
                    }
                }
            }
        }
    }
}

/// The LRU bound is invisible in answers: any capacity — including 0 (no
/// caching at all) and 1 (every distinct key thrashes the single slot) —
/// returns answers bit-identical to a cache-less service, across all four
/// scorings; and eviction under concurrent probing never corrupts a hit.
mod lru_cache {
    use super::{instance_strategy, sparse_topic_vector};
    use proptest::prelude::*;
    use std::sync::Arc;
    use wgrap_core::jra::JraResult;
    use wgrap_core::prelude::Scoring;
    use wgrap_core::topic::TopicVector;
    use wgrap_service::api::{
        Answer, CacheStatus, JraSpec, PaperRef, ServeOptions, Service, SolveRequest,
    };

    fn capped(inst: &wgrap_core::prelude::Instance, scoring: Scoring, cap: usize) -> Service {
        Service::with_options(
            inst.clone(),
            scoring,
            9,
            ServeOptions { cache_cap: cap, ..ServeOptions::default() },
        )
    }

    fn results_of(outcome: &wgrap_service::api::Outcome) -> Vec<&JraResult> {
        let Answer::Jra(answers) = &outcome.answer else { panic!("jra answer expected") };
        answers.iter().flat_map(|a| a.as_ref().expect("query solves").results.iter()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Replay a request sequence with repeats against LRU-capped
        /// services and a cap-0 (always-cold) reference: answers must be
        /// bitwise equal at every capacity, the cache must respect its
        /// bound, and capacity-1 thrashing must actually evict.
        #[test]
        fn any_capacity_matches_cold_solves_bitwise(
            inst in instance_strategy(4),
            adhoc in sparse_topic_vector(4),
            picks in proptest::collection::vec((0usize..6, 1usize..3), 4..24),
        ) {
            // A pool of 6 spec shapes; `picks` indexes it with repeats, so
            // sequences re-request hot keys and thrash cold ones.
            let pool = |sel: usize, k: usize| -> JraSpec {
                let num_papers = inst.num_papers();
                match sel {
                    0..=2 => JraSpec { top_k: k, ..JraSpec::new(PaperRef::Id(sel % num_papers)) },
                    3 => JraSpec { top_k: k, ..JraSpec::new(PaperRef::Adhoc(adhoc.clone())) },
                    4 => JraSpec {
                        exclude: vec![0],
                        ..JraSpec::new(PaperRef::Id(num_papers - 1))
                    },
                    _ => JraSpec::new(PaperRef::Name(inst.paper_name(0))),
                }
            };
            for scoring in Scoring::ALL {
                let reference = capped(&inst, scoring, 0);
                for cap in [0usize, 1, 2, 64] {
                    let service = capped(&inst, scoring, cap);
                    let mut hits = 0u64;
                    for &(sel, k) in &picks {
                        let request = SolveRequest::Jra(pool(sel, k));
                        let got = service.execute(&request).expect("capped solve");
                        let want = reference.execute(&request).expect("cold solve");
                        if got.diag.cache.is_hit() {
                            hits += 1;
                        }
                        let (g, w) = (results_of(&got), results_of(&want));
                        prop_assert_eq!(g.len(), w.len());
                        for (x, y) in g.iter().zip(&w) {
                            prop_assert_eq!(&x.group, &y.group);
                            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                            prop_assert_eq!(x.nodes, y.nodes);
                        }
                        let c = service.cache_counters();
                        prop_assert!(c.size <= cap, "size {} exceeds cap {cap}", c.size);
                        prop_assert_eq!(c.capacity, cap);
                    }
                    let c = service.cache_counters();
                    if cap == 0 {
                        prop_assert_eq!(c.hits, 0, "cap 0 must never hit");
                        prop_assert_eq!(hits, 0);
                        prop_assert_eq!(c.evictions, 0, "nothing stored, nothing evicted");
                    }
                    // Count canonical keys exactly (spellings collide:
                    // a by-name spec plans to the same key as its by-id
                    // twin), via the same planner the cache uses.
                    let distinct_keys: std::collections::BTreeSet<String> = picks
                        .iter()
                        .filter_map(|&(sel, k)| {
                            reference.plan(&SolveRequest::Jra(pool(sel, k))).key().cloned()
                        })
                        .map(|key| key.to_string())
                        .collect();
                    if cap == 1 && distinct_keys.len() > 1 {
                        prop_assert!(
                            c.evictions > 0,
                            "cap 1 with {} distinct keys must evict",
                            distinct_keys.len()
                        );
                    }
                    // Conservation: every probe is a hit or a miss.
                    prop_assert_eq!(c.hits + c.misses, picks.len() as u64);
                }
            }
        }
    }

    /// Recency, not insertion order: probing an old entry protects it, so
    /// the LRU victim is the genuinely least-recently-used key.
    #[test]
    fn probes_refresh_recency() {
        let text = "\
topics 2
delta_p 1
delta_r 2
reviewer a 1.0 0.0
reviewer b 0.0 1.0
paper p0 0.9 0.1
paper p1 0.1 0.9
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        let service = capped(&inst, Scoring::WeightedCoverage, 2);
        let req = |p: usize| SolveRequest::Jra(JraSpec::new(PaperRef::Id(p)));
        let adhoc =
            SolveRequest::Jra(JraSpec::new(PaperRef::Adhoc(TopicVector::new(vec![0.5, 0.5]))));
        service.execute(&req(0)).unwrap(); // miss: {0}
        service.execute(&req(1)).unwrap(); // miss: {0,1}
        service.execute(&req(0)).unwrap(); // hit — 0 becomes most recent
        service.execute(&adhoc).unwrap(); // miss — evicts 1, not 0
        let refreshed = service.execute(&req(0)).unwrap();
        assert_eq!(refreshed.diag.cache, CacheStatus::Hit, "refreshed entry must survive");
        let evicted = service.execute(&req(1)).unwrap();
        assert_eq!(evicted.diag.cache, CacheStatus::Miss, "stale entry must be the victim");
        assert_eq!(service.cache_counters().evictions, 2);
    }

    /// Concurrent hits versus constant eviction: with capacity 1, four
    /// threads round-robin three keys, so nearly every store evicts while
    /// other threads probe. Every answer — hit, miss, or racing either —
    /// must stay bit-identical to the precomputed cold solve.
    #[test]
    fn eviction_never_corrupts_a_concurrent_hit() {
        let text = "\
topics 3
delta_p 2
delta_r 3
reviewer a 0.7 0.2 0.1
reviewer b 0.1 0.8 0.1
reviewer c 0.2 0.2 0.6
paper p0 0.5 0.4 0.1
paper p1 0.0 0.3 0.7
paper p2 0.6 0.1 0.3
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        let specs: Vec<JraSpec> =
            (0..3).map(|p| JraSpec { top_k: p % 2 + 1, ..JraSpec::new(PaperRef::Id(p)) }).collect();
        // Cold reference answers from an uncached service.
        let reference = capped(&inst, Scoring::WeightedCoverage, 0);
        let cold: Vec<Vec<(Vec<usize>, u64)>> = specs
            .iter()
            .map(|s| {
                let outcome = reference.execute(&SolveRequest::Jra(s.clone())).unwrap();
                results_of(&outcome).iter().map(|r| (r.group.clone(), r.score.to_bits())).collect()
            })
            .collect();
        let service = Arc::new(capped(&inst, Scoring::WeightedCoverage, 1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let service = Arc::clone(&service);
                let specs = specs.clone();
                let cold = cold.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let which = (t + i) % specs.len();
                        let outcome = service
                            .execute(&SolveRequest::Jra(specs[which].clone()))
                            .expect("concurrent solve");
                        let got: Vec<(Vec<usize>, u64)> = results_of(&outcome)
                            .iter()
                            .map(|r| (r.group.clone(), r.score.to_bits()))
                            .collect();
                        assert_eq!(got, cold[which], "thread {t} iter {i} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = service.cache_counters();
        assert!(c.size <= 1);
        assert!(c.evictions > 0, "cap-1 round-robin must evict constantly");
        assert_eq!(c.hits + c.misses, 200);
    }
}

/// Telemetry histogram contracts: shard merging is lossless (identical to
/// pooling the raw observations) and quantile estimates stay within the
/// log-bucket error bound.
mod telemetry_hist {
    use proptest::prelude::*;
    use wgrap_service::telemetry::hist::{HistData, REL_ERROR_BOUND};

    /// Observations across magnitudes: exact small values, mid-range
    /// latencies, and the full `u64` line (so top-octave saturation and
    /// bucket boundaries all get exercised).
    fn observations() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec((0u32..3, any::<u64>()), 0..200).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(kind, v)| match kind {
                    0 => v % 64,
                    1 => v % 100_000,
                    _ => v,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merge ≡ pool: striping observations round-robin across any
        /// shard count and folding the shards back together is
        /// indistinguishable — counts, sums, extremes, and every
        /// quantile — from one histogram that saw the raw stream. This is
        /// exactly what `Telemetry::snapshot` relies on when it merges
        /// per-thread shards. Zero-observation shards (more shards than
        /// observations) are covered by construction.
        #[test]
        fn shard_merge_equals_pooled(
            obs in observations(),
            shards in 1usize..9,
        ) {
            let mut pooled = HistData::new();
            let mut parts: Vec<HistData> = (0..shards).map(|_| HistData::new()).collect();
            for (i, &v) in obs.iter().enumerate() {
                pooled.observe(v);
                parts[i % shards].observe(v);
            }
            let mut merged = HistData::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged.count(), pooled.count());
            prop_assert_eq!(merged.sum(), pooled.sum());
            prop_assert_eq!(merged.min(), pooled.min());
            prop_assert_eq!(merged.max(), pooled.max());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                prop_assert_eq!(merged.quantile(q), pooled.quantile(q));
            }
        }

        /// Every reported quantile is within `REL_ERROR_BOUND` of the
        /// exact nearest-rank observation (plus one unit of integer
        /// rounding) and never escapes the observed `[min, max]`. Empty
        /// histograms report `None`; a single observation is exact.
        #[test]
        fn quantiles_respect_log_bucket_error_bound(
            obs in observations(),
            qs in proptest::collection::vec(0.0f64..=1.0, 1..6),
        ) {
            let mut h = HistData::new();
            for &v in &obs {
                h.observe(v);
            }
            let mut sorted = obs.clone();
            sorted.sort_unstable();
            for &q in &qs {
                match h.quantile(q) {
                    None => prop_assert!(obs.is_empty(), "Some expected on non-empty"),
                    Some(got) => {
                        let rank =
                            ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                        let exact = sorted[rank - 1];
                        let bound = exact as f64 * REL_ERROR_BOUND + 1.0;
                        prop_assert!(
                            (got as f64 - exact as f64).abs() <= bound,
                            "q={}: got {}, exact {}, bound {}", q, got, exact, bound
                        );
                        prop_assert!(got >= h.min().unwrap() && got <= h.max().unwrap());
                    }
                }
            }
            if obs.len() == 1 {
                for q in [0.0, 0.5, 1.0] {
                    prop_assert_eq!(h.quantile(q), Some(obs[0]));
                }
            }
        }
    }
}
