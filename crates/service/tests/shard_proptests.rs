//! The sharding contracts, checked on the deployed [`Router`] over
//! N ∈ {1, 2, 7} in-process shards ([`Link::Local`], called through the same
//! wire layer a shard process runs), for all four scorings, with one
//! unsharded server as the reference:
//!
//! 1. **Routed updates ≡ per-shard reference** — after a routed update
//!    sequence, sent as one batch or one line per update, every shard is
//!    bit-identical to a rebuild of its sub-instance with its sub-batch
//!    applied (paper additions on the last shard, reviewer changes on every
//!    shard), and every router `update` reply is byte-identical to the
//!    unsharded server's.
//! 2. **Routed reads ≡ unsharded reads** — on a fresh deployment, v1 `jra`
//!    and `batch` replies over any query mix (stored, by-name, ad-hoc,
//!    out-of-range, unknown-name, top-k, excludes) are byte-identical to the
//!    unsharded server's, and v2 replies carry the same `results` — with the
//!    `rayon` feature on or off (CI runs both).
//! 3. **Reconciled `assign` is capacity-feasible** — per-shard solves plus
//!    the cross-shard reconciliation pass always give every paper exactly δp
//!    distinct, non-conflicted reviewers and every reviewer a load ≤ δr.

use proptest::prelude::*;
use std::sync::Arc;
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;
use wgrap_service::json::Json;
use wgrap_service::server::handle_line;
use wgrap_service::testutil::{assert_snapshot_bit_eq, reference_apply};
use wgrap_service::{Backend, Frontend, Link, Router, Service, ShardPlan, Update};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

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

/// An update before id resolution: ids become concrete only while replaying
/// (the pool grows and shrinks as the sequence applies).
#[derive(Debug, Clone)]
enum RawUpdate {
    AddPaper { topics: TopicVector, coi_seed: u32 },
    AddReviewer { expertise: TopicVector },
    RetireReviewer { seed: u32 },
    PatchScores { seed: u32, expertise: TopicVector },
}

fn raw_update(dim: usize) -> impl Strategy<Value = RawUpdate> {
    (0u32..4, sparse_topic_vector(dim), any::<u32>()).prop_map(|(kind, v, seed)| match kind {
        0 => RawUpdate::AddPaper { topics: v, coi_seed: seed },
        1 => RawUpdate::AddReviewer { expertise: v },
        2 => RawUpdate::RetireReviewer { seed },
        _ => RawUpdate::PatchScores { seed, expertise: v },
    })
}

/// Resolve raw updates into concrete ones against the evolving counts, so
/// the sharded and the reference path replay the *same* sequence.
fn resolve(inst: &Instance, raws: &[RawUpdate]) -> Vec<Update> {
    let (mut num_p, mut num_r) = (inst.num_papers(), inst.num_reviewers());
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
                out.push(Update::AddReviewer { name: None, expertise: expertise.clone() });
                num_r += 1;
            }
            RawUpdate::RetireReviewer { seed } => {
                out.push(Update::RetireReviewer { reviewer: seed % num_r as u32 });
            }
            RawUpdate::PatchScores { seed, expertise } => {
                out.push(Update::PatchScores {
                    reviewer: seed % num_r as u32,
                    expertise: expertise.clone(),
                });
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
            // Generous workload headroom so AddPaper updates mostly apply
            // and reconciliation always has a substitute to hand out.
            let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p) + 2;
            Instance::new(papers, reviewers, delta_p, delta_r).expect("valid")
        })
}

/// An unsharded server over `inst`.
fn server(inst: Instance, scoring: Scoring, seed: u64) -> Arc<Frontend> {
    Arc::new(Frontend::with_defaults(Arc::new(Service::new(inst, scoring, seed))))
}

/// The deployment under test: a router over one in-process shard per range
/// of `inst`'s balanced `n`-way plan, plus the shards for inspection.
fn deploy(inst: &Instance, scoring: Scoring, seed: u64, n: usize) -> (Router, Vec<Arc<Frontend>>) {
    let plan = ShardPlan::balanced(inst.num_papers(), n).expect("valid plan");
    let shards: Vec<Arc<Frontend>> = plan
        .split_instance(inst)
        .expect("plan covers the instance")
        .into_iter()
        .map(|sub| server(sub, scoring, seed))
        .collect();
    let router = Router::connect(shards.iter().map(|s| Link::Local(Arc::clone(s))).collect())
        .expect("local shards answer the startup probe");
    (router, shards)
}

fn reply(backend: &impl Backend, line: &str) -> String {
    handle_line(backend, line).to_string()
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn topics(v: &TopicVector) -> Json {
    Json::nums(v.as_slice().iter().copied())
}

/// An `update` request line carrying `updates`.
fn update_line(updates: &[Update], v2: bool) -> String {
    let entries = updates.iter().map(|u| match u {
        Update::AddPaper { topics: t, coi, .. } => Json::obj([
            ("kind", Json::Str("add_paper".into())),
            ("topics", topics(t)),
            ("coi", Json::nums(coi.iter().map(|&r| r as f64))),
        ]),
        Update::AddReviewer { expertise, .. } => Json::obj([
            ("kind", Json::Str("add_reviewer".into())),
            ("expertise", topics(expertise)),
        ]),
        Update::RetireReviewer { reviewer } => Json::obj([
            ("kind", Json::Str("retire_reviewer".into())),
            ("reviewer", Json::Num(*reviewer as f64)),
        ]),
        Update::PatchScores { reviewer, expertise } => Json::obj([
            ("kind", Json::Str("patch_scores".into())),
            ("reviewer", Json::Num(*reviewer as f64)),
            ("expertise", topics(expertise)),
        ]),
    });
    request(v2, "update", [("updates", Json::Arr(entries.collect()))])
}

fn request(v2: bool, op: &str, members: impl IntoIterator<Item = (&'static str, Json)>) -> String {
    let mut all = Vec::new();
    if v2 {
        all.push(("v", Json::Num(2.0)));
    }
    all.push(("op", Json::Str(op.into())));
    all.extend(members);
    Json::obj(all).to_string()
}

/// The per-shard sub-batches routing must produce: paper additions on the
/// last shard, reviewer changes on every shard, order kept within each.
fn sub_batches(updates: &[Update], num_shards: usize) -> Vec<Vec<Update>> {
    let mut subs = vec![Vec::new(); num_shards];
    for update in updates {
        match update {
            Update::AddPaper { .. } => subs[num_shards - 1].push(update.clone()),
            _ => subs.iter_mut().for_each(|sub| sub.push(update.clone())),
        }
    }
    subs
}

/// One JRA query's members from a seed: mostly stored papers by id, with
/// by-name, ad-hoc, out-of-range, unknown-name, top-k and exclude variants
/// mixed in deterministically.
fn query_from_seed(
    seed: u32,
    num_papers: usize,
    num_reviewers: usize,
    adhoc: &TopicVector,
) -> Vec<(&'static str, Json)> {
    let stored = seed as usize % num_papers;
    let mut query = match seed % 6 {
        0 => vec![("paper", topics(adhoc))],
        1 => vec![("paper_id", Json::Num((num_papers + seed as usize % 3) as f64))],
        2 => vec![("paper_name", Json::Str(format!("paper-{stored}")))],
        3 => vec![("paper_name", Json::Str("no-such-paper".into()))],
        _ => vec![("paper_id", Json::Num(stored as f64))],
    };
    if (seed / 6).is_multiple_of(3) {
        query.push(("top_k", Json::Num((1 + seed % 3) as f64)));
    }
    if (seed / 18).is_multiple_of(3) {
        query.push(("exclude", Json::nums([((seed / 7) as usize % num_reviewers) as f64])));
    }
    query
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: routed updates. Whether the router saw one batch or one
    /// line per update, each shard must be bit-identical to a reference
    /// replay of its sub-batch over its sub-instance, and each router reply
    /// must be the unsharded server's reply, byte for byte.
    #[test]
    fn sharded_apply_matches_per_shard_reference(
        inst in instance_strategy(5),
        raws in proptest::collection::vec(raw_update(5), 1..8),
        seed in 0u64..1_000,
    ) {
        let updates = resolve(&inst, &raws);
        for num_shards in SHARD_COUNTS {
            let plan = ShardPlan::balanced(inst.num_papers(), num_shards).expect("valid plan");
            let subs = plan.split_instance(&inst).expect("plan covers the instance");
            for scoring in Scoring::ALL {
                let want: Vec<_> = subs
                    .iter()
                    .zip(sub_batches(&updates, num_shards))
                    .map(|(sub, batch)| {
                        reference_apply(sub, scoring, seed, &batch).expect("reference applies")
                    })
                    .collect();
                let lines = [
                    vec![update_line(&updates, false)],
                    updates.iter().map(|u| update_line(std::slice::from_ref(u), true)).collect(),
                ];
                for lines in lines {
                    let unsharded = server(inst.clone(), scoring, seed);
                    let (router, shards) = deploy(&inst, scoring, seed, num_shards);
                    for line in &lines {
                        prop_assert_eq!(reply(&router, line), reply(unsharded.as_ref(), line));
                    }
                    for (shard, want) in shards.iter().zip(&want) {
                        assert_snapshot_bit_eq(&shard.service().snapshot(), want);
                    }
                }
            }
        }
    }

    /// Contract 2: routed reads. Every v1 `jra` and `batch` reply over the
    /// query mix is the unsharded server's reply, byte for byte; v2 replies
    /// differ only in diagnostics (the `key` names the shard-local paper),
    /// so they must carry the same `results` and errors.
    #[test]
    fn sharded_jra_batch_matches_unsharded_bitwise(
        inst in instance_strategy(5),
        qseeds in proptest::collection::vec(any::<u32>(), 1..10),
        adhoc in sparse_topic_vector(5),
        seed in 0u64..1_000,
    ) {
        let queries: Vec<_> = qseeds
            .iter()
            .map(|&qs| query_from_seed(qs, inst.num_papers(), inst.num_reviewers(), &adhoc))
            .collect();
        let batch = |v2| {
            let entries = queries.iter().map(|q| Json::obj(q.clone())).collect();
            request(v2, "batch", [("queries", Json::Arr(entries))])
        };
        let payload = |v: &Json| (v.get("results").map(Json::to_string), v.get("error").cloned());
        for scoring in Scoring::ALL {
            for num_shards in SHARD_COUNTS {
                let unsharded = server(inst.clone(), scoring, seed);
                let unsharded = unsharded.as_ref();
                let (router, _) = deploy(&inst, scoring, seed, num_shards);
                for query in &queries {
                    let v1 = request(false, "jra", query.clone());
                    prop_assert_eq!(reply(&router, &v1), reply(unsharded, &v1), "{}", v1);
                    let v2 = request(true, "jra", query.clone());
                    let (got, want) = (handle_line(&router, &v2), handle_line(unsharded, &v2));
                    prop_assert_eq!(payload(&got), payload(&want), "{}", v2);
                }
                prop_assert_eq!(reply(&router, &batch(false)), reply(unsharded, &batch(false)));
                let (got, want) = (handle_line(&router, &batch(true)), handle_line(unsharded, &batch(true)));
                let entries = |v: &Json| -> Vec<_> {
                    v.get("results").and_then(Json::as_arr).expect("batch entries").iter().map(payload).collect()
                };
                prop_assert_eq!(entries(&got), entries(&want));
            }
        }
    }

    /// Contract 3: reconciled CRA feasibility. Per-shard solves enforce δr
    /// only against their own slice of the papers, so the cross-shard
    /// reconciliation pass must restore the global constraint: every
    /// reviewer ends at load ≤ δr and every paper keeps exactly δp
    /// distinct, non-conflicted reviewers — including after updates grow
    /// the instance past the initial plan.
    #[test]
    fn reconciled_assignment_is_capacity_feasible(
        inst in instance_strategy(5),
        raws in proptest::collection::vec(raw_update(5), 0..5),
        seed in 0u64..1_000,
    ) {
        let updates = resolve(&inst, &raws);
        let current = reference_apply(&inst, Scoring::WeightedCoverage, seed, &updates)
            .expect("resolved updates apply");
        let current = current.instance();
        for scoring in Scoring::ALL {
            for num_shards in SHARD_COUNTS {
                let (router, _) = deploy(&inst, scoring, seed, num_shards);
                prop_assert!(ok(&handle_line(&router, &update_line(&updates, false))));
                let v = handle_line(&router, r#"{"op":"assign","method":"greedy"}"#);
                prop_assert!(ok(&v), "slackful instances stay assignable: {}", v);
                let groups = v.get("groups").and_then(Json::as_arr).expect("groups");
                prop_assert_eq!(groups.len(), current.num_papers());
                prop_assert!(v.get("coverage").and_then(Json::as_f64).is_some_and(f64::is_finite));
                let mut loads = vec![0usize; current.num_reviewers()];
                for (p, group) in groups.iter().enumerate() {
                    let mut group: Vec<usize> = group
                        .as_arr()
                        .expect("group array")
                        .iter()
                        .map(|r| r.as_usize().expect("reviewer id"))
                        .collect();
                    prop_assert_eq!(group.len(), current.delta_p(), "paper {} group size", p);
                    for &r in &group {
                        prop_assert!(r < current.num_reviewers(), "paper {} reviewer {} in range", p, r);
                        prop_assert!(!current.is_coi(r, p), "paper {} assigned conflicted reviewer {}", p, r);
                        loads[r] += 1;
                    }
                    group.sort_unstable();
                    group.dedup();
                    prop_assert_eq!(group.len(), current.delta_p(), "paper {} has repeats", p);
                }
                for (r, &load) in loads.iter().enumerate() {
                    prop_assert!(
                        load <= current.delta_r(),
                        "reviewer {} load {} exceeds delta_r {}",
                        r,
                        load,
                        current.delta_r()
                    );
                }
            }
        }
    }
}
