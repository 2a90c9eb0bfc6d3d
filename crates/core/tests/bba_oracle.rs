//! Certification of the support-bounded BBA search against the dense
//! search it replaced.
//!
//! [`dense`] is Algorithm 1 as it ran before the search learned about a
//! paper's topic support: `T` fully sorted reviewer lists per query and an
//! `O(T)` gain per cursor head. It is kept here, out of the library, as
//! the oracle. The property: on every view, pool and option set,
//! [`bba::solve_view`] / [`bba::solve_view_pool`] return the same
//! `Vec<JraResult>` as the oracle — score bits, groups, rank order and
//! `nodes` — including over a context whose topic index was kept in order
//! through a random sequence of reviewer-row updates.

use proptest::prelude::*;
use wgrap_core::engine::{truncate_row, JraView, ScoreContext};
use wgrap_core::jra::{bba, JraResult};
use wgrap_core::prelude::*;

/// The pre-support dense search, verbatim apart from its gain state.
mod dense {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use wgrap_core::engine::JraView;
    use wgrap_core::jra::bba::BbaOptions;
    use wgrap_core::jra::JraResult;

    /// Dense running group: `gmax` over all `T` topics.
    #[derive(Clone)]
    struct DenseGain {
        gmax: Vec<f64>,
        raw: f64,
    }

    impl DenseGain {
        fn gain(&self, view: &JraView<'_>, r: usize) -> f64 {
            let mut delta = 0.0;
            for ((&g, &e), &w) in self.gmax.iter().zip(view.row(r)).zip(view.paper) {
                if e > g {
                    delta += view.scoring.topic_contribution(e, w)
                        - view.scoring.topic_contribution(g, w);
                }
            }
            delta * view.inv_total
        }

        fn add(&mut self, view: &JraView<'_>, r: usize) {
            for (t, (&e, &w)) in view.row(r).iter().zip(view.paper).enumerate() {
                let g = self.gmax[t];
                if e > g {
                    self.raw += view.scoring.topic_contribution(e, w)
                        - view.scoring.topic_contribution(g, w);
                    self.gmax[t] = e;
                }
            }
        }
    }

    struct ScoredGroup(f64, Vec<usize>);

    impl PartialEq for ScoredGroup {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for ScoredGroup {}
    impl PartialOrd for ScoredGroup {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ScoredGroup {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    pub fn search(
        view: &JraView<'_>,
        pool: Option<&[u32]>,
        opts: &BbaOptions,
    ) -> Option<Vec<JraResult>> {
        let r_total = view.num_reviewers();
        let t_dim = view.paper.len();
        let k = view.delta_p;
        let eligible: Vec<u32> = match pool {
            Some(ids) => ids.iter().copied().filter(|&r| !view.forbidden[r as usize]).collect(),
            None => (0..r_total as u32).filter(|&r| !view.forbidden[r as usize]).collect(),
        };
        if eligible.len() < k {
            return None;
        }
        let mut sorted_lists: Vec<Vec<(f64, u32)>> = Vec::with_capacity(t_dim);
        for t in 0..t_dim {
            let mut list: Vec<(f64, u32)> =
                eligible.iter().map(|&r| (view.row(r as usize)[t], r)).collect();
            list.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            sorted_lists.push(list);
        }
        let list_len = eligible.len();

        let mut cursors: Vec<Vec<usize>> = vec![vec![0usize; t_dim]; k];
        let mut visited: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut blocked: Vec<u32> = vec![0; r_total];
        let mut rg_stack = vec![DenseGain { gmax: vec![0.0; t_dim], raw: 0.0 }];
        let mut path: Vec<usize> = Vec::with_capacity(k);
        let mut heap: BinaryHeap<Reverse<ScoredGroup>> = BinaryHeap::new();
        let threshold = |heap: &BinaryHeap<Reverse<ScoredGroup>>| {
            if heap.len() < opts.top_k {
                opts.initial_bound
            } else {
                heap.peek().map_or(opts.initial_bound, |Reverse(g)| g.0.max(opts.initial_bound))
            }
        };
        let mut nodes = 0u64;
        let mut s = 0usize;

        loop {
            for t in 0..t_dim {
                let pos = &mut cursors[s][t];
                while *pos < list_len && blocked[sorted_lists[t][*pos].1 as usize] > 0 {
                    *pos += 1;
                }
            }
            let rg = &rg_stack[s];
            let mut best_r: Option<usize> = None;
            let mut best_gain = f64::NEG_INFINITY;
            let mut ub_raw = 0.0;
            for t in 0..t_dim {
                let head = cursors[s][t];
                let head_val = if head < list_len { sorted_lists[t][head].0 } else { 0.0 };
                ub_raw += view.scoring.topic_contribution(rg.gmax[t].max(head_val), view.paper[t]);
                if head < list_len {
                    let r = sorted_lists[t][head].1 as usize;
                    if best_r != Some(r) {
                        let gain = rg.gain(view, r);
                        if gain > best_gain {
                            best_gain = gain;
                            best_r = Some(r);
                        }
                    }
                }
            }
            let ub = ub_raw * view.inv_total;

            let prune = opts.use_bound && ub <= threshold(&heap);
            let Some(r) = best_r.filter(|_| !prune) else {
                for r in visited[s].drain(..) {
                    blocked[r as usize] -= 1;
                }
                if s == 0 {
                    break;
                }
                s -= 1;
                rg_stack.truncate(s + 1);
                path.truncate(s);
                continue;
            };

            nodes += 1;
            blocked[r] += 1;
            visited[s].push(r as u32);
            path.truncate(s);
            path.push(r);

            if s + 1 == k {
                let score = rg_stack[s].raw * view.inv_total + best_gain;
                let mut group = path.clone();
                group.sort_unstable();
                if heap.len() < opts.top_k {
                    heap.push(Reverse(ScoredGroup(score, group)));
                } else if score > threshold(&heap) {
                    heap.push(Reverse(ScoredGroup(score, group)));
                    heap.pop();
                }
            } else {
                let (head, tail) = cursors.split_at_mut(s + 1);
                tail[0].copy_from_slice(&head[s]);
                let mut next = rg_stack[s].clone();
                next.add(view, r);
                rg_stack.push(next);
                s += 1;
            }
        }

        let mut out: Vec<(f64, Vec<usize>)> =
            heap.into_iter().map(|Reverse(g)| (g.0, g.1)).collect();
        out.sort_by(|a, b| b.0.total_cmp(&a.0));
        Some(out.into_iter().map(|(score, group)| JraResult { group, score, nodes }).collect())
    }
}

/// A weight drawn from a small set, so that equal expertise values — and
/// with them the `(value desc, id asc)` tie order — are common. Index 0 is
/// `+0.0`, index 1 is `-0.0` (which `TopicVector::new` accepts).
fn weight(i: usize) -> f64 {
    [0.0, -0.0, 0.125, 0.25, 0.5, 0.75, 1.0][i]
}

/// A paper with support 0, 1, a few, or all `dim` topics; its zeros are
/// `+0.0` or `-0.0`.
fn paper(dim: usize) -> impl Strategy<Value = TopicVector> {
    (0usize..4, proptest::collection::vec((2usize..7, 0usize..2, any::<bool>()), dim)).prop_map(
        move |(support, draws)| {
            let weights = draws
                .iter()
                .enumerate()
                .map(|(t, &(w, zero, keep))| {
                    let on = match support {
                        0 => false,
                        1 => t == 0,
                        2 => keep,
                        _ => true,
                    };
                    if on {
                        weight(w)
                    } else {
                        weight(zero)
                    }
                })
                .collect();
            TopicVector::new(weights)
        },
    )
}

/// Reviewers mixing dense rows, sparse rows (half their entries `+0.0` or
/// `-0.0`) and exact duplicates of an earlier row.
fn reviewers(dim: usize) -> impl Strategy<Value = Vec<TopicVector>> {
    proptest::collection::vec(
        (
            0usize..3,
            0usize..16,
            proptest::collection::vec((0usize..2, 2usize..7, any::<bool>()), dim),
        ),
        1..11,
    )
    .prop_map(|rows| {
        let mut out: Vec<TopicVector> = Vec::with_capacity(rows.len());
        for (kind, dup, draws) in rows {
            let v = match kind {
                0 if !out.is_empty() => out[dup % out.len()].clone(),
                1 => TopicVector::new(draws.iter().map(|&(_, w, _)| weight(w)).collect()),
                _ => TopicVector::new(
                    draws.iter().map(|&(z, w, on)| weight(if on { w } else { z })).collect(),
                ),
            };
            out.push(v);
        }
        out
    })
}

/// Which reviewer pool the search runs over.
#[derive(Debug, Clone, Copy)]
enum Pool {
    /// Every non-forbidden reviewer ([`bba::solve_view`]).
    Dense,
    /// The positive-score reviewers (`PruningPolicy::Auto`'s pool).
    Auto,
    /// `Auto` truncated to its best `k` (`PruningPolicy::TopK(k)`).
    TopK(usize),
    /// An arbitrary subset of the ids, zero-score reviewers included: its
    /// outsiders sit in a walked topic index as pre-blocked entries, and
    /// its zero-expertise members make up the list tails.
    Subset,
}

impl Pool {
    fn from_kind(kind: usize) -> Self {
        match kind {
            0 => Pool::Dense,
            1 => Pool::Auto,
            4 => Pool::Subset,
            k => Pool::TopK(k),
        }
    }
}

/// The pool's ids, ascending; `draws` picks the `Subset` members.
fn pool_ids(
    view: &JraView<'_>,
    ctx: &ScoreContext<'_>,
    pool: Pool,
    draws: &[usize],
) -> Option<Vec<u32>> {
    let mut row: Vec<(u32, f64)> = (0..view.num_reviewers())
        .filter_map(|r| {
            let s = ctx.pair_score(r, 0);
            (s > 0.0).then_some((r as u32, s))
        })
        .collect();
    match pool {
        Pool::Dense => return None,
        Pool::Auto => {}
        Pool::TopK(k) => {
            truncate_row(&mut row, k);
        }
        Pool::Subset => {
            let n = view.num_reviewers() as u32;
            return Some((0..n).filter(|&r| draws[(r as usize + 5) % draws.len()] != 1).collect());
        }
    }
    Some(row.into_iter().map(|(r, _)| r).collect())
}

/// One reviewer-row update of an owned context, with the reviewer id
/// resolved modulo the pool size when it is applied.
#[derive(Debug, Clone)]
enum RowUpdate {
    /// `push_reviewer` with a row of [`weight`] draws.
    Add(Vec<usize>),
    /// `set_reviewer_row` to a row of [`weight`] draws.
    Patch(usize, Vec<usize>),
    /// `set_reviewer_row` keeping the row's support: every positive value
    /// is redrawn from the positive weights, so it moves or ties.
    Reweigh(usize, Vec<usize>),
    /// `set_reviewer_row` to zeros (what retiring a reviewer does).
    Retire(usize),
}

fn row_updates(dim: usize) -> impl Strategy<Value = Vec<RowUpdate>> {
    proptest::collection::vec(
        (0usize..4, 0usize..64, proptest::collection::vec(0usize..7, dim)),
        0..8,
    )
    .prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, who, w)| match kind {
                0 => RowUpdate::Add(w),
                1 => RowUpdate::Patch(who, w),
                2 => RowUpdate::Reweigh(who, w),
                _ => RowUpdate::Retire(who),
            })
            .collect()
    })
}

fn apply_row_updates(ctx: &mut ScoreContext<'static>, updates: &[RowUpdate]) {
    let row = |w: &[usize]| TopicVector::new(w.iter().map(|&i| weight(i)).collect());
    for update in updates {
        let r_count = ctx.num_reviewers();
        match update {
            RowUpdate::Add(w) => {
                ctx.push_reviewer(None, row(w)).expect("dimension matches");
            }
            RowUpdate::Patch(who, w) => {
                ctx.set_reviewer_row(who % r_count, row(w)).expect("in range");
            }
            RowUpdate::Reweigh(who, w) => {
                let r = who % r_count;
                let values: Vec<f64> = ctx
                    .reviewer_row(r)
                    .iter()
                    .zip(w)
                    .map(|(&e, &i)| if e > 0.0 { weight(2 + i % 5) } else { e })
                    .collect();
                ctx.set_reviewer_row(r, TopicVector::new(values)).expect("in range");
            }
            RowUpdate::Retire(who) => {
                let dim = ctx.num_topics();
                ctx.set_reviewer_row(who % r_count, TopicVector::zeros(dim)).expect("in range");
            }
        }
    }
}

fn assert_same(
    got: &Option<Vec<JraResult>>,
    want: &Option<Vec<JraResult>>,
    what: &str,
) -> std::result::Result<(), TestCaseError> {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            prop_assert_eq!(g.len(), w.len(), "{}: result count", what);
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                prop_assert_eq!(&g.group, &w.group, "{}: rank {} group", what, i);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits(), "{}: rank {} score", what, i);
                prop_assert_eq!(g.nodes, w.nodes, "{}: rank {} nodes", what, i);
            }
        }
        _ => prop_assert!(false, "{what}: {got:?} vs {want:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole contract: bit-identical answers, `nodes` included, for
    /// every scoring, view kind, pool, group size, `top_k`, bound setting
    /// and seeded initial bound.
    #[test]
    fn support_bounded_search_matches_dense_oracle(
        (paper, reviewers, forbid) in (1usize..8).prop_flat_map(|dim| {
            (paper(dim), reviewers(dim), proptest::collection::vec(0usize..5, 12))
        }),
        delta_p in 1usize..5,
        top_k in 1usize..4,
        use_bound in any::<bool>(),
        pool_kind in 0usize..5,
        seed_bound in 0usize..3,
    ) {
        let r = reviewers.len();
        let forbidden: Vec<bool> = (0..r).map(|i| forbid[i % forbid.len()] == 0).collect();
        let delta_p = delta_p.min(r);
        let inst = Instance::journal(paper.clone(), reviewers.clone(), delta_p).expect("valid");
        let pool = Pool::from_kind(pool_kind);
        for scoring in Scoring::ALL {
            let ctx = ScoreContext::new(&inst, scoring);
            // Built up front, so that a pooled search over the context's
            // rows walks it whenever it is no larger than the pool's rows;
            // the boxed view always lists the pool's own rows.
            ctx.topic_index();
            let views = [
                ("boxed", JraView::from_boxed(&paper, &reviewers, forbidden.clone(), delta_p, scoring)),
                ("stored", ctx.jra_view_with_forbidden(0, forbidden.clone())),
                ("adhoc", ctx.jra_view_adhoc(&paper, forbidden.clone(), delta_p)),
            ];
            for (kind, view) in &views {
                // 0: cold start; 1: BRGG's greedy seed minus epsilon; 2: the
                // optimum itself, which prunes every group.
                let initial_bound = match seed_bound {
                    0 => f64::NEG_INFINITY,
                    s => match dense::search(view, None, &bba::BbaOptions::default()) {
                        Some(best) if s == 1 => best[0].score - 1e-9,
                        Some(best) => best[0].score,
                        None => f64::NEG_INFINITY,
                    },
                };
                let opts = bba::BbaOptions { top_k, use_bound, initial_bound };
                let ids = pool_ids(view, &ctx, pool, &forbid);
                let (got, want) = match &ids {
                    Some(ids) => {
                        (bba::solve_view_pool(view, ids, &opts), dense::search(view, Some(ids), &opts))
                    }
                    None => (bba::solve_view(view, &opts), dense::search(view, None, &opts)),
                };
                assert_same(&got, &want, &format!("{scoring:?}/{kind}/{pool:?}/{opts:?}"))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The borrowed index after updates: a context whose topic index was
    /// built and then kept in order by `push_reviewer` / `set_reviewer_row`
    /// (the path a service snapshot's updates take) holds exactly a fresh
    /// build's index, and the searches over it match the dense oracle.
    #[test]
    fn maintained_index_search_matches_dense_oracle(
        (paper, reviewers, updates, forbid) in (1usize..6).prop_flat_map(|dim| {
            (
                paper(dim),
                reviewers(dim),
                row_updates(dim),
                proptest::collection::vec(0usize..5, 12),
            )
        }),
        delta_p in 1usize..4,
        top_k in 1usize..4,
        use_bound in any::<bool>(),
        pool_kind in 0usize..5,
    ) {
        let delta_p = delta_p.min(reviewers.len());
        let inst = Instance::journal(paper.clone(), reviewers, delta_p).expect("valid");
        let pool = Pool::from_kind(pool_kind);
        let opts = bba::BbaOptions { top_k, use_bound, ..Default::default() };
        for scoring in Scoring::ALL {
            let mut ctx = ScoreContext::from_owned(inst.clone(), scoring);
            ctx.topic_index();
            apply_row_updates(&mut ctx, &updates);
            let rebuilt = ScoreContext::new(ctx.instance(), scoring);
            prop_assert_eq!(ctx.topic_index(), rebuilt.topic_index(), "{:?}: index", scoring);
            let r = ctx.num_reviewers();
            let forbidden: Vec<bool> = (0..r).map(|i| forbid[i % forbid.len()] == 0).collect();
            let views = [
                ("stored", ctx.jra_view_with_forbidden(0, forbidden.clone())),
                ("adhoc", ctx.jra_view_adhoc(&paper, forbidden.clone(), delta_p)),
            ];
            for (kind, view) in &views {
                let ids = pool_ids(view, &ctx, pool, &forbid);
                let (got, want) = match &ids {
                    Some(ids) => {
                        (bba::solve_view_pool(view, ids, &opts), dense::search(view, Some(ids), &opts))
                    }
                    None => (bba::solve_view(view, &opts), dense::search(view, None, &opts)),
                };
                assert_same(&got, &want, &format!("{scoring:?}/{kind}/{pool:?}/{opts:?}"))?;
            }
        }
    }
}

/// `-0.0` expertise is kept, not canonicalised, and ranks after every
/// `+0.0` row on a topic's list — the `total_cmp` order the dense lists
/// sorted into. Here reviewers 0 and 1 have nothing on the paper's only
/// topic, reviewer 0 as `-0.0`: a δp=1 search must branch on reviewer 1
/// (the first `+0.0` row) before reviewer 0, so under `top_k = 2` the
/// rank order and `nodes` pin the tail order.
#[test]
fn negative_zero_ranks_after_positive_zero_in_the_tail() {
    let paper = TopicVector::new(vec![1.0, 0.0]);
    let reviewers = vec![TopicVector::new(vec![-0.0, 0.5]), TopicVector::new(vec![0.0, 0.5])];
    assert!(reviewers[0].as_slice()[0].is_sign_negative(), "-0.0 survives TopicVector::new");
    for scoring in Scoring::ALL {
        let view = JraView::from_boxed(&paper, &reviewers, vec![false; 2], 1, scoring);
        let opts = bba::BbaOptions { top_k: 2, use_bound: false, ..Default::default() };
        let got = bba::solve_view(&view, &opts).unwrap();
        let want = dense::search(&view, None, &opts).unwrap();
        assert_eq!(got, want, "{scoring:?}");
        assert_eq!(got.iter().map(|g| g.group[0]).collect::<Vec<_>>(), [1, 0], "{scoring:?}");
    }
}
