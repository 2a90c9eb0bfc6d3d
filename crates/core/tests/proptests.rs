//! Property tests for the core invariants the paper's proofs rest on:
//! submodularity and monotonicity of the coverage objective (Lemma 4), BBA
//! exactness against brute force, SDGA feasibility, and SRA monotonicity.

use proptest::prelude::*;
use wgrap_core::assignment::Assignment;
use wgrap_core::cra::sra;
use wgrap_core::engine::{PruningPolicy, ScoreContext, SdgaSolver, Solver};
use wgrap_core::jra::{bba, bfs, JraProblem};
use wgrap_core::prelude::*;
use wgrap_core::score::group_expertise;

fn topic_vector(dim: usize) -> impl Strategy<Value = TopicVector> {
    proptest::collection::vec(0.0..1.0f64, dim).prop_map(|mut v| {
        // Avoid the all-zeros vector so normalisation is meaningful.
        if v.iter().sum::<f64>() <= 0.0 {
            v[0] = 1.0;
        }
        TopicVector::new(v).normalized()
    })
}

fn vectors(n: std::ops::Range<usize>, dim: usize) -> impl Strategy<Value = Vec<TopicVector>> {
    proptest::collection::vec(topic_vector(dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 4's conditions imply submodularity: the marginal gain of a
    /// reviewer never increases when the group grows first.
    #[test]
    fn gain_is_submodular_for_all_scorings(
        paper in topic_vector(5),
        group in vectors(0..3, 5),
        extra in topic_vector(5),
        candidate in topic_vector(5),
    ) {
        for scoring in Scoring::ALL {
            let mut small = RunningGroup::new(scoring, &paper);
            for g in &group {
                small.add(g);
            }
            let mut large = small.clone();
            large.add(&extra);
            prop_assert!(
                large.gain(&candidate) <= small.gain(&candidate) + 1e-12,
                "{scoring:?} violated diminishing returns"
            );
        }
    }

    /// Monotonicity: adding any reviewer never decreases the group score.
    #[test]
    fn coverage_is_monotone(
        paper in topic_vector(6),
        group in vectors(1..4, 6),
        extra in topic_vector(6),
    ) {
        for scoring in Scoring::ALL {
            let before = scoring.group_score(group.iter(), &paper);
            let after = scoring.group_score(group.iter().chain([&extra]), &paper);
            prop_assert!(after >= before - 1e-12);
        }
    }

    /// Scores live in [0, 1] for normalised inputs (Eq. 1's normaliser).
    #[test]
    fn weighted_coverage_is_bounded(
        paper in topic_vector(6),
        group in vectors(1..4, 6),
    ) {
        let s = Scoring::WeightedCoverage.group_score(group.iter(), &paper);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
    }

    /// The group vector dominates every member and is tight somewhere.
    #[test]
    fn group_vector_is_least_upper_bound(group in vectors(1..5, 5)) {
        let g = group_expertise(5, group.iter());
        for t in 0..5 {
            let member_max = group.iter().map(|r| r[t]).fold(0.0f64, f64::max);
            prop_assert!((g[t] - member_max).abs() < 1e-15);
        }
    }

    /// BBA is exact: it matches brute force on every random instance.
    #[test]
    fn bba_equals_bfs(
        pool in vectors(4..10, 4),
        paper in topic_vector(4),
        delta_p in 1usize..4,
    ) {
        prop_assume!(delta_p <= pool.len());
        let problem = JraProblem::new(&paper, &pool, delta_p);
        let a = bba::solve(&problem).expect("feasible");
        let b = bfs::solve(&problem).expect("feasible");
        prop_assert!((a.score - b.score).abs() < 1e-9);
    }

    /// SDGA always returns a feasible complete assignment and respects the
    /// 1/2 bound against the per-paper ideal × P (a weaker but cheap bound).
    #[test]
    fn sdga_is_feasible(
        papers in vectors(2..7, 4),
        reviewers in vectors(3..7, 4),
        delta_p in 1usize..4,
    ) {
        prop_assume!(delta_p <= reviewers.len());
        let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p);
        let inst = Instance::new(papers, reviewers, delta_p, delta_r).expect("valid");
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let a = SdgaSolver::default().solve(&ctx).expect("sdga");
        prop_assert!(a.validate(&inst).is_ok());
    }

    /// SRA never returns something worse than its input, and the result
    /// stays feasible.
    #[test]
    fn sra_is_monotone_and_feasible(
        papers in vectors(2..6, 4),
        reviewers in vectors(3..6, 4),
        seed in 0u64..1000,
    ) {
        let delta_p = 2usize.min(reviewers.len());
        let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p);
        let inst = Instance::new(papers, reviewers, delta_p, delta_r).expect("valid");
        let ctx = ScoreContext::new(&inst, Scoring::WeightedCoverage);
        let initial = SdgaSolver::default().solve(&ctx).expect("sdga");
        let before = initial.coverage_score(&inst, Scoring::WeightedCoverage);
        let opts = sra::SraOptions { omega: 4, seed, ..Default::default() };
        let out = sra::refine(&ctx, initial, &opts, PruningPolicy::Exact);
        prop_assert!(out.score >= before - 1e-12);
        prop_assert!(out.assignment.validate(&inst).is_ok());
    }

    /// c(A) is the sum of the per-paper scores, and permuting a group does
    /// not change its score (max is order-independent).
    #[test]
    fn assignment_score_decomposes(
        papers in vectors(2..5, 4),
        reviewers in vectors(4..7, 4),
    ) {
        let inst = Instance::new(papers, reviewers, 2, 100).expect("valid");
        let mut a = Assignment::empty(inst.num_papers());
        for p in 0..inst.num_papers() {
            a.assign(p % inst.num_reviewers(), p);
            a.assign((p + 1) % inst.num_reviewers(), p);
        }
        let total = a.coverage_score(&inst, Scoring::WeightedCoverage);
        let sum: f64 = a.paper_scores(&inst, Scoring::WeightedCoverage).iter().sum();
        prop_assert!((total - sum).abs() < 1e-12);

        // Reverse every group: scores identical.
        let mut b = a.clone();
        for p in 0..inst.num_papers() {
            b.group_mut(p).reverse();
        }
        prop_assert!((b.coverage_score(&inst, Scoring::WeightedCoverage) - total).abs() < 1e-12);
    }
}

/// Engine equivalence: JRA BBA over the engine's context agrees with the
/// seed's boxed-`TopicVector` path. The CRA algorithms' engine
/// ≡ legacy proptest, `cra_algorithms_bit_identical`, runs inside
/// `wgrap-core` (`src/legacy.rs`), because its oracle is test-only code.
mod engine_equivalence {
    use proptest::prelude::*;
    use wgrap_core::engine::ScoreContext;
    use wgrap_core::jra::{bba, JraProblem};
    use wgrap_core::prelude::*;

    fn topic_vector(dim: usize) -> impl Strategy<Value = TopicVector> {
        proptest::collection::vec(0.0..1.0f64, dim).prop_map(|mut v| {
            if v.iter().sum::<f64>() <= 0.0 {
                v[0] = 1.0;
            }
            TopicVector::new(v).normalized()
        })
    }

    /// A sparse-ish topic vector: a dense draw with some topics zeroed, so
    /// the CSR path actually skips entries.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// JRA BBA through the engine context equals the legacy problem
        /// path: same groups, same scores, same node counts.
        #[test]
        fn jra_bba_bit_identical(
            paper in sparse_topic_vector(5),
            pool in proptest::collection::vec(topic_vector(5), 4..10),
            delta_p in 1usize..4,
            top_k in 1usize..4,
        ) {
            prop_assume!(delta_p <= pool.len());
            for scoring in Scoring::ALL {
                let problem = JraProblem::new(&paper, &pool, delta_p).with_scoring(scoring);
                let opts = bba::BbaOptions { top_k, ..Default::default() };
                let legacy = bba::solve_with_options(&problem, &opts).expect("feasible");

                let journal = Instance::journal(paper.clone(), pool.clone(), delta_p)
                    .expect("valid journal instance");
                let ctx = ScoreContext::new(&journal, scoring);
                let engine = bba::solve_ctx(&ctx, 0, &opts).expect("feasible");

                prop_assert_eq!(legacy.len(), engine.len());
                for (l, e) in legacy.iter().zip(&engine) {
                    prop_assert_eq!(&l.group, &e.group, "{:?}", scoring);
                    prop_assert_eq!(l.score.to_bits(), e.score.to_bits());
                    prop_assert_eq!(l.nodes, e.nodes);
                }
            }
        }
    }
}

/// CandidateSet pruning equivalence: [`PruningPolicy::Auto`] must produce
/// **bit-identical assignments** to the dense (`Exact`) path for every CRA
/// solver, every scoring, and for JRA BBA — the `Auto` contract. For the
/// gain-ranking solvers (greedy, the SRA removal model) this exercises real
/// pruning plus the zero-spill reconciliation; for the solvers whose
/// tie-breaking cannot be certified (SDGA stages, BRGG, SM, ILP) it pins
/// down that `Auto` falls back to the dense path rather than drifting.
mod pruning_equivalence {
    use proptest::prelude::*;
    use wgrap_core::cra::CraAlgorithm;
    use wgrap_core::engine::{CandidateSet, PruningPolicy, ScoreContext};
    use wgrap_core::jra::bba;
    use wgrap_core::prelude::*;

    /// The non-deprecated spelling of the old `run_pruned` shim: solver
    /// dispatch through the engine under a pruning policy.
    fn run_pruned(
        algo: CraAlgorithm,
        inst: &Instance,
        scoring: Scoring,
        seed: u64,
        pruning: PruningPolicy,
    ) -> wgrap_core::error::Result<wgrap_core::assignment::Assignment> {
        algo.solver_with(pruning).solve(&ScoreContext::new(inst, scoring).with_seed(seed))
    }

    /// Aggressively sparse vectors so candidate lists genuinely exclude
    /// reviewers and greedy hits the zero-gain spill.
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

    fn instance_strategy(dim: usize) -> impl Strategy<Value = (Instance, u64)> {
        (
            proptest::collection::vec(sparse_topic_vector(dim), 2..6),
            proptest::collection::vec(sparse_topic_vector(dim), 4..8),
            1usize..4,
            0u64..1_000,
            proptest::collection::vec(any::<bool>(), 48),
        )
            .prop_map(move |(papers, reviewers, delta_p, seed, coi)| {
                let delta_p = delta_p.min(reviewers.len() - 1).max(1);
                let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p);
                let mut inst =
                    Instance::new(papers, reviewers, delta_p, delta_r + 1).expect("valid");
                let mut k = 0usize;
                for r in 0..inst.num_reviewers() {
                    for p in 0..inst.num_papers() {
                        if coi[k % coi.len()] && r == p % inst.num_reviewers() {
                            inst.add_coi(r, p);
                        }
                        k += 1;
                    }
                }
                (inst, seed)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The acceptance contract: `Auto` vs the dense path, all six CRA
        /// solvers, all four scorings — identical groups, reviewer for
        /// reviewer, in order.
        #[test]
        fn auto_bit_identical_for_all_cra_solvers((inst, seed) in instance_strategy(5)) {
            for scoring in Scoring::ALL {
                for algo in CraAlgorithm::ALL {
                    let dense = algo.run(&inst, scoring, seed);
                    let auto = run_pruned(algo, &inst, scoring, seed, PruningPolicy::Auto);
                    match (dense, auto) {
                        (Ok(d), Ok(a)) => prop_assert_eq!(
                            &d, &a,
                            "{:?}/{:?} diverged under Auto pruning", algo, scoring
                        ),
                        (Err(_), Err(_)) => {}
                        (d, a) => prop_assert!(
                            false,
                            "{algo:?}/{scoring:?}: dense {d:?} vs auto {a:?}"
                        ),
                    }
                }
            }
        }

        /// `TopK` with `k ≥ R` truncates nothing, so it carries the same
        /// certificate as `Auto` for the gain-ranking greedy — and must be
        /// exact too.
        #[test]
        fn huge_topk_greedy_is_exact((inst, seed) in instance_strategy(5)) {
            for scoring in Scoring::ALL {
                let dense = CraAlgorithm::Greedy.run(&inst, scoring, seed);
                let topk = run_pruned(
                    CraAlgorithm::Greedy, &inst, scoring, seed, PruningPolicy::TopK(1_000));
                match (dense, topk) {
                    (Ok(d), Ok(t)) => prop_assert_eq!(&d, &t, "{:?}", scoring),
                    (Err(_), Err(_)) => {}
                    (d, t) => prop_assert!(false, "{scoring:?}: {d:?} vs {t:?}"),
                }
            }
        }

        /// Small `TopK` is lossy but must stay feasible on every solver
        /// (dense fallbacks cover candidate starvation).
        #[test]
        fn small_topk_stays_feasible((inst, seed) in instance_strategy(4)) {
            for algo in CraAlgorithm::ALL {
                if let Ok(a) = run_pruned(
                    algo, &inst, Scoring::WeightedCoverage, seed, PruningPolicy::TopK(2)) {
                    prop_assert!(a.validate(&inst).is_ok(), "{:?}", algo);
                }
            }
        }

        /// JRA BBA: restricting the branch-and-bound pool to the certified
        /// candidate list never changes the optimal score (excluded
        /// reviewers contribute exactly nothing to any group), whenever the
        /// restricted pool is large enough to field a group at all.
        #[test]
        fn bba_candidate_pool_preserves_optimum(
            paper in sparse_topic_vector(5),
            pool in proptest::collection::vec(sparse_topic_vector(5), 4..10),
            delta_p in 1usize..4,
        ) {
            prop_assume!(delta_p <= pool.len());
            for scoring in Scoring::ALL {
                let journal = Instance::journal(paper.clone(), pool.clone(), delta_p)
                    .expect("valid journal instance");
                let ctx = ScoreContext::new(&journal, scoring);
                let opts = bba::BbaOptions::default();
                let dense = bba::solve_ctx(&ctx, 0, &opts).expect("feasible");

                let cands = CandidateSet::build(&ctx, None);
                prop_assert!(cands.certified());
                let mut forbidden = vec![false; pool.len()];
                for (r, f) in forbidden.iter_mut().enumerate() {
                    *f = !cands.contains(0, r);
                }
                if forbidden.iter().filter(|f| !**f).count() >= delta_p {
                    let view = ctx.jra_view_with_forbidden(0, forbidden);
                    let pruned = bba::solve_view(&view, &opts).expect("feasible");
                    prop_assert_eq!(
                        dense[0].score.to_bits(), pruned[0].score.to_bits(),
                        "{:?}: dense {} vs pruned {}", scoring, dense[0].score, pruned[0].score
                    );
                }
            }
        }

        /// The routed per-paper setup ([`bba::solve_ctx_pruned`], which the
        /// [`JraBbaSolver`] dispatches through, over
        /// [`bba::solve_view_pruned`], the routing the service's batch
        /// executor shares): under `Auto` the optimal score is bit-identical to the
        /// dense scan on every paper, including starved ones (dense
        /// fallback) and conflicted pools; under a huge `TopK` likewise
        /// (nothing truncated). The returned group must always be feasible
        /// against the view's mask.
        #[test]
        fn bba_candidate_routing(
            paper in sparse_topic_vector(5),
            pool in proptest::collection::vec(sparse_topic_vector(5), 4..10),
            delta_p in 1usize..4,
            coi in proptest::collection::vec(any::<bool>(), 10),
        ) {
            prop_assume!(delta_p < pool.len());
            for scoring in Scoring::ALL {
                let journal = Instance::journal(paper.clone(), pool.clone(), delta_p)
                    .expect("valid journal instance");
                let mut journal = journal;
                // Sparse COIs, always leaving delta_p + 1 reviewers free.
                let mut conflicted = 0usize;
                for r in 0..journal.num_reviewers() {
                    if coi[r % coi.len()] && conflicted + delta_p + 1 < journal.num_reviewers() {
                        journal.add_coi(r, 0);
                        conflicted += 1;
                    }
                }
                let ctx = ScoreContext::new(&journal, scoring);
                // top_k = 1: the Auto certificate covers the *best* score
                // only (deeper ranks may include zero-gain-padded groups
                // the candidate pool cannot express).
                let opts = bba::BbaOptions::default();
                let dense = bba::solve_ctx_pruned(&ctx, 0, &opts, PruningPolicy::Exact)
                    .expect("feasible");
                for pruning in [PruningPolicy::Auto, PruningPolicy::TopK(1_000)] {
                    let routed = bba::solve_ctx_pruned(&ctx, 0, &opts, pruning)
                        .expect("feasible");
                    prop_assert_eq!(dense.len(), routed.len(), "{:?}/{:?}", scoring, pruning);
                    for (d, r) in dense.iter().zip(&routed) {
                        prop_assert_eq!(
                            d.score.to_bits(), r.score.to_bits(),
                            "{:?}/{:?}: dense {} vs routed {}", scoring, pruning, d.score, r.score
                        );
                        for &rev in &r.group {
                            prop_assert!(!journal.is_coi(rev, 0));
                        }
                    }
                }
            }
        }
    }
}

mod io_roundtrip {
    use proptest::prelude::*;
    use wgrap_core::io;
    use wgrap_core::prelude::*;

    fn name_strategy() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_-]{0,10}".prop_map(|s| s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// write -> parse preserves every observable property of an instance.
        #[test]
        fn instance_roundtrips(
            dim in 1usize..5,
            paper_w in proptest::collection::vec(
                proptest::collection::vec(0.0..2.0f64, 4), 1..5),
            reviewer_w in proptest::collection::vec(
                proptest::collection::vec(0.0..2.0f64, 4), 2..6),
            names in proptest::collection::hash_set(name_strategy(), 12..20),
            coi_bits in proptest::collection::vec(any::<bool>(), 30),
        ) {
            let papers: Vec<TopicVector> =
                paper_w.iter().map(|w| TopicVector::new(w[..dim].to_vec())).collect();
            let reviewers: Vec<TopicVector> =
                reviewer_w.iter().map(|w| TopicVector::new(w[..dim].to_vec())).collect();
            let delta_p = 1usize;
            let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p);
            let names: Vec<String> = names.into_iter().collect();
            let (np, nr) = (papers.len(), reviewers.len());
            prop_assume!(names.len() >= np + nr);
            let mut inst = Instance::new(papers, reviewers, delta_p, delta_r).unwrap()
                .with_names(
                    names[..np].to_vec(),
                    names[np..np + nr].to_vec(),
                );
            let mut k = 0usize;
            for r in 0..nr {
                for p in 0..np {
                    if coi_bits[(k) % coi_bits.len()] {
                        inst.add_coi(r, p);
                    }
                    k += 1;
                }
            }

            let text = io::write_instance(&inst);
            let back = io::parse_instance(&text).unwrap();
            prop_assert_eq!(back.num_papers(), inst.num_papers());
            prop_assert_eq!(back.num_reviewers(), inst.num_reviewers());
            prop_assert_eq!(back.delta_p(), inst.delta_p());
            prop_assert_eq!(back.delta_r(), inst.delta_r());
            for p in 0..np {
                prop_assert_eq!(back.paper_name(p), inst.paper_name(p));
                for t in 0..dim {
                    prop_assert!((back.paper(p)[t] - inst.paper(p)[t]).abs() < 1e-12);
                }
            }
            for r in 0..nr {
                prop_assert_eq!(back.reviewer_name(r), inst.reviewer_name(r));
                for p in 0..np {
                    prop_assert_eq!(back.is_coi(r, p), inst.is_coi(r, p));
                }
            }
        }
    }
}
