//! The seed's boxed-vector scoring path, kept only as a test oracle.
//!
//! Every CRA algorithm runs one generic skeleton (each module's
//! `solve_impl`) over a [`GainProvider`], a pair-score matrix or a JRA view
//! factory. The engine feeds those skeletons flat
//! [`GainTable`](crate::engine::GainTable)s and the [`ScoreContext`]'s
//! cached matrices; this module feeds them the seed's arithmetic instead:
//! one boxed [`RunningGroup`] per paper ([`LegacyGains`]), one
//! [`Scoring::pair_score`] call per matrix cell
//! ([`PairMatrix::from_instance`]) and boxed-vector JRA views.
//! `cra_algorithms_bit_identical` asserts that both paths assign the same
//! reviewers, in the same order, for every algorithm and every scoring.

use crate::assignment::Assignment;
use crate::cra::bids::{self, BidLevel, Bids};
use crate::cra::sdga;
use crate::cra::{arap_ilp, brgg, greedy, sra, stable_matching, CraAlgorithm};
use crate::engine::{par, GainProvider, JraView, PairMatrix, ScoreContext};
use crate::error::Result;
use crate::problem::Instance;
use crate::score::{RunningGroup, Scoring};
use crate::topic::TopicVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The reference gain provider: one boxed [`RunningGroup`] per paper plus
/// direct [`Scoring::pair_score`] calls.
#[derive(Debug, Clone)]
pub(crate) struct LegacyGains<'a> {
    inst: &'a Instance,
    scoring: Scoring,
    groups: Vec<RunningGroup>,
    versions: Vec<u32>,
}

impl<'a> LegacyGains<'a> {
    /// Empty groups for every paper of `inst`.
    pub(crate) fn new(inst: &'a Instance, scoring: Scoring) -> Self {
        let groups =
            (0..inst.num_papers()).map(|p| RunningGroup::new(scoring, inst.paper(p))).collect();
        Self { inst, scoring, groups, versions: vec![0; inst.num_papers()] }
    }
}

impl GainProvider for LegacyGains<'_> {
    fn num_papers(&self) -> usize {
        self.inst.num_papers()
    }

    fn num_reviewers(&self) -> usize {
        self.inst.num_reviewers()
    }

    fn pair(&self, r: usize, p: usize) -> f64 {
        self.scoring.pair_score(self.inst.reviewer(r), self.inst.paper(p))
    }

    fn score(&self, p: usize) -> f64 {
        self.groups[p].score()
    }

    fn gain(&self, p: usize, r: usize) -> f64 {
        self.groups[p].gain(self.inst.reviewer(r))
    }

    fn add(&mut self, p: usize, r: usize) {
        self.groups[p].add(self.inst.reviewer(r));
        self.versions[p] = self.versions[p].wrapping_add(1);
    }

    fn rebuild(&mut self, p: usize, group: &[usize]) {
        let mut rg = RunningGroup::new(self.scoring, self.inst.paper(p));
        for &r in group {
            rg.add(self.inst.reviewer(r));
        }
        self.groups[p] = rg;
        self.versions[p] = self.versions[p].wrapping_add(1);
    }

    fn version(&self, p: usize) -> u32 {
        self.versions[p]
    }

    fn pair_matrix(&self) -> PairMatrix {
        PairMatrix::from_instance(self.inst, self.scoring)
    }
}

impl PairMatrix {
    /// Build from the boxed vectors, one [`Scoring::pair_score`] call per
    /// cell.
    pub(crate) fn from_instance(inst: &Instance, scoring: Scoring) -> Self {
        let num_r = inst.num_reviewers();
        let rows = par::map_indexed(inst.num_papers(), |p| {
            (0..num_r).map(|r| scoring.pair_score(inst.reviewer(r), inst.paper(p))).collect()
        });
        Self::from_rows(num_r, rows)
    }
}

/// Run `algo` with its default parameters on the boxed-vector path: the
/// oracle for [`CraAlgorithm::run`].
pub(crate) fn run_legacy(
    algo: CraAlgorithm,
    inst: &Instance,
    scoring: Scoring,
    seed: u64,
) -> Result<Assignment> {
    match algo {
        CraAlgorithm::StableMatching => {
            stable_matching::solve_impl(inst, &PairMatrix::from_instance(inst, scoring))
        }
        CraAlgorithm::ArapIlp => {
            arap_ilp::solve_impl(inst, &PairMatrix::from_instance(inst, scoring))
        }
        CraAlgorithm::Brgg => brgg::solve_impl(
            inst,
            |p, forbidden| {
                let delta_p = inst.delta_p();
                JraView::from_boxed(inst.paper(p), inst.reviewers(), forbidden, delta_p, scoring)
            },
            None,
        ),
        CraAlgorithm::Greedy => {
            greedy::solve_impl(inst, &mut LegacyGains::new(inst, scoring), None)
        }
        CraAlgorithm::Sdga => sdga_legacy(inst, scoring),
        CraAlgorithm::SdgaSra => {
            let initial = sdga_legacy(inst, scoring)?;
            let opts = sra::SraOptions { seed, ..Default::default() };
            let mut gains = LegacyGains::new(inst, scoring);
            Ok(sra::refine_impl(inst, &mut gains, initial, &opts, None).assignment)
        }
    }
}

fn sdga_legacy(inst: &Instance, scoring: Scoring) -> Result<Assignment> {
    sdga::solve_impl(inst, &mut LegacyGains::new(inst, scoring), None, None)
}

/// Bid-aware SDGA on the boxed-vector path: the oracle for
/// [`bids::solve_sdga`].
fn bids_legacy(inst: &Instance, scoring: Scoring, bids: &Bids, lambda: f64) -> Result<Assignment> {
    bids::solve_sdga_impl(inst, &mut LegacyGains::new(inst, scoring), bids, lambda)
}

fn topic_vector(dim: usize) -> impl Strategy<Value = TopicVector> {
    proptest::collection::vec(0.0..1.0f64, dim).prop_map(|mut v| {
        if v.iter().sum::<f64>() <= 0.0 {
            v[0] = 1.0;
        }
        TopicVector::new(v).normalized()
    })
}

/// A sparse-ish topic vector: a dense draw with some topics zeroed, so the
/// CSR path actually skips entries.
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
        proptest::collection::vec(topic_vector(dim), 4..8),
        1usize..4,
        0u64..1_000,
        proptest::collection::vec(any::<bool>(), 48),
    )
        .prop_map(move |(papers, reviewers, delta_p, seed, coi)| {
            let delta_p = delta_p.min(reviewers.len() - 1).max(1);
            let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p);
            // Leave headroom so COIs cannot make the instance infeasible.
            let mut inst = Instance::new(papers, reviewers, delta_p, delta_r + 1).expect("valid");
            let mut k = 0usize;
            for r in 0..inst.num_reviewers() {
                for p in 0..inst.num_papers() {
                    // Sparse COIs, never more than one per paper.
                    if coi[k % coi.len()] && r == p % inst.num_reviewers() {
                        inst.add_coi(r, p);
                    }
                    k += 1;
                }
            }
            (inst, seed)
        })
}

/// One bid level per (reviewer, paper) pair, drawn from `seed`.
fn random_bids(inst: &Instance, seed: u64) -> Bids {
    const LEVELS: [BidLevel; 4] = [BidLevel::No, BidLevel::Neutral, BidLevel::Maybe, BidLevel::Yes];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bids = Bids::neutral(inst.num_reviewers(), inst.num_papers());
    for r in 0..inst.num_reviewers() {
        for p in 0..inst.num_papers() {
            bids.set(r, p, LEVELS[rng.random_range(0..LEVELS.len())]);
        }
    }
    bids
}

/// Engine and legacy agree: the same assignment, or both infeasible.
fn agree(
    inst: &Instance,
    what: &str,
    engine: Result<Assignment>,
    legacy: Result<Assignment>,
) -> std::result::Result<(), TestCaseError> {
    match (engine, legacy) {
        (Ok(e), Ok(l)) => {
            prop_assert_eq!(&e, &l, "{} diverged: engine {:?} vs legacy {:?}", what, &e, &l);
            prop_assert!(e.validate(inst).is_ok());
        }
        (Err(_), Err(_)) => {}
        (e, l) => prop_assert!(false, "{what}: engine {e:?} vs legacy {l:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All six CRA algorithms and bid-aware SDGA (λ ∈ {0, 0.5, 5}), engine
    /// vs legacy, all four scorings: identical groups, reviewer for
    /// reviewer, in order.
    #[test]
    fn cra_algorithms_bit_identical((inst, seed) in instance_strategy(5)) {
        let bids = random_bids(&inst, seed);
        for scoring in Scoring::ALL {
            for algo in CraAlgorithm::ALL {
                let engine = algo.run(&inst, scoring, seed);
                let legacy = run_legacy(algo, &inst, scoring, seed);
                agree(&inst, &format!("{algo:?}/{scoring:?}"), engine, legacy)?;
            }
            let ctx = ScoreContext::new(&inst, scoring);
            for lambda in [0.0, 0.5, 5.0] {
                let engine = bids::solve_sdga(&ctx, &bids, lambda);
                let legacy = bids_legacy(&inst, scoring, &bids, lambda);
                agree(&inst, &format!("bids λ={lambda}/{scoring:?}"), engine, legacy)?;
            }
        }
    }
}
