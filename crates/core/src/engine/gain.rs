//! [`GainTable`]: every paper's running-group state in flat arrays, plus the
//! [`GainProvider`] abstraction that lets one algorithm skeleton run on
//! either the engine or the legacy reference path.

use super::context::{JraView, PairMatrix, ScoreContext};
use crate::problem::Instance;
use crate::score::{RunningGroup, Scoring};

/// The marginal-gain surface an assignment algorithm consumes.
///
/// Two implementations exist: [`GainTable`] (the engine: flat
/// structure-of-arrays storage, CSR sparse kernels) and [`LegacyGains`] (the
/// seed's boxed [`RunningGroup`] path, kept as the reference). Algorithm
/// skeletons are generic over this trait; the equivalence proptests run both
/// and assert bit-identical assignments.
///
/// `version(p)` increments whenever paper `p`'s group state changes; cached
/// gains stamped with an old version are stale. By submodularity (Lemma 4) a
/// stale gain only over-estimates, which is what makes CELF-style lazy
/// re-evaluation ([`super::celf::CelfQueue`]) sound.
pub trait GainProvider {
    /// Number of papers.
    fn num_papers(&self) -> usize;
    /// Number of reviewers.
    fn num_reviewers(&self) -> usize;
    /// The pair score `c(r, p)` (group-independent).
    fn pair(&self, r: usize, p: usize) -> f64;
    /// Current group score `c(g_p, p)`.
    fn score(&self, p: usize) -> f64;
    /// Marginal gain `c(g_p ∪ {r}, p) − c(g_p, p)`.
    fn gain(&self, p: usize, r: usize) -> f64;
    /// Write `gain(p, r)` for every reviewer into `out`.
    fn gains_into(&self, p: usize, out: &mut [f64]) {
        for r in 0..self.num_reviewers() {
            out[r] = self.gain(p, r);
        }
    }
    /// Write `gain(p, r)` for exactly the listed reviewers into `out`
    /// (`out[i]` for `reviewers[i]`; `out.len() == reviewers.len()`). The
    /// candidate-row kernel behind every
    /// [`CandidateSet`](super::CandidateSet)-pruned solver — values are
    /// bit-identical to [`GainProvider::gain`] per entry.
    fn gains_for(&self, p: usize, reviewers: &[u32], out: &mut [f64]) {
        debug_assert_eq!(reviewers.len(), out.len());
        for (&r, slot) in reviewers.iter().zip(out) {
            *slot = self.gain(p, r as usize);
        }
    }
    /// Add reviewer `r` to paper `p`'s group.
    fn add(&mut self, p: usize, r: usize);
    /// Reset paper `p`'s group to exactly `group`, added in order.
    fn rebuild(&mut self, p: usize, group: &[usize]);
    /// Monotone change counter for paper `p`'s group state.
    fn version(&self, p: usize) -> u32;
    /// The full `P × R` pair-score matrix.
    fn pair_matrix(&self) -> PairMatrix;
}

/// Engine gain state: all running groups in two flat arrays.
///
/// Arithmetic mirrors [`RunningGroup`] exactly — ascending-topic iteration,
/// `raw * inv_total` scores — and the CSR sparse kernels only run for
/// scorings where skipping zero paper weights is bit-exact, so every number
/// out of this table equals the legacy path's bit for bit.
#[derive(Debug, Clone)]
pub struct GainTable<'c, 'a> {
    ctx: &'c ScoreContext<'a>,
    /// `P × T` per-paper group expertise maxima.
    gmax: Vec<f64>,
    /// Per-paper raw (unnormalised) scores.
    raw: Vec<f64>,
    versions: Vec<u32>,
}

impl<'c, 'a> GainTable<'c, 'a> {
    /// Empty groups for every paper of `ctx`.
    pub fn new(ctx: &'c ScoreContext<'a>) -> Self {
        let (p, t) = (ctx.num_papers(), ctx.num_topics());
        Self { ctx, gmax: vec![0.0; p * t], raw: vec![0.0; p], versions: vec![0; p] }
    }

    /// The context this table scores against.
    pub fn ctx(&self) -> &'c ScoreContext<'a> {
        self.ctx
    }

    #[inline]
    fn gmax_row(&self, p: usize) -> &[f64] {
        let t = self.ctx.num_topics();
        &self.gmax[p * t..(p + 1) * t]
    }
}

impl GainProvider for GainTable<'_, '_> {
    fn num_papers(&self) -> usize {
        self.ctx.num_papers()
    }

    fn num_reviewers(&self) -> usize {
        self.ctx.num_reviewers()
    }

    #[inline]
    fn pair(&self, r: usize, p: usize) -> f64 {
        self.ctx.pair_score(r, p)
    }

    #[inline]
    fn score(&self, p: usize) -> f64 {
        self.raw[p] * self.ctx.paper_inv_total(p)
    }

    #[inline]
    fn gain(&self, p: usize, r: usize) -> f64 {
        let scoring = self.ctx.scoring();
        let row = self.ctx.reviewer_row(r);
        let gmax = self.gmax_row(p);
        let mut delta = 0.0;
        if self.ctx.sparse() {
            let (idx, val) = self.ctx.paper_sparse(p);
            for (&t, &w) in idx.iter().zip(val) {
                let (g, e) = (gmax[t as usize], row[t as usize]);
                if e > g {
                    delta += scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                }
            }
        } else {
            for ((&g, &e), &w) in gmax.iter().zip(row).zip(self.ctx.paper_row(p)) {
                if e > g {
                    delta += scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                }
            }
        }
        delta * self.ctx.paper_inv_total(p)
    }

    /// Row kernel: same per-cell arithmetic as [`GainTable::gain`] (and thus
    /// bit-identical), with the paper's CSR row and `gmax` hoisted out of
    /// the reviewer loop.
    fn gains_into(&self, p: usize, out: &mut [f64]) {
        let scoring = self.ctx.scoring();
        let gmax = self.gmax_row(p);
        let inv_total = self.ctx.paper_inv_total(p);
        if self.ctx.sparse() {
            let (idx, val) = self.ctx.paper_sparse(p);
            for (r, slot) in out.iter_mut().enumerate() {
                let row = self.ctx.reviewer_row(r);
                let mut delta = 0.0;
                for (&t, &w) in idx.iter().zip(val) {
                    let (g, e) = (gmax[t as usize], row[t as usize]);
                    if e > g {
                        delta +=
                            scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                    }
                }
                *slot = delta * inv_total;
            }
        } else {
            let paper = self.ctx.paper_row(p);
            for (r, slot) in out.iter_mut().enumerate() {
                let row = self.ctx.reviewer_row(r);
                let mut delta = 0.0;
                for ((&g, &e), &w) in gmax.iter().zip(row).zip(paper) {
                    if e > g {
                        delta +=
                            scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                    }
                }
                *slot = delta * inv_total;
            }
        }
    }

    /// Candidate-row kernel: the [`GainTable::gains_into`] arithmetic with
    /// the reviewer loop confined to the listed candidates (bit-identical
    /// per entry, CSR row and `gmax` hoisted).
    fn gains_for(&self, p: usize, reviewers: &[u32], out: &mut [f64]) {
        debug_assert_eq!(reviewers.len(), out.len());
        let scoring = self.ctx.scoring();
        let gmax = self.gmax_row(p);
        let inv_total = self.ctx.paper_inv_total(p);
        if self.ctx.sparse() {
            let (idx, val) = self.ctx.paper_sparse(p);
            for (&r, slot) in reviewers.iter().zip(out) {
                let row = self.ctx.reviewer_row(r as usize);
                let mut delta = 0.0;
                for (&t, &w) in idx.iter().zip(val) {
                    let (g, e) = (gmax[t as usize], row[t as usize]);
                    if e > g {
                        delta +=
                            scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                    }
                }
                *slot = delta * inv_total;
            }
        } else {
            let paper = self.ctx.paper_row(p);
            for (&r, slot) in reviewers.iter().zip(out) {
                let row = self.ctx.reviewer_row(r as usize);
                let mut delta = 0.0;
                for ((&g, &e), &w) in gmax.iter().zip(row).zip(paper) {
                    if e > g {
                        delta +=
                            scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                    }
                }
                *slot = delta * inv_total;
            }
        }
    }

    fn add(&mut self, p: usize, r: usize) {
        let scoring = self.ctx.scoring();
        let t_dim = self.ctx.num_topics();
        let row = self.ctx.reviewer_row(r);
        let gmax = &mut self.gmax[p * t_dim..(p + 1) * t_dim];
        if self.ctx.sparse() {
            // Only the paper's non-zero topics can move `raw`; `gmax` on
            // zero-weight topics is unobservable for sparse-safe scorings,
            // so skipping its update there is behaviour-preserving.
            let (idx, val) = self.ctx.paper_sparse(p);
            for (&t, &w) in idx.iter().zip(val) {
                let (g, e) = (gmax[t as usize], row[t as usize]);
                if e > g {
                    self.raw[p] +=
                        scoring.topic_contribution(e, w) - scoring.topic_contribution(g, w);
                    gmax[t as usize] = e;
                }
            }
        } else {
            let paper = &self.ctx.paper_row(p);
            for t in 0..t_dim {
                let (g, e) = (gmax[t], row[t]);
                if e > g {
                    self.raw[p] += scoring.topic_contribution(e, paper[t])
                        - scoring.topic_contribution(g, paper[t]);
                    gmax[t] = e;
                }
            }
        }
        self.versions[p] = self.versions[p].wrapping_add(1);
    }

    fn rebuild(&mut self, p: usize, group: &[usize]) {
        let t_dim = self.ctx.num_topics();
        self.gmax[p * t_dim..(p + 1) * t_dim].fill(0.0);
        self.raw[p] = 0.0;
        for &r in group {
            self.add(p, r);
        }
        self.versions[p] = self.versions[p].wrapping_add(1);
    }

    #[inline]
    fn version(&self, p: usize) -> u32 {
        self.versions[p]
    }

    fn pair_matrix(&self) -> PairMatrix {
        // Served from the context's cache; the clone is a memcpy, not a
        // recompute.
        self.ctx.pair_matrix().clone()
    }
}

/// The reference gain provider: the seed's boxed [`RunningGroup`] per paper
/// plus direct [`Scoring::pair_score`] calls. Kept so the equivalence
/// proptests can pit the engine against the original arithmetic.
#[derive(Debug, Clone)]
pub struct LegacyGains<'a> {
    inst: &'a Instance,
    scoring: Scoring,
    groups: Vec<RunningGroup>,
    versions: Vec<u32>,
}

impl<'a> LegacyGains<'a> {
    /// Empty groups for every paper of `inst`.
    pub fn new(inst: &'a Instance, scoring: Scoring) -> Self {
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

    #[inline]
    fn pair(&self, r: usize, p: usize) -> f64 {
        self.scoring.pair_score(self.inst.reviewer(r), self.inst.paper(p))
    }

    #[inline]
    fn score(&self, p: usize) -> f64 {
        self.groups[p].score()
    }

    #[inline]
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

    #[inline]
    fn version(&self, p: usize) -> u32 {
        self.versions[p]
    }

    fn pair_matrix(&self) -> PairMatrix {
        PairMatrix::from_instance(self.inst, self.scoring)
    }
}

/// Single-paper incremental gain state over a [`JraView`] — the engine
/// replacement for cloning [`RunningGroup`]s down the BBA search stack. The
/// paper row lives in the view; each stack level only owns its `gmax`, and
/// the group expertise is readable as a slice without allocating.
///
/// Only the view's [active topics](JraView::active_topics) are tracked, so
/// [`gain`](PaperGain::gain) and [`add`](PaperGain::add) cost `O(s)` for a
/// paper with `s` non-zero topics under a sparse-safe scoring (`O(T)` under
/// reviewer coverage). The skipped topics' terms are all zeros, so every
/// number matches the dense [`RunningGroup`] arithmetic bit for bit.
#[derive(Debug, Clone)]
pub struct PaperGain {
    /// Group maxima on the active topics, in `active_topics()` order.
    gmax: Vec<f64>,
    raw: f64,
}

impl PaperGain {
    /// Empty group for the view's paper.
    pub fn new(view: &JraView<'_>) -> Self {
        Self { gmax: vec![0.0; view.active_topics().len()], raw: 0.0 }
    }

    /// Current `c(g, p)`.
    #[inline]
    pub fn score(&self, view: &JraView<'_>) -> f64 {
        self.raw * view.inv_total
    }

    /// Marginal gain of reviewer `r` — mirrors [`RunningGroup::gain`]
    /// bit for bit.
    #[inline]
    pub fn gain(&self, view: &JraView<'_>, r: usize) -> f64 {
        let row = view.row(r);
        let mut delta = 0.0;
        for (&g, &t) in self.gmax.iter().zip(view.active_topics()) {
            let (e, w) = (row[t as usize], view.paper[t as usize]);
            if e > g {
                delta +=
                    view.scoring.topic_contribution(e, w) - view.scoring.topic_contribution(g, w);
            }
        }
        delta * view.inv_total
    }

    /// Add reviewer `r` to the group — mirrors [`RunningGroup::add`].
    pub fn add(&mut self, view: &JraView<'_>, r: usize) {
        let row = view.row(r);
        for (g, &t) in self.gmax.iter_mut().zip(view.active_topics()) {
            let (e, w) = (row[t as usize], view.paper[t as usize]);
            if e > *g {
                self.raw +=
                    view.scoring.topic_contribution(e, w) - view.scoring.topic_contribution(*g, w);
                *g = e;
            }
        }
    }

    /// The group expertise (per-topic max so far) on the view's active
    /// topics, in [`JraView::active_topics`] order.
    #[inline]
    pub fn expertise(&self) -> &[f64] {
        &self.gmax
    }
}

/// `c(group, paper)` for an explicit group over a [`JraView`] — mirrors the
/// seed's [`Scoring::group_score`] arithmetic bit for bit: build the
/// per-topic group maximum first, then one dense contribution sum divided by
/// the paper total (not the incremental delta-sum, whose last bits can
/// differ).
pub fn group_score_view(view: &JraView<'_>, group: &[usize]) -> f64 {
    let mut gmax = vec![0.0f64; view.paper.len()];
    for &r in group {
        for (g, &e) in gmax.iter_mut().zip(view.row(r)) {
            *g = f64::max(*g, e);
        }
    }
    if view.total <= 0.0 {
        return 0.0;
    }
    let mut raw = 0.0;
    for (&g, &w) in gmax.iter().zip(view.paper) {
        raw += view.scoring.topic_contribution(g, w);
    }
    raw / view.total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;

    #[test]
    fn gain_table_matches_running_groups_bitwise() {
        for scoring in Scoring::ALL {
            let inst = random_instance(5, 6, 4, 2, 11);
            let ctx = ScoreContext::new(&inst, scoring);
            let mut table = GainTable::new(&ctx);
            let mut legacy = LegacyGains::new(&inst, scoring);
            // Interleave adds and compare every observable after each step.
            let script = [(0usize, 1usize), (0, 3), (2, 1), (2, 5), (4, 0), (0, 2)];
            for &(p, r) in &script {
                for q in 0..5 {
                    for c in 0..6 {
                        assert_eq!(
                            table.gain(q, c).to_bits(),
                            legacy.gain(q, c).to_bits(),
                            "{scoring:?} gain({q},{c})"
                        );
                    }
                    assert_eq!(table.score(q).to_bits(), legacy.score(q).to_bits());
                }
                table.add(p, r);
                legacy.add(p, r);
            }
            // Rebuild resets to an explicit group identically.
            table.rebuild(0, &[5, 2]);
            legacy.rebuild(0, &[5, 2]);
            assert_eq!(table.score(0).to_bits(), legacy.score(0).to_bits());
            for c in 0..6 {
                assert_eq!(table.gain(0, c).to_bits(), legacy.gain(0, c).to_bits());
            }
        }
    }

    #[test]
    fn group_score_view_matches_seed_group_score_bitwise() {
        use crate::jra::JraProblem;
        let inst = random_instance(1, 7, 5, 3, 23);
        for scoring in Scoring::ALL {
            let problem = JraProblem::from_instance(&inst, 0).with_scoring(scoring);
            let view = problem.view();
            for group in [&[0usize][..], &[2, 5], &[1, 3, 6], &[]] {
                let want =
                    scoring.group_score(group.iter().map(|&r| inst.reviewer(r)), inst.paper(0));
                let got = group_score_view(&view, group);
                assert_eq!(got.to_bits(), want.to_bits(), "{scoring:?} {group:?}");
            }
        }
    }

    #[test]
    fn paper_gain_matches_running_group_bitwise() {
        use crate::jra::JraProblem;
        let inst = random_instance(1, 8, 5, 3, 7);
        for scoring in Scoring::ALL {
            let problem = JraProblem::from_instance(&inst, 0).with_scoring(scoring);
            let view = problem.view();
            let mut pg = PaperGain::new(&view);
            let mut rg = RunningGroup::new(scoring, inst.paper(0));
            for r in [3usize, 1, 6] {
                for c in 0..8 {
                    assert_eq!(pg.gain(&view, c).to_bits(), rg.gain(inst.reviewer(c)).to_bits());
                }
                assert_eq!(pg.score(&view).to_bits(), rg.score().to_bits());
                pg.add(&view, r);
                rg.add(inst.reviewer(r));
            }
            let full = rg.expertise();
            let on_active: Vec<f64> =
                view.active_topics().iter().map(|&t| full[t as usize]).collect();
            assert_eq!(pg.expertise(), on_active.as_slice());
        }
    }
}
