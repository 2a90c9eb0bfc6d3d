//! WGRAP problem instances (paper §2.2, Definition 3).
//!
//! An instance bundles the paper and reviewer topic vectors with the two
//! workload constraints — group size `δp` (each paper gets exactly `δp`
//! reviewers) and reviewer workload `δr` (each reviewer takes at most `δr`
//! papers) — plus an optional set of conflict-of-interest pairs (§4.3).

use crate::error::{Error, Result};
use crate::topic::TopicVector;
use std::collections::HashSet;

/// A WGRAP instance: `P` papers, `R` reviewers, constraints, COIs.
#[derive(Debug, Clone)]
pub struct Instance {
    papers: Vec<TopicVector>,
    reviewers: Vec<TopicVector>,
    delta_p: usize,
    delta_r: usize,
    coi: HashSet<(u32, u32)>,
    paper_names: Option<Vec<String>>,
    reviewer_names: Option<Vec<String>>,
}

impl Instance {
    /// Build and validate an instance. Checks:
    ///
    /// * consistent topic dimension across all vectors,
    /// * `1 ≤ δp ≤ R`, `δr ≥ 1`,
    /// * capacity arithmetic `R·δr ≥ P·δp` (the paper's standing
    ///   assumption that there are enough reviewers).
    pub fn new(
        papers: Vec<TopicVector>,
        reviewers: Vec<TopicVector>,
        delta_p: usize,
        delta_r: usize,
    ) -> Result<Self> {
        let dim = reviewers.first().or(papers.first()).map(TopicVector::dim).unwrap_or(0);
        if papers.iter().chain(&reviewers).any(|v| v.dim() != dim) {
            return Err(Error::InvalidInstance(
                "all topic vectors must share one dimension".into(),
            ));
        }
        if reviewers.is_empty() {
            return Err(Error::InvalidInstance("no reviewers".into()));
        }
        if delta_p == 0 || delta_p > reviewers.len() {
            return Err(Error::InvalidInstance(format!(
                "need 1 <= delta_p <= R, got delta_p={} R={}",
                delta_p,
                reviewers.len()
            )));
        }
        if delta_r == 0 {
            return Err(Error::InvalidInstance("delta_r must be >= 1".into()));
        }
        // Saturating: a decoded `delta_r` can be any `u64`.
        let (capacity, demand) =
            (reviewers.len().saturating_mul(delta_r), papers.len().saturating_mul(delta_p));
        if capacity < demand {
            return Err(Error::InvalidInstance(format!(
                "capacity shortfall: R*delta_r = {capacity} < P*delta_p = {demand}"
            )));
        }
        Ok(Self {
            papers,
            reviewers,
            delta_p,
            delta_r,
            coi: HashSet::new(),
            paper_names: None,
            reviewer_names: None,
        })
    }

    /// Single-paper instance for Journal Reviewer Assignment (Definition 6);
    /// the reviewer workload is irrelevant and set to 1.
    pub fn journal(
        paper: TopicVector,
        reviewers: Vec<TopicVector>,
        delta_p: usize,
    ) -> Result<Self> {
        Self::new(vec![paper], reviewers, delta_p, 1)
    }

    /// The minimum workload that keeps the instance feasible,
    /// `δr = ⌈P·δp / R⌉` — the setting used throughout §5.2 ("the program
    /// chair would like to minimise the workload of each reviewer").
    pub fn minimal_delta_r(num_papers: usize, num_reviewers: usize, delta_p: usize) -> usize {
        (num_papers * delta_p).div_ceil(num_reviewers).max(1)
    }

    /// Declare `(reviewer, paper)` a conflict of interest.
    pub fn add_coi(&mut self, reviewer: usize, paper: usize) {
        assert!(reviewer < self.reviewers.len() && paper < self.papers.len());
        self.coi.insert((reviewer as u32, paper as u32));
    }

    /// Is `(reviewer, paper)` conflicted?
    #[inline]
    pub fn is_coi(&self, reviewer: usize, paper: usize) -> bool {
        !self.coi.is_empty() && self.coi.contains(&(reviewer as u32, paper as u32))
    }

    /// Every declared COI as `(reviewer, paper)` pairs, sorted — the
    /// canonical enumeration the durable-store checkpoint serializes
    /// (iteration order of the backing set is not deterministic).
    pub fn coi_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.coi.iter().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// The explicit paper display names, if any were attached. `None` means
    /// the `paper-{p}` defaults are synthesized on demand — checkpoints
    /// preserve the distinction so a recovered instance round-trips exactly.
    pub fn paper_names(&self) -> Option<&[String]> {
        self.paper_names.as_deref()
    }

    /// The explicit reviewer display names, if any were attached (see
    /// [`Instance::paper_names`]).
    pub fn reviewer_names(&self) -> Option<&[String]> {
        self.reviewer_names.as_deref()
    }

    /// Attach display names (used by case-study reporting).
    pub fn with_names(mut self, paper_names: Vec<String>, reviewer_names: Vec<String>) -> Self {
        assert_eq!(paper_names.len(), self.papers.len());
        assert_eq!(reviewer_names.len(), self.reviewers.len());
        self.paper_names = Some(paper_names);
        self.reviewer_names = Some(reviewer_names);
        self
    }

    /// Number of papers `P`.
    pub fn num_papers(&self) -> usize {
        self.papers.len()
    }

    /// Number of reviewers `R`.
    pub fn num_reviewers(&self) -> usize {
        self.reviewers.len()
    }

    /// Topic dimension `T`.
    pub fn num_topics(&self) -> usize {
        self.reviewers.first().map(TopicVector::dim).unwrap_or(0)
    }

    /// Group size constraint `δp`.
    pub fn delta_p(&self) -> usize {
        self.delta_p
    }

    /// Reviewer workload `δr`.
    pub fn delta_r(&self) -> usize {
        self.delta_r
    }

    /// Paper vectors.
    pub fn papers(&self) -> &[TopicVector] {
        &self.papers
    }

    /// Reviewer vectors.
    pub fn reviewers(&self) -> &[TopicVector] {
        &self.reviewers
    }

    /// Paper `p`'s vector.
    pub fn paper(&self, p: usize) -> &TopicVector {
        &self.papers[p]
    }

    /// Reviewer `r`'s vector.
    pub fn reviewer(&self, r: usize) -> &TopicVector {
        &self.reviewers[r]
    }

    /// Display name of paper `p`.
    pub fn paper_name(&self, p: usize) -> String {
        self.paper_names.as_ref().map(|n| n[p].clone()).unwrap_or_else(|| format!("paper-{p}"))
    }

    /// Display name of reviewer `r`.
    pub fn reviewer_name(&self, r: usize) -> String {
        self.reviewer_names
            .as_ref()
            .map(|n| n[r].clone())
            .unwrap_or_else(|| format!("reviewer-{r}"))
    }

    /// Replace the reviewer vectors (h-index scaling, Eq. 15). The new
    /// vectors must keep the same count and dimension.
    pub fn with_reviewers(mut self, reviewers: Vec<TopicVector>) -> Result<Self> {
        if reviewers.len() != self.reviewers.len()
            || reviewers.iter().any(|v| v.dim() != self.num_topics())
        {
            return Err(Error::InvalidInstance(
                "replacement reviewers must match count and dimension".into(),
            ));
        }
        self.reviewers = reviewers;
        Ok(self)
    }

    /// Append a paper, revalidating capacity (`R·δr ≥ (P+1)·δp`). Returns
    /// the new paper's index. If the instance carries display names, `name`
    /// (or the `paper-{p}` default) is appended alongside; the name is
    /// dropped on unnamed instances unless given explicitly.
    ///
    /// This is the instance-level half of an incremental
    /// [`AddPaper`-style update](crate::engine::ScoreContext::push_paper):
    /// it mutates only the paper list, so every derived view can extend
    /// itself without rebuilding.
    pub fn push_paper(&mut self, name: Option<String>, paper: TopicVector) -> Result<usize> {
        if paper.dim() != self.num_topics() {
            return Err(Error::InvalidInstance(format!(
                "paper dimension {} != instance dimension {}",
                paper.dim(),
                self.num_topics()
            )));
        }
        let capacity = self.reviewers.len().saturating_mul(self.delta_r);
        let demand = (self.papers.len() + 1).saturating_mul(self.delta_p);
        if capacity < demand {
            return Err(Error::InvalidInstance(format!(
                "capacity shortfall after adding a paper: R*delta_r = {capacity} < (P+1)*delta_p = {demand}"
            )));
        }
        let p = self.papers.len();
        self.attach_name(false, name, p);
        self.papers.push(paper);
        Ok(p)
    }

    /// Append a reviewer (never a capacity problem — capacity only grows).
    /// Returns the new reviewer's index. Name handling as in
    /// [`Instance::push_paper`].
    pub fn push_reviewer(&mut self, name: Option<String>, reviewer: TopicVector) -> Result<usize> {
        if reviewer.dim() != self.num_topics() {
            return Err(Error::InvalidInstance(format!(
                "reviewer dimension {} != instance dimension {}",
                reviewer.dim(),
                self.num_topics()
            )));
        }
        let r = self.reviewers.len();
        self.attach_name(true, name, r);
        self.reviewers.push(reviewer);
        Ok(r)
    }

    /// Replace reviewer `r`'s expertise vector (same dimension required).
    /// Setting it to [`TopicVector::zeros`] retires the reviewer: every pair
    /// score becomes 0, so no solver will prefer them over any positive
    /// candidate.
    pub fn set_reviewer_vector(&mut self, r: usize, expertise: TopicVector) -> Result<()> {
        if r >= self.reviewers.len() {
            return Err(Error::InvalidInstance(format!(
                "reviewer {r} out of range (R = {})",
                self.reviewers.len()
            )));
        }
        if expertise.dim() != self.num_topics() {
            return Err(Error::InvalidInstance(format!(
                "reviewer dimension {} != instance dimension {}",
                expertise.dim(),
                self.num_topics()
            )));
        }
        self.reviewers[r] = expertise;
        Ok(())
    }

    /// Append a display name for the entity about to occupy index `idx`,
    /// materialising the default names first if an explicit name arrives on
    /// a so-far-unnamed side.
    fn attach_name(&mut self, reviewer_side: bool, name: Option<String>, idx: usize) {
        let default: fn(usize) -> String =
            if reviewer_side { |i| format!("reviewer-{i}") } else { |i| format!("paper-{i}") };
        let names = if reviewer_side { &mut self.reviewer_names } else { &mut self.paper_names };
        match (names.as_mut(), name) {
            (Some(ns), name) => ns.push(name.unwrap_or_else(|| default(idx))),
            (None, Some(name)) => {
                let mut ns: Vec<String> = (0..idx).map(default).collect();
                ns.push(name);
                *names = Some(ns);
            }
            (None, None) => {}
        }
    }

    /// Restrict to a different `(δp, δr)` pair, revalidating capacity.
    pub fn with_constraints(&self, delta_p: usize, delta_r: usize) -> Result<Self> {
        let mut inst = Self::new(self.papers.clone(), self.reviewers.clone(), delta_p, delta_r)?;
        inst.coi = self.coi.clone();
        inst.paper_names = self.paper_names.clone();
        inst.reviewer_names = self.reviewer_names.clone();
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    fn tiny() -> Instance {
        Instance::new(
            vec![tv(&[0.5, 0.5]), tv(&[1.0, 0.0])],
            vec![tv(&[0.3, 0.7]), tv(&[0.6, 0.4]), tv(&[0.9, 0.1])],
            2,
            2,
        )
        .unwrap()
    }

    /// Regression: a `delta_r` near `usize::MAX` (e.g. decoded from a
    /// corrupt checkpoint) overflowed the capacity products.
    #[test]
    fn huge_delta_r_does_not_overflow_capacity_checks() {
        let v = || vec![TopicVector::new(vec![1.0]); 2];
        let mut inst = Instance::new(v(), v(), 1, usize::MAX).unwrap();
        assert!(inst.push_paper(None, TopicVector::new(vec![1.0])).is_ok());
    }

    #[test]
    fn valid_instance_accepted() {
        let inst = tiny();
        assert_eq!(inst.num_papers(), 2);
        assert_eq!(inst.num_reviewers(), 3);
        assert_eq!(inst.num_topics(), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let e = Instance::new(vec![tv(&[1.0])], vec![tv(&[0.5, 0.5])], 1, 1);
        assert!(matches!(e, Err(Error::InvalidInstance(_))));
    }

    #[test]
    fn capacity_shortfall_rejected() {
        // 2 papers x delta_p 2 = 4 > 3 reviewers x delta_r 1.
        let e = Instance::new(
            vec![tv(&[1.0]), tv(&[1.0])],
            vec![tv(&[1.0]), tv(&[1.0]), tv(&[1.0])],
            2,
            1,
        );
        assert!(matches!(e, Err(Error::InvalidInstance(_))));
    }

    #[test]
    fn delta_p_bounds() {
        assert!(Instance::new(vec![tv(&[1.0])], vec![tv(&[1.0])], 2, 9).is_err());
        assert!(Instance::new(vec![tv(&[1.0])], vec![tv(&[1.0])], 0, 1).is_err());
    }

    #[test]
    fn minimal_delta_r_formula() {
        // 617 papers, 105 reviewers, delta_p = 3 -> ceil(1851/105) = 18.
        assert_eq!(Instance::minimal_delta_r(617, 105, 3), 18);
        assert_eq!(Instance::minimal_delta_r(10, 100, 3), 1);
        assert_eq!(Instance::minimal_delta_r(0, 5, 3), 1);
    }

    #[test]
    fn coi_membership() {
        let mut inst = tiny();
        assert!(!inst.is_coi(0, 1));
        inst.add_coi(0, 1);
        assert!(inst.is_coi(0, 1));
        assert!(!inst.is_coi(1, 0));
    }

    #[test]
    fn journal_constructor() {
        let inst =
            Instance::journal(tv(&[0.5, 0.5]), vec![tv(&[1.0, 0.0]), tv(&[0.0, 1.0])], 2).unwrap();
        assert_eq!(inst.num_papers(), 1);
        assert_eq!(inst.delta_p(), 2);
    }

    #[test]
    fn names_roundtrip() {
        let inst = tiny()
            .with_names(vec!["p0".into(), "p1".into()], vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(inst.paper_name(1), "p1");
        assert_eq!(inst.reviewer_name(2), "c");
        let unnamed = tiny();
        assert_eq!(unnamed.paper_name(0), "paper-0");
    }

    #[test]
    fn push_paper_validates_and_names() {
        let mut inst = tiny(); // P=2, R=3, delta_p=2, delta_r=2 -> max 3 papers
        let p = inst.push_paper(Some("p-new".into()), tv(&[0.1, 0.9])).unwrap();
        assert_eq!(p, 2);
        assert_eq!(inst.num_papers(), 3);
        // Explicit name on an unnamed instance materialises defaults.
        assert_eq!(inst.paper_name(0), "paper-0");
        assert_eq!(inst.paper_name(2), "p-new");
        // Capacity is now exhausted (3*2 = 3*2).
        assert!(inst.push_paper(None, tv(&[1.0, 0.0])).is_err());
        // Dimension mismatch rejected.
        assert!(inst.push_reviewer(None, tv(&[1.0])).is_err());
    }

    #[test]
    fn push_and_patch_reviewer() {
        let mut inst = tiny();
        let r = inst.push_reviewer(None, tv(&[0.5, 0.5])).unwrap();
        assert_eq!(r, 3);
        assert_eq!(inst.num_reviewers(), 4);
        inst.set_reviewer_vector(3, tv(&[0.0, 0.0])).unwrap();
        assert_eq!(inst.reviewer(3).total(), 0.0);
        assert!(inst.set_reviewer_vector(9, tv(&[0.5, 0.5])).is_err());
        assert!(inst.set_reviewer_vector(0, tv(&[0.5])).is_err());
    }

    #[test]
    fn with_constraints_revalidates() {
        let inst = tiny();
        assert!(inst.with_constraints(3, 1).is_err()); // 2*3 > 3*1
        let ok = inst.with_constraints(1, 1).unwrap();
        assert_eq!(ok.delta_p(), 1);
    }
}
