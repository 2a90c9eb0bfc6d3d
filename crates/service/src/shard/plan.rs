//! [`ShardPlan`]: the partition of papers into contiguous shard ranges,
//! and the split of an [`Instance`] into per-shard sub-instances.
//!
//! Contiguity is the invariant that keeps global ↔ local paper-id
//! translation a subtraction: shard `s` owns the half-open range
//! `[start(s), end(s))` of global ids, and global id `p` maps to local id
//! `p - start(s)` on its owning shard. Appending papers preserves it for
//! free: a freshly added paper takes the next global id, which is the end
//! of the **last** shard's range — so `add_paper` updates always route
//! there and the plan just grows its last bound.

use crate::{Error, Result};
use std::ops::Range;
use wgrap_core::prelude::Instance;

/// The partition of `P` papers into `N` contiguous ranges, balanced to
/// within one paper (the first `P mod N` shards take the extra one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Exclusive end of each shard's range; `ends[N-1]` is the paper count.
    ends: Vec<usize>,
}

impl ShardPlan {
    /// A balanced plan: `num_papers` split into `num_shards` contiguous
    /// ranges whose sizes differ by at most one. Shards may be empty when
    /// `num_shards > num_papers`; `num_shards` must be at least 1.
    pub fn balanced(num_papers: usize, num_shards: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::InvalidInstance("need at least one shard".into()));
        }
        let base = num_papers / num_shards;
        let extra = num_papers % num_shards;
        let mut ends = Vec::with_capacity(num_shards);
        let mut end = 0;
        for s in 0..num_shards {
            end += base + usize::from(s < extra);
            ends.push(end);
        }
        Ok(Self { ends })
    }

    /// A plan from explicit per-shard paper counts, in shard order — the
    /// router builds its plan this way, from each downstream's reported
    /// `papers` count.
    pub fn from_sizes(sizes: &[usize]) -> Result<Self> {
        if sizes.is_empty() {
            return Err(Error::InvalidInstance("need at least one shard".into()));
        }
        let mut ends = Vec::with_capacity(sizes.len());
        let mut end = 0;
        for &n in sizes {
            end += n;
            ends.push(end);
        }
        Ok(Self { ends })
    }

    /// Number of shards `N`.
    pub fn num_shards(&self) -> usize {
        self.ends.len()
    }

    /// Total number of papers across all shards.
    pub fn num_papers(&self) -> usize {
        *self.ends.last().expect("a plan has at least one shard")
    }

    /// Shard `s`'s range of global paper ids.
    pub fn range(&self, s: usize) -> Range<usize> {
        let start = if s == 0 { 0 } else { self.ends[s - 1] };
        start..self.ends[s]
    }

    /// The shard owning global paper `p`, with `p`'s local id there.
    /// `None` when `p` is out of range — callers surface the same
    /// out-of-range error the unsharded path would.
    pub fn locate(&self, p: usize) -> Option<(usize, usize)> {
        if p >= self.num_papers() {
            return None;
        }
        // First shard whose exclusive end is past p. Empty shards share an
        // end with their predecessor and can never win (they contain no id).
        let s = self.ends.partition_point(|&end| end <= p);
        Some((s, p - self.range(s).start))
    }

    /// Record `added` papers appended to the instance: they extend the
    /// **last** shard's range (global ids are assigned at the end).
    pub fn note_papers_added(&mut self, added: usize) {
        *self.ends.last_mut().expect("a plan has at least one shard") += added;
    }

    /// Split `inst` into one sub-instance per shard: the shard's paper
    /// slice, the full reviewer pool, the same `δp`/`δr`, COI pairs
    /// remapped to local paper ids, and display names materialized from
    /// the global instance (so a paper keeps its name across the split —
    /// `wgrap shard` files and router name queries stay consistent).
    pub fn split_instance(&self, inst: &Instance) -> Result<Vec<Instance>> {
        if inst.num_papers() != self.num_papers() {
            return Err(Error::InvalidInstance(format!(
                "plan covers {} papers, instance has {}",
                self.num_papers(),
                inst.num_papers()
            )));
        }
        let reviewer_names: Vec<String> =
            (0..inst.num_reviewers()).map(|r| inst.reviewer_name(r)).collect();
        let coi = inst.coi_pairs();
        (0..self.num_shards())
            .map(|s| {
                let range = self.range(s);
                let papers = inst.papers()[range.clone()].to_vec();
                let paper_names: Vec<String> = range.clone().map(|p| inst.paper_name(p)).collect();
                let mut sub = Instance::new(
                    papers,
                    inst.reviewers().to_vec(),
                    inst.delta_p(),
                    inst.delta_r(),
                )?
                .with_names(paper_names, reviewer_names.clone());
                for &(r, p) in &coi {
                    let p = p as usize;
                    if range.contains(&p) {
                        sub.add_coi(r as usize, p - range.start);
                    }
                }
                Ok(sub)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgrap_core::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    #[test]
    fn balanced_ranges_are_contiguous_and_within_one() {
        for (papers, shards) in [(10, 3), (7, 7), (5, 8), (0, 2), (50, 1)] {
            let plan = ShardPlan::balanced(papers, shards).unwrap();
            assert_eq!(plan.num_shards(), shards);
            assert_eq!(plan.num_papers(), papers);
            let mut covered = 0;
            let mut sizes = Vec::new();
            for s in 0..shards {
                let range = plan.range(s);
                assert_eq!(range.start, covered, "ranges must be contiguous");
                covered = range.end;
                sizes.push(range.len());
            }
            assert_eq!(covered, papers);
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced to within one paper: {sizes:?}");
        }
        assert!(ShardPlan::balanced(10, 0).is_err());
    }

    #[test]
    fn locate_agrees_with_ranges() {
        let plan = ShardPlan::balanced(10, 3).unwrap();
        for p in 0..10 {
            let (s, local) = plan.locate(p).unwrap();
            let range = plan.range(s);
            assert!(range.contains(&p));
            assert_eq!(local, p - range.start);
        }
        assert_eq!(plan.locate(10), None);
        // Empty shards are never an owner.
        let sparse = ShardPlan::balanced(2, 5).unwrap();
        assert_eq!(sparse.locate(0), Some((0, 0)));
        assert_eq!(sparse.locate(1), Some((1, 0)));
        assert_eq!(sparse.locate(2), None);
    }

    #[test]
    fn growth_extends_the_last_shard() {
        let mut plan = ShardPlan::balanced(6, 3).unwrap();
        plan.note_papers_added(2);
        assert_eq!(plan.num_papers(), 8);
        assert_eq!(plan.range(2), 4..8);
        assert_eq!(plan.locate(7), Some((2, 3)));
    }

    #[test]
    fn split_instance_remaps_coi_and_names() {
        let mut inst = Instance::new(
            vec![tv(&[0.5, 0.5]), tv(&[1.0, 0.0]), tv(&[0.0, 1.0])],
            vec![tv(&[0.3, 0.7]), tv(&[0.6, 0.4]), tv(&[0.9, 0.1])],
            1,
            2,
        )
        .unwrap();
        inst.add_coi(1, 2);
        let plan = ShardPlan::balanced(3, 2).unwrap();
        let subs = plan.split_instance(&inst).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].num_papers(), 2);
        assert_eq!(subs[1].num_papers(), 1);
        assert_eq!(subs[1].num_reviewers(), 3);
        // Global paper 2 is shard 1's local paper 0; its COI came along.
        assert!(subs[1].is_coi(1, 0));
        assert!(!subs[0].is_coi(1, 0));
        // Names are materialized from the global instance.
        assert_eq!(subs[1].paper_name(0), "paper-2");
        assert_eq!(subs[0].reviewer_name(2), "reviewer-2");
    }
}
