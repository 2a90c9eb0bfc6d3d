//! The cross-shard capacity-reconciliation pass the router's `assign`
//! needs, because per-shard CRA solves only see their own slice of each
//! reviewer's load.

use crate::{Error, Result};

/// Rebalance reviewer load after per-shard CRA solves: each shard
/// enforced `δr` against its own papers only, so a reviewer popular on
/// several shards can exceed `δr` globally. The pass walks overloaded
/// reviewers in ascending id order and, for each, strips assignments from
/// their highest-numbered papers first, asking `replace` for the best
/// substitute reviewer — a `δp = 1` JRA solve on the paper's owning shard
/// with the paper's current group and every at-capacity reviewer
/// excluded, so the substitute is non-conflicted, distinct, and has spare
/// capacity by construction.
///
/// `groups[p]` is global paper `p`'s reviewer group (global reviewer
/// ids); it is patched in place. Returns the number of swaps performed.
/// Deterministic given a deterministic `replace`. When a paper has no
/// eligible substitute (its group plus the at-capacity reviewers plus its
/// COIs cover the pool — common on exactly-at-capacity instances), the
/// pass falls through to the next paper holding the overloaded reviewer,
/// and only fails with the oracle's error (typically `Infeasible`) once
/// every such paper is stuck.
pub fn reconcile_capacity(
    groups: &mut [Vec<usize>],
    num_reviewers: usize,
    delta_r: usize,
    mut replace: impl FnMut(usize, &[u32]) -> Result<usize>,
) -> Result<u64> {
    let mut loads = vec![0usize; num_reviewers];
    for group in groups.iter() {
        for &r in group {
            if r >= num_reviewers {
                return Err(Error::InvalidInstance(format!(
                    "assignment references unknown reviewer {r} (R = {num_reviewers})"
                )));
            }
            loads[r] += 1;
        }
    }
    let mut swaps = 0u64;
    for r in 0..num_reviewers {
        while loads[r] > delta_r {
            // Papers still assigned to r, newest first — a deterministic
            // order that needs no score state. Try each until one yields a
            // substitute; excluding every at-capacity reviewer guarantees
            // the swap never creates a new overload.
            let mut outcome: Result<(usize, usize)> =
                Err(Error::Infeasible(format!("an overloaded reviewer {r} appears in no group")));
            for p in (0..groups.len()).rev().filter(|&p| groups[p].contains(&r)) {
                let mut exclude: Vec<u32> = groups[p].iter().map(|&x| x as u32).collect();
                exclude
                    .extend((0..num_reviewers).filter(|&x| loads[x] >= delta_r).map(|x| x as u32));
                exclude.sort_unstable();
                exclude.dedup();
                match replace(p, &exclude) {
                    Ok(substitute) => {
                        outcome = Ok((p, substitute));
                        break;
                    }
                    Err(e) => outcome = Err(e),
                }
            }
            let (p, substitute) = outcome?;
            let group = &mut groups[p];
            group.retain(|&x| x != r);
            group.push(substitute);
            group.sort_unstable();
            loads[r] -= 1;
            loads[substitute] += 1;
            swaps += 1;
        }
    }
    Ok(swaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_moves_overload_to_spare_capacity() {
        // Reviewer 0 is on every paper; delta_r = 1. The oracle hands out
        // the lowest non-excluded reviewer.
        let mut groups = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        let swaps = reconcile_capacity(&mut groups, 6, 1, |_p, exclude| {
            (0..6usize)
                .find(|&x| !exclude.contains(&(x as u32)))
                .ok_or_else(|| Error::Infeasible("no substitute".into()))
        })
        .unwrap();
        assert_eq!(swaps, 2);
        let mut loads = vec![0usize; 6];
        for g in &groups {
            assert_eq!(g.len(), 2);
            for &r in g {
                loads[r] += 1;
            }
        }
        assert!(loads.iter().all(|&l| l <= 1), "loads {loads:?}");
        // Highest-numbered papers were stripped first, so paper 0 kept
        // reviewer 0.
        assert!(groups[0].contains(&0));
        assert!(!groups[2].contains(&0));
    }

    #[test]
    fn reconcile_noop_when_within_capacity() {
        let mut groups = vec![vec![0, 1], vec![2, 3]];
        let before = groups.clone();
        let swaps =
            reconcile_capacity(&mut groups, 4, 1, |_p, _ex| panic!("oracle must not be consulted"))
                .unwrap();
        assert_eq!(swaps, 0);
        assert_eq!(groups, before);
    }

    #[test]
    fn reconcile_propagates_oracle_failure() {
        let mut groups = vec![vec![0], vec![0]];
        let err = reconcile_capacity(&mut groups, 1, 1, |_p, _ex| {
            Err(Error::Infeasible("everyone excluded".into()))
        });
        assert!(matches!(err, Err(Error::Infeasible(_))));
    }
}
