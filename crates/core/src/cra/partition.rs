//! Stage partitioning of an assignment (paper §4.3.1).
//!
//! The approximation proof splits the optimal assignment `O` into `δp`
//! disjoint slices `O_1 … O_δp` such that every slice is a valid
//! Stage-WGRAP assignment (Eq. 6): one reviewer per paper per slice, at most
//! `⌈δr/δp⌉` papers per reviewer per slice. The paper sketches an `O(|O|²)`
//! nested-loop swap construction; we implement the split *provably* via
//! König edge coloring instead, because pairwise swaps can deadlock:
//!
//! 1. View the assignment as a bipartite multigraph papers × reviewers
//!    (paper degree exactly `δp`, reviewer degree ≤ `δr`).
//! 2. Split each reviewer into clones of degree ≤ `δp` (so a reviewer has at
//!    most `⌈δr/δp⌉` clones).
//! 3. König: a bipartite multigraph of maximum degree `δp` is
//!    `δp`-edge-colorable; each color class then assigns exactly one
//!    reviewer per paper and at most `⌈δr/δp⌉` papers per original reviewer
//!    — precisely Eq. 6.
//!
//! Tests use this to certify that the split of Lemma 3 exists for the
//! outputs of every algorithm in this crate.

use crate::assignment::Assignment;
use crate::error::{Error, Result};
use crate::problem::Instance;

/// Split a complete assignment into `δp` stage slices satisfying Eq. 6.
///
/// Returns `slices[s][p] = reviewer of paper p in stage s`.
pub fn split_into_stages(inst: &Instance, a: &Assignment) -> Result<Vec<Vec<usize>>> {
    a.validate(inst)?;
    let num_p = inst.num_papers();
    let delta_p = inst.delta_p();
    let cap = inst.delta_r().div_ceil(delta_p);
    if num_p == 0 {
        return Ok(vec![Vec::new(); delta_p]);
    }

    // Build edges and reviewer clones. Edge i of reviewer r goes to clone
    // r_(i / δp), keeping clone degrees ≤ δp.
    struct Edge {
        paper: usize,
        clone: usize,
        reviewer: usize,
    }
    let mut reviewer_edge_count = vec![0usize; inst.num_reviewers()];
    let mut clone_of: Vec<Vec<usize>> = vec![Vec::new(); inst.num_reviewers()];
    let mut num_clones = 0usize;
    let mut edges = Vec::with_capacity(num_p * delta_p);
    for p in 0..num_p {
        for &r in a.group(p) {
            let i = reviewer_edge_count[r];
            reviewer_edge_count[r] += 1;
            let chunk = i / delta_p;
            if chunk == clone_of[r].len() {
                clone_of[r].push(num_clones);
                num_clones += 1;
            }
            edges.push(Edge { paper: p, clone: clone_of[r][chunk], reviewer: r });
        }
    }

    // König coloring with Kempe-chain flips. Node ids: papers then clones.
    let num_nodes = num_p + num_clones;
    // color_at[node][c] = edge id carrying color c at `node`, or NONE.
    const NONE: u32 = u32::MAX;
    let mut color_at = vec![NONE; num_nodes * delta_p];
    let mut edge_color = vec![usize::MAX; edges.len()];
    let node_of = |e: &Edge, side: bool| if side { e.paper } else { num_p + e.clone };

    for eid in 0..edges.len() {
        let u = node_of(&edges[eid], true);
        let v = node_of(&edges[eid], false);
        let free = |node: usize, color_at: &[u32]| -> usize {
            (0..delta_p)
                .find(|&c| color_at[node * delta_p + c] == NONE)
                .expect("degree <= delta_p guarantees a free color")
        };
        let ca = free(u, &color_at);
        let cb = free(v, &color_at);
        let color = if ca == cb {
            ca
        } else {
            // Flip the (ca, cb)-alternating chain starting at v; it cannot
            // reach u (an odd-length path would end in a ca-edge, which u
            // lacks), so afterwards ca is free at both endpoints. Collect
            // the chain first, then recolor in two phases so table slots
            // are not clobbered mid-walk.
            let mut chain: Vec<u32> = Vec::new();
            let mut node = v;
            let mut want = ca;
            loop {
                let next_edge = color_at[node * delta_p + want];
                if next_edge == NONE {
                    break;
                }
                chain.push(next_edge);
                let e = &edges[next_edge as usize];
                node = if node_of(e, true) == node { node_of(e, false) } else { node_of(e, true) };
                want = if want == ca { cb } else { ca };
            }
            for &ce in &chain {
                let e = &edges[ce as usize];
                let c_old = edge_color[ce as usize];
                color_at[node_of(e, true) * delta_p + c_old] = NONE;
                color_at[node_of(e, false) * delta_p + c_old] = NONE;
            }
            for &ce in &chain {
                let e = &edges[ce as usize];
                let c_new = if edge_color[ce as usize] == ca { cb } else { ca };
                edge_color[ce as usize] = c_new;
                color_at[node_of(e, true) * delta_p + c_new] = ce;
                color_at[node_of(e, false) * delta_p + c_new] = ce;
            }
            ca
        };
        edge_color[eid] = color;
        color_at[u * delta_p + color] = eid as u32;
        color_at[v * delta_p + color] = eid as u32;
    }

    let mut slices: Vec<Vec<usize>> = vec![vec![usize::MAX; num_p]; delta_p];
    for (eid, e) in edges.iter().enumerate() {
        let c = edge_color[eid];
        debug_assert!(slices[c][e.paper] == usize::MAX, "paper got two stage-{c} reviewers");
        slices[c][e.paper] = e.reviewer;
    }

    // Certify Eq. 6 before returning.
    for (s, slice) in slices.iter().enumerate() {
        if slice.contains(&usize::MAX) {
            return Err(Error::Infeasible(format!("slice {s} left a paper unassigned")));
        }
        let mut loads = vec![0usize; inst.num_reviewers()];
        for &r in slice {
            loads[r] += 1;
        }
        if loads.iter().any(|&x| x > cap) {
            return Err(Error::Infeasible(format!(
                "stage partition failed to satisfy Eq. 6 at slice {s}"
            )));
        }
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::testutil::random_instance;
    use crate::cra::CraAlgorithm;
    use crate::score::Scoring;

    fn check_partition(inst: &Instance, a: &Assignment, slices: &[Vec<usize>]) {
        let cap = inst.delta_r().div_ceil(inst.delta_p());
        assert_eq!(slices.len(), inst.delta_p());
        for p in 0..inst.num_papers() {
            // The slices repartition exactly the original group.
            let mut from_slices: Vec<usize> = slices.iter().map(|s| s[p]).collect();
            let mut original = a.group(p).to_vec();
            from_slices.sort_unstable();
            original.sort_unstable();
            assert_eq!(from_slices, original, "paper {p} group changed");
        }
        for slice in slices {
            let mut loads = vec![0usize; inst.num_reviewers()];
            for &r in slice {
                loads[r] += 1;
            }
            assert!(loads.iter().all(|&l| l <= cap), "Eq. 6 violated");
        }
    }

    #[test]
    fn partitions_every_algorithms_output() {
        for seed in 0..8 {
            let inst = random_instance(9, 6, 4, 3, seed);
            for a in [
                CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
                CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
                CraAlgorithm::StableMatching.run(&inst, Scoring::WeightedCoverage, 0).unwrap(),
            ] {
                let slices = split_into_stages(&inst, &a).unwrap();
                check_partition(&inst, &a, &slices);
            }
        }
    }

    #[test]
    fn partitions_tight_instances() {
        // delta_r exactly divisible and saturated: cap = delta_r / delta_p.
        for seed in 0..4 {
            let inst = random_instance(8, 4, 4, 2, 40 + seed); // delta_r = 4
            let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
            let slices = split_into_stages(&inst, &a).unwrap();
            check_partition(&inst, &a, &slices);
        }
    }

    #[test]
    fn partitions_larger_instances() {
        for delta_p in [2usize, 3, 5] {
            let inst = random_instance(40, 11, 5, delta_p, 90 + delta_p as u64);
            let a = CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
            let slices = split_into_stages(&inst, &a).unwrap();
            check_partition(&inst, &a, &slices);
        }
    }

    #[test]
    fn rejects_invalid_assignment() {
        let inst = random_instance(4, 4, 3, 2, 1);
        let a = Assignment::from_groups(vec![vec![0]; 4]); // wrong group size
        assert!(split_into_stages(&inst, &a).is_err());
    }

    #[test]
    fn single_stage_is_identity() {
        let inst = random_instance(5, 5, 3, 1, 2);
        let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let slices = split_into_stages(&inst, &a).unwrap();
        assert_eq!(slices.len(), 1);
        for p in 0..5 {
            assert_eq!(slices[0][p], a.group(p)[0]);
        }
    }
}
