//! Property tests: the Hungarian oracle is exact on anything brute force
//! can check, and the flow front-end reaches the Hungarian objective.

use proptest::prelude::*;
use wgrap_lap::brute::brute_force_max;
use wgrap_lap::{hungarian_max, Assignment, CostMatrix, SparseMatrix};

fn square_matrix(max_n: usize) -> impl Strategy<Value = CostMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.0..10.0f64, n * n)
            .prop_map(move |data| CostMatrix::from_fn(n, n, |r, c| data[r * n + c]))
    })
}

/// A capacitated problem with forbidden cells and heavily tied weights:
/// every weight is one of four quarter steps, about a third of the cells
/// are absent, and a column may have no capacity at all.
fn tied_capacitated() -> impl Strategy<Value = (SparseMatrix, Vec<i64>)> {
    (1..=6usize, 1..=5usize).prop_flat_map(|(r, c)| {
        (proptest::collection::vec((0..3u8, 0..4u8), r * c), proptest::collection::vec(0..3i64, c))
            .prop_map(move |(cells, caps)| {
                let rows = (0..r)
                    .map(|i| {
                        (0..c)
                            .filter(|&j| cells[i * c + j].0 > 0)
                            .map(|j| (j as u32, f64::from(1 + cells[i * c + j].1) * 0.25))
                            .collect()
                    })
                    .collect();
                (SparseMatrix::from_rows(c, rows), caps)
            })
    })
}

/// The Hungarian oracle on a capacitated problem: column `j` expanded into
/// `caps[j]` slot columns of the densified matrix (absent cells forbidden).
/// `None` unless its maximum-weight matching places every row.
fn slot_expanded_hungarian(m: &SparseMatrix, caps: &[i64]) -> Option<Assignment> {
    let dense = m.to_dense();
    let owner: Vec<usize> =
        (0..m.cols()).flat_map(|j| std::iter::repeat_n(j, caps[j] as usize)).collect();
    let slots = CostMatrix::from_fn(m.rows(), owner.len(), |i, s| dense.get(i, owner[s]));
    let sol = hungarian_max(&slots).filter(|sol| sol.matched() == m.rows())?;
    Some(Assignment {
        row_to_col: sol.row_to_col.into_iter().map(|c| c.map(|s| owner[s])).collect(),
        objective: sol.objective,
    })
}

proptest! {
    #[test]
    fn hungarian_matches_brute_force(m in square_matrix(6)) {
        let hung = hungarian_max(&m).expect("finite matrix is feasible");
        let (bf, _) = brute_force_max(&m).expect("finite matrix is feasible");
        prop_assert!((hung.objective - bf).abs() < 1e-9);
    }

    #[test]
    fn flow_matches_hungarian_on_unit_caps(m in square_matrix(6)) {
        let flow = SparseMatrix::from_dense(&m).solve_capacitated(&vec![1; m.cols()]).unwrap();
        let hung = hungarian_max(&m).expect("feasible");
        prop_assert!((flow.objective - hung.objective).abs() < 1e-6);
    }

    /// The flow front-end against the slot-expanded Hungarian oracle on
    /// capacitated problems with forbidden cells and heavy ties. The flow
    /// stays inside the edges and the column capacities; whenever the
    /// oracle's maximum-weight matching places every row, the flow places
    /// every row too, at the same objective.
    #[test]
    fn capacitated_flow_matches_slot_expanded_hungarian((m, caps) in tied_capacitated()) {
        let flow = m.solve_capacitated(&caps).unwrap();
        let mut used = vec![0i64; m.cols()];
        for (i, j) in flow.pairs() {
            prop_assert!(m.row(i).0.contains(&(j as u32)), "absent cell ({}, {}) used", i, j);
            used[j] += 1;
        }
        for (u, &cap) in used.iter().zip(&caps) {
            prop_assert!(*u <= cap);
        }
        if let Some(hung) = slot_expanded_hungarian(&m, &caps) {
            prop_assert_eq!(flow.matched(), m.rows());
            prop_assert!((flow.objective - hung.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn matching_is_injective(m in square_matrix(7)) {
        let sol = hungarian_max(&m).expect("feasible");
        let mut seen = vec![false; m.cols()];
        for (_, c) in sol.pairs() {
            prop_assert!(!seen[c], "column matched twice");
            seen[c] = true;
        }
    }

    #[test]
    fn forbidding_the_chosen_edges_never_improves(m in square_matrix(5)) {
        let base = hungarian_max(&m).expect("feasible");
        // Forbid the first matched edge and re-solve: objective can't rise.
        let first = base.pairs().next();
        if let Some((r, c)) = first {
            let mut degraded = m.clone();
            degraded.set(r, c, f64::NEG_INFINITY);
            if let Some(sol) = hungarian_max(&degraded) {
                prop_assert!(sol.objective <= base.objective + 1e-9);
            }
        }
    }

    #[test]
    fn capacitated_objective_matches_reported_pairs(
        m in square_matrix(5),
        cap in 1i64..3,
    ) {
        let caps = vec![cap; m.cols()];
        let sol = SparseMatrix::from_dense(&m).solve_capacitated(&caps).unwrap();
        // Reported objective equals the sum over reported pairs, and no
        // column exceeds its capacity.
        let mut total = 0.0;
        let mut used = vec![0i64; m.cols()];
        for (r, c) in sol.pairs() {
            total += m.get(r, c);
            used[c] += 1;
        }
        prop_assert!((total - sol.objective).abs() < 1e-9);
        for (u, &cap) in used.iter().zip(&caps) {
            prop_assert!(*u <= cap);
        }
    }
}
