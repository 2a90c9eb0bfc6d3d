//! Capacitated assignment over explicit edges: the one front-end of the
//! min-cost flow kernel.
//!
//! An SDGA stage is a `P × R` assignment in which many cells are forbidden
//! (conflicts, full reviewers, reviewers already in the group), and on
//! pruned (top-k) stages only `P × k` edges carry information.
//! [`SparseMatrix`] stores exactly the `(row, col, weight)` edges a problem
//! offers, in CSR layout, and [`SparseMatrix::solve_capacitated`] solves the
//! maximum-weight capacitated assignment over them by min-cost max-flow.
//!
//! Rows with no edge (or whose edges all hit exhausted columns) come back
//! unmatched; callers decide whether that is an error or a fallback trigger.

use crate::flow::{cost_shift, MinCostFlow, RangeError, COST_SCALE};
use crate::matrix::CostMatrix;
use crate::Assignment;

/// CSR edge list for a sparse assignment problem: `rows` left nodes,
/// `cols` right nodes, one weighted edge per stored entry. Absent cells are
/// forbidden pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    cols: usize,
    ptr: Vec<usize>,
    col: Vec<u32>,
    w: Vec<f64>,
}

impl SparseMatrix {
    /// Build from per-row edge lists (`(column, weight)`). Rows need not be
    /// sorted — they are sorted by column here so solve order is canonical.
    pub fn from_rows(cols: usize, rows: Vec<Vec<(u32, f64)>>) -> Self {
        let mut ptr = Vec::with_capacity(rows.len() + 1);
        let mut col = Vec::new();
        let mut w = Vec::new();
        ptr.push(0);
        for mut row in rows {
            row.sort_by_key(|&(c, _)| c);
            for (c, weight) in row {
                assert!((c as usize) < cols, "edge column {c} out of range");
                col.push(c);
                w.push(weight);
            }
            ptr.push(col.len());
        }
        Self { cols, ptr, col, w }
    }

    /// One edge per cell of `m` other than `f64::NEG_INFINITY` (forbidden),
    /// the inverse of [`SparseMatrix::to_dense`].
    pub fn from_dense(m: &CostMatrix) -> Self {
        let rows = (0..m.rows())
            .map(|i| {
                (0..m.cols())
                    .filter(|&j| m.get(i, j) != f64::NEG_INFINITY)
                    .map(|j| (j as u32, m.get(i, j)))
                    .collect()
            })
            .collect();
        Self::from_rows(m.cols(), rows)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Row `i`'s edges as `(columns ascending, weights)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.ptr[i], self.ptr[i + 1]);
        (&self.col[lo..hi], &self.w[lo..hi])
    }

    /// Bytes held by the CSR arrays (score-state memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.ptr.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<u32>()
            + self.w.len() * std::mem::size_of::<f64>()
    }

    /// Densify with `f64::NEG_INFINITY` in absent cells (the Hungarian and
    /// brute-force oracles' input).
    pub fn to_dense(&self) -> CostMatrix {
        let mut m = CostMatrix::filled(self.rows(), self.cols, f64::NEG_INFINITY);
        for i in 0..self.rows() {
            let (cs, ws) = self.row(i);
            for (&c, &weight) in cs.iter().zip(ws) {
                m.set(i, c as usize, weight);
            }
        }
        m
    }

    /// Maximum-weight capacitated assignment by min-cost max-flow over the
    /// stored edges: every row wants exactly one column, column `j` accepts
    /// at most `col_caps[j]` rows. The flow maximises the number of matched
    /// rows first, then their total weight.
    ///
    /// Edges enter the network row by row, columns ascending, and ties
    /// between equal-weight optima break by that order, so equal edge sets
    /// give equal assignments. Weight resolution is `1 / COST_SCALE`.
    /// Refuses weights outside the kernel's exact range ([`cost_shift`]).
    pub fn solve_capacitated(&self, col_caps: &[i64]) -> Result<Assignment, RangeError> {
        assert_eq!(self.cols, col_caps.len());
        let (r, c) = (self.rows(), self.cols);
        if r == 0 {
            return Ok(Assignment { row_to_col: vec![], objective: 0.0 });
        }
        let shift = cost_shift(self.w.iter().copied(), r, r)?;
        // Node ids: 0 = source, 1..=r rows, r+1..=r+c columns, r+c+1 sink.
        let s = 0;
        let t = r + c + 1;
        let mut net = MinCostFlow::new(r + c + 2);
        for i in 0..r {
            net.add_edge(s, 1 + i, 1, 0);
        }
        let mut pair_edges = vec![usize::MAX; self.nnz()];
        for i in 0..r {
            let (cs, ws) = self.row(i);
            for (k, (&j, &weight)) in cs.iter().zip(ws).enumerate() {
                let cost = ((shift - weight) * COST_SCALE).round() as i64;
                pair_edges[self.ptr[i] + k] = net.add_edge(1 + i, 1 + r + j as usize, 1, cost);
            }
        }
        for j in 0..c {
            if col_caps[j] > 0 {
                net.add_edge(1 + r + j, t, col_caps[j], 0);
            }
        }
        net.min_cost_flow(s, t, r as i64);

        let mut row_to_col = vec![None; r];
        let mut objective = 0.0;
        for i in 0..r {
            let (cs, ws) = self.row(i);
            for (k, (&j, &weight)) in cs.iter().zip(ws).enumerate() {
                let eid = pair_edges[self.ptr[i] + k];
                if net.flow_on(eid) > 0 {
                    row_to_col[i] = Some(j as usize);
                    objective += weight;
                    break;
                }
            }
        }
        Ok(Assignment { row_to_col, objective })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::hungarian_max;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `m` with column `j` repeated `caps[j]` times, and the column each
    /// slot stands for: the capacitated problem as a one-to-one one.
    fn slot_expand(m: &CostMatrix, caps: &[i64]) -> (CostMatrix, Vec<usize>) {
        let owner: Vec<usize> =
            (0..m.cols()).flat_map(|j| std::iter::repeat_n(j, caps[j] as usize)).collect();
        (CostMatrix::from_fn(m.rows(), owner.len(), |i, s| m.get(i, owner[s])), owner)
    }

    #[test]
    fn sparse_pattern_matches_dense_with_forbidden_cells() {
        // Column capacities 1–2: the flow uses only stored edges, keeps every
        // capacity, and places every row at the Hungarian optimum of the
        // slot-expanded densified matrix whenever that optimum places them.
        let mut next = rng(0xBEEF);
        let mut compared = 0;
        for trial in 0..30 {
            let (r, c) = (5, 7);
            let m = CostMatrix::from_fn(r, c, |_, _| {
                if next() < 0.5 {
                    f64::NEG_INFINITY
                } else {
                    next() * 2.0
                }
            });
            let caps: Vec<i64> = (0..c).map(|_| 1 + (next() * 2.0) as i64).collect();
            let sparse = SparseMatrix::from_dense(&m);
            let flow = sparse.solve_capacitated(&caps).unwrap();
            let mut load = vec![0i64; c];
            for (i, j) in flow.pairs() {
                assert!(m.get(i, j).is_finite(), "trial {trial}: absent cell ({i}, {j}) used");
                load[j] += 1;
            }
            assert!(load.iter().zip(&caps).all(|(l, k)| l <= k), "trial {trial}: {load:?}");
            let (expanded, owner) = slot_expand(&sparse.to_dense(), &caps);
            if let Some(hung) = hungarian_max(&expanded) {
                assert!(hung.pairs().all(|(i, s)| m.get(i, owner[s]).is_finite()));
                assert_eq!(flow.matched(), r, "trial {trial}");
                assert!((flow.objective - hung.objective).abs() < 1e-9, "trial {trial}");
                compared += 1;
            }
        }
        assert!(compared >= 10, "only {compared} feasible trials");
    }

    #[test]
    fn hungarian_backend_agrees_on_objective() {
        // Unit capacities: Hungarian over the densified matrix (absent cells
        // forbidden) is the oracle for the flow's objective.
        let mut next = rng(0xABCD);
        let mut compared = 0;
        for _ in 0..10 {
            let (r, c) = (4, 6);
            let m = CostMatrix::from_fn(r, c, |_, _| {
                if next() < 0.4 {
                    f64::NEG_INFINITY
                } else {
                    next() * 5.0
                }
            });
            let sparse = SparseMatrix::from_dense(&m);
            let flow = sparse.solve_capacitated(&[1; 6]).unwrap();
            if let Some(hung) = hungarian_max(&sparse.to_dense()) {
                assert_eq!(flow.matched(), r);
                assert!((flow.objective - hung.objective).abs() < 1e-6);
                compared += 1;
            }
        }
        assert!(compared >= 5, "only {compared} feasible trials");
    }

    #[test]
    fn rows_without_edges_stay_unmatched() {
        let sparse = SparseMatrix::from_rows(3, vec![vec![(1, 2.0)], vec![]]);
        let sol = sparse.solve_capacitated(&[1; 3]).unwrap();
        assert_eq!(sol.row_to_col, vec![Some(1), None]);
        assert_eq!(sol.matched(), 1);
    }

    #[test]
    fn capacity_exhaustion_prefers_heavier_rows() {
        let sparse =
            SparseMatrix::from_rows(1, vec![vec![(0, 1.0)], vec![(0, 3.0)], vec![(0, 2.0)]]);
        let sol = sparse.solve_capacitated(&[2]).unwrap();
        assert_eq!(sol.matched(), 2);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_weights_are_refused() {
        let huge = SparseMatrix::from_rows(2, vec![vec![(0, 5e299)], vec![(1, 1e-300)]]);
        assert!(matches!(huge.solve_capacitated(&[1, 1]), Err(RangeError::Span { .. })));
        let nan = SparseMatrix::from_rows(2, vec![vec![(0, f64::NAN)], vec![(1, 1.0)]]);
        assert!(matches!(nan.solve_capacitated(&[1, 1]), Err(RangeError::NonFinite(_))));
    }

    #[test]
    fn to_dense_roundtrip() {
        let sparse = SparseMatrix::from_rows(4, vec![vec![(2, 1.5), (0, 0.5)], vec![(3, 2.5)]]);
        assert_eq!(sparse.nnz(), 3);
        let d = sparse.to_dense();
        assert_eq!(d.get(0, 0), 0.5);
        assert_eq!(d.get(0, 2), 1.5);
        assert_eq!(d.get(1, 3), 2.5);
        assert_eq!(d.get(0, 1), f64::NEG_INFINITY);
        assert_eq!(SparseMatrix::from_dense(&d), sparse);
        assert!(sparse.memory_bytes() > 0);
        // Unsorted input rows come back sorted by column.
        let (cs, _) = sparse.row(0);
        assert_eq!(cs, &[0, 2]);
    }
}
