//! Hungarian algorithm (shortest augmenting path / Jonker–Volgenant flavour).
//!
//! `O(n³)` over a dense square cost matrix. The paper (§4.2) cites the
//! Hungarian algorithm [Kuhn 1956] as one of the two classic ways to solve
//! each SDGA stage; [`crate::flow`] is the other, and the one the library
//! runs. This module is the flow kernel's test oracle.

use crate::matrix::CostMatrix;
use crate::Assignment;

/// Result of a square minimisation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct HungarianResult {
    /// `row_of_col[j]` = row matched to column `j`.
    pub row_of_col: Vec<usize>,
    /// `col_of_row[i]` = column matched to row `i`.
    pub col_of_row: Vec<usize>,
    /// Total cost of the perfect matching.
    pub cost: f64,
}

/// Minimum-cost perfect matching on a square matrix.
///
/// `f64::INFINITY` entries are forbidden. Returns `None` when no perfect
/// matching avoids all forbidden entries.
pub fn hungarian_min(costs: &CostMatrix) -> Option<HungarianResult> {
    assert_eq!(costs.rows(), costs.cols(), "hungarian_min needs a square matrix");
    let n = costs.rows();
    if n == 0 {
        return Some(HungarianResult { row_of_col: vec![], col_of_row: vec![], cost: 0.0 });
    }

    // 1-indexed arrays with a virtual column 0, following the classic
    // shortest-augmenting-path formulation. `p[j]` is the row (1-indexed)
    // assigned to column j; `p[0]` holds the row currently being inserted.
    let mut u = vec![0.0f64; n + 1]; // row potentials
    let mut v = vec![0.0f64; n + 1]; // column potentials
    let mut p = vec![0usize; n + 1]; // column -> row matching
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            let row = costs.row(i0 - 1);
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = row[j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            if !delta.is_finite() {
                // Every remaining column is forbidden: no perfect matching.
                return None;
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path recorded in `way`.
        while j0 != 0 {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
        }
    }

    let mut row_of_col = vec![0usize; n];
    let mut col_of_row = vec![0usize; n];
    let mut cost = 0.0;
    for j in 1..=n {
        let i = p[j];
        row_of_col[j - 1] = i - 1;
        col_of_row[i - 1] = j - 1;
        cost += costs.get(i - 1, j - 1);
    }
    Some(HungarianResult { row_of_col, col_of_row, cost })
}

/// Maximum-weight assignment on a (possibly rectangular) weight matrix.
///
/// `f64::NEG_INFINITY` entries are forbidden. Every row is matched when
/// `cols ≥ rows` and a feasible matching exists; with `rows > cols`, the
/// surplus rows come back unmatched. Unmatched rows contribute weight `0`,
/// and a row is left unmatched rather than matched at negative weight.
///
/// Returns `None` when the forbidden pattern admits no feasible matching.
pub fn hungarian_max(weights: &CostMatrix) -> Option<Assignment> {
    let (r, c) = (weights.rows(), weights.cols());
    if r == 0 {
        return Some(Assignment { row_to_col: vec![], objective: 0.0 });
    }
    let shift = weights.max_finite().unwrap_or(0.0).max(0.0);
    let n = r.max(c);
    // Real cell:  cost = shift - w  (forbidden -> +inf).
    // Padded cell: treated as weight 0, i.e. cost = shift.
    let square = CostMatrix::from_fn(n, n, |i, j| {
        if i < r && j < c {
            let w = weights.get(i, j);
            if w == f64::NEG_INFINITY {
                f64::INFINITY
            } else {
                shift - w
            }
        } else {
            shift
        }
    });
    let sol = hungarian_min(&square)?;
    let mut row_to_col = vec![None; r];
    let mut objective = 0.0;
    for i in 0..r {
        let j = sol.col_of_row[i];
        if j < c {
            let w = weights.get(i, j);
            // A match at negative weight never beats the padded (weight-0)
            // alternative, so it is reported as unmatched.
            if w >= 0.0 {
                row_to_col[i] = Some(j);
                objective += w;
            }
        }
    }
    Some(Assignment { row_to_col, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_max, brute_force_min};

    #[test]
    fn square_min_hand_example() {
        // Small instance cross-checked against exhaustive enumeration.
        let m =
            CostMatrix::from_rows(&[vec![4.0, 1.0, 3.0], vec![2.0, 0.0, 5.0], vec![3.0, 2.0, 2.0]]);
        let sol = hungarian_min(&m).unwrap();
        let (bf_cost, _) = brute_force_min(&m).unwrap();
        assert!((sol.cost - bf_cost).abs() < 1e-12);
        // matching must be a permutation
        let mut seen = [false; 3];
        for &j in &sol.col_of_row {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn forbidden_entries_avoided() {
        let inf = f64::INFINITY;
        let m = CostMatrix::from_rows(&[vec![inf, 1.0], vec![1.0, inf]]);
        let sol = hungarian_min(&m).unwrap();
        assert_eq!(sol.col_of_row, vec![1, 0]);
        assert!((sol.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_returns_none() {
        let inf = f64::INFINITY;
        let m = CostMatrix::from_rows(&[vec![inf, inf], vec![1.0, 2.0]]);
        assert!(hungarian_min(&m).is_none());
    }

    #[test]
    fn max_rectangular_rows_lt_cols() {
        let m = CostMatrix::from_rows(&[vec![5.0, 3.0, 9.0], vec![8.0, 9.0, 1.0]]);
        let sol = hungarian_max(&m).unwrap();
        assert_eq!(sol.matched(), 2);
        assert!((sol.objective - 18.0).abs() < 1e-12); // 9 + 9
        assert_eq!(sol.row_to_col, vec![Some(2), Some(1)]);
    }

    #[test]
    fn max_more_rows_than_cols_leaves_unmatched() {
        let m = CostMatrix::from_rows(&[vec![5.0], vec![7.0], vec![6.0]]);
        let sol = hungarian_max(&m).unwrap();
        assert_eq!(sol.matched(), 1);
        assert_eq!(sol.row_to_col, vec![None, Some(0), None]);
        assert!((sol.objective - 7.0).abs() < 1e-12);
    }

    #[test]
    fn max_matches_brute_force_on_small_randoms() {
        // Deterministic pseudo-random values (no external RNG needed here).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in 1..=6 {
            for _ in 0..20 {
                let m = CostMatrix::from_fn(n, n, |_, _| next() * 10.0);
                let sol = hungarian_max(&m).unwrap();
                let (bf, _) = brute_force_max(&m).unwrap();
                assert!(
                    (sol.objective - bf).abs() < 1e-9,
                    "n={n} hungarian={} brute={}",
                    sol.objective,
                    bf
                );
            }
        }
    }

    #[test]
    fn zero_size() {
        let m = CostMatrix::zeros(0, 0);
        assert_eq!(hungarian_min(&m).unwrap().cost, 0.0);
        assert_eq!(hungarian_max(&m).unwrap().matched(), 0);
    }

    #[test]
    fn negative_weight_row_left_unmatched_when_padding_available() {
        // 1 row, 2 cols, both negative: prefer unmatched? cols >= rows means
        // the row *can* take a padded... no padding columns exist (c > r), so
        // padding adds a dummy *row*; the real row must take its best column
        // only if weight ties with padded alternative. With all-negative
        // weights the dummy row takes the good column and the real row is
        // reported unmatched.
        let m = CostMatrix::from_rows(&[vec![-5.0, -3.0]]);
        let sol = hungarian_max(&m).unwrap();
        assert_eq!(sol.matched(), 0);
        assert_eq!(sol.objective, 0.0);
    }
}
