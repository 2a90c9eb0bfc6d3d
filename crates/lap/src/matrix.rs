//! Dense row-major cost matrix: the Hungarian and brute-force oracles' input.

/// Dense row-major matrix of `f64` costs/weights.
///
/// `f64::INFINITY` marks a forbidden pair for minimisation problems;
/// `f64::NEG_INFINITY` marks a forbidden pair for maximisation problems.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// A `rows × cols` matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Self {
        Self { rows, cols, data: vec![fill; rows * cols] }
    }

    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from nested slices; panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged cost matrix");
        Self { rows: r, cols: c, data: rows.concat() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Largest finite entry, or `None` when every entry is non-finite.
    pub fn max_finite(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Smallest finite entry, or `None` when every entry is non-finite.
    pub fn min_finite(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// A new matrix `t(self[r][c])` applied elementwise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Pad to a `n × n` square matrix (n = max(rows, cols)) with `fill` in
    /// the new cells. Used to square up rectangular Hungarian inputs.
    pub fn pad_square(&self, fill: f64) -> Self {
        let n = self.rows.max(self.cols);
        let mut out = Self::filled(n, n, fill);
        for r in 0..self.rows {
            out.data[r * n..r * n + self.cols].copy_from_slice(self.row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_get() {
        let m = CostMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_fn_matches_manual() {
        let m = CostMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        CostMatrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn min_max_finite_skip_infinities() {
        let m = CostMatrix::from_rows(&[vec![f64::INFINITY, 2.0], vec![-1.0, f64::NEG_INFINITY]]);
        assert_eq!(m.max_finite(), Some(2.0));
        assert_eq!(m.min_finite(), Some(-1.0));
        let all_inf = CostMatrix::filled(2, 2, f64::INFINITY);
        assert_eq!(all_inf.max_finite(), None);
    }

    #[test]
    fn pad_square_preserves_entries() {
        let m = CostMatrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let sq = m.pad_square(0.0);
        assert_eq!(sq.rows(), 3);
        assert_eq!(sq.cols(), 3);
        assert_eq!(sq.get(0, 2), 3.0);
        assert_eq!(sq.get(2, 2), 0.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = CostMatrix::from_rows(&[vec![1.0, -2.0]]);
        let n = m.map(|v| -v);
        assert_eq!(n.get(0, 0), -1.0);
        assert_eq!(n.get(0, 1), 2.0);
    }
}
