//! `T`-dimensional topic vectors (paper §2.1).
//!
//! Both reviewer expertise and paper content are modelled as non-negative
//! `T`-dimensional vectors. The paper normalises them to sum to 1 (footnote
//! 3) but keeps the general form; we do the same.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A non-negative `T`-dimensional topic vector.
///
/// The weights live in a shared immutable `Arc` slab: no method mutates
/// them in place, so `clone` is an O(1) refcount bump. The paged
/// snapshots in `engine::pages` rely on this — cloning an `Instance`
/// with tens of thousands of vectors costs refcounts, not megabytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicVector {
    weights: Arc<[f64]>,
}

impl TopicVector {
    /// Construct from raw weights. Panics on negative or non-finite entries.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "topic weights must be finite and non-negative"
        );
        Self { weights: weights.into() }
    }

    /// The all-zeros vector of dimension `t`.
    pub fn zeros(t: usize) -> Self {
        Self { weights: vec![0.0; t].into() }
    }

    /// A uniform vector of dimension `t` summing to 1.
    pub fn uniform(t: usize) -> Self {
        assert!(t > 0);
        Self { weights: vec![1.0 / t as f64; t].into() }
    }

    /// Construct from a sparse `(topic, weight)` list.
    pub fn from_sparse(t: usize, entries: &[(usize, f64)]) -> Self {
        let mut w = vec![0.0; t];
        for &(i, v) in entries {
            assert!(i < t, "topic index out of range");
            w[i] += v;
        }
        Self::new(w)
    }

    /// Dimension `T`.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// The raw weights.
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }

    /// Sum of all weights (`Σ_t v[t]`, the denominator of Eq. 1).
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Can scores divide by [`total`](Self::total)? Only when it is 0 (the
    /// empty vector, which scores 0) or a finite normal number: a
    /// subnormal sum overflows `1/Σ` to infinity, and an infinite sum
    /// turns every share of it into 0 or NaN.
    pub fn has_usable_total(&self) -> bool {
        let total = self.total();
        total == 0.0 || total.is_normal()
    }

    /// A copy rescaled to sum to 1 (no-op direction preserved). Returns the
    /// uniform vector when the total is zero.
    pub fn normalized(&self) -> Self {
        let total = self.total();
        if total <= 0.0 {
            return Self::uniform(self.dim().max(1));
        }
        Self { weights: self.weights.iter().map(|w| w / total).collect() }
    }

    /// Scale every weight by `factor ≥ 0` (used by the h-index scaling of
    /// Eq. 15 in Appendix C).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        Self { weights: self.weights.iter().map(|w| w * factor).collect() }
    }

    /// Indices of the `k` largest weights, descending (used by the case
    /// studies of Appendix C, which plot the 5 most related topics).
    pub fn top_topics(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.dim()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b].partial_cmp(&self.weights[a]).unwrap().then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    /// Pointwise maximum with another vector (group-vector building block,
    /// Definition 2).
    pub fn max_with(&self, other: &Self) -> Self {
        assert_eq!(self.dim(), other.dim());
        Self {
            weights: self
                .weights
                .iter()
                .zip(other.weights.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }
}

impl Index<usize> for TopicVector {
    type Output = f64;

    fn index(&self, t: usize) -> &f64 {
        &self.weights[t]
    }
}

impl fmt::Display for TopicVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:.3}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for TopicVector {
    fn from(v: Vec<f64>) -> Self {
        Self::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = TopicVector::new(vec![0.35, 0.45, 0.2]);
        assert_eq!(v.dim(), 3);
        assert_eq!(v[1], 0.45);
        assert!((v.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        TopicVector::new(vec![0.5, -0.1]);
    }

    #[test]
    fn usable_totals_are_zero_or_normal() {
        for ok in [vec![0.0, -0.0], vec![1e-300, 1e-300], vec![0.5, 0.5], vec![1e308, 0.0]] {
            assert!(TopicVector::new(ok.clone()).has_usable_total(), "{ok:?}");
        }
        for bad in [vec![5e-324, 5e-324], vec![3e-309, 0.0], vec![1e308, 1e308]] {
            assert!(!TopicVector::new(bad.clone()).has_usable_total(), "{bad:?}");
        }
    }

    #[test]
    fn normalized_sums_to_one() {
        let v = TopicVector::new(vec![2.0, 2.0]);
        let n = v.normalized();
        assert!((n.total() - 1.0).abs() < 1e-12);
        assert_eq!(n[0], 0.5);
    }

    #[test]
    fn normalized_zero_vector_is_uniform() {
        let v = TopicVector::zeros(4);
        let n = v.normalized();
        assert!((n[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sparse_construction() {
        let v = TopicVector::from_sparse(5, &[(0, 0.3), (4, 0.7)]);
        assert_eq!(v[0], 0.3);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[4], 0.7);
    }

    #[test]
    fn top_topics_descending_with_tie_break() {
        let v = TopicVector::new(vec![0.2, 0.5, 0.2, 0.1]);
        assert_eq!(v.top_topics(3), vec![1, 0, 2]);
    }

    #[test]
    fn max_with_is_pointwise() {
        let a = TopicVector::new(vec![0.1, 0.9]);
        let b = TopicVector::new(vec![0.5, 0.2]);
        let m = a.max_with(&b);
        assert_eq!(m.as_slice(), &[0.5, 0.9]);
    }

    #[test]
    fn clone_shares_the_weight_slab() {
        let a = TopicVector::new(vec![0.1, 0.9]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr(), "clone must not copy weights");
    }

    #[test]
    fn scaled_multiplies() {
        let v = TopicVector::new(vec![0.2, 0.4]).scaled(1.5);
        assert!((v[0] - 0.3).abs() < 1e-12);
        assert!((v[1] - 0.6).abs() < 1e-12);
    }
}
