//! Exhaustive assignment enumeration, the test oracle for the Hungarian
//! algorithm and the flow kernel (feasible only for tiny matrices).

use crate::matrix::CostMatrix;

/// Enumerate all permutations of a square matrix and return the minimum
/// total cost together with the column permutation. `f64::INFINITY` entries
/// are forbidden; returns `None` if every permutation hits one.
pub fn brute_force_min(costs: &CostMatrix) -> Option<(f64, Vec<usize>)> {
    assert_eq!(costs.rows(), costs.cols());
    let n = costs.rows();
    assert!(n <= 9, "brute force is factorial; keep n small");
    let mut cols: Vec<usize> = (0..n).collect();
    let mut best: Option<(f64, Vec<usize>)> = None;
    permute(&mut cols, 0, &mut |perm| {
        let mut total = 0.0;
        for (r, &c) in perm.iter().enumerate() {
            let v = costs.get(r, c);
            if v == f64::INFINITY {
                return;
            }
            total += v;
        }
        if best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, perm.to_vec()));
        }
    });
    best
}

/// Exhaustive maximum-weight matching over a square matrix (see
/// [`brute_force_min`]). `f64::NEG_INFINITY` entries are forbidden.
pub fn brute_force_max(weights: &CostMatrix) -> Option<(f64, Vec<usize>)> {
    let negated = weights.map(|v| -v);
    brute_force_min(&negated).map(|(c, p)| (-c, p))
}

fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_optimal_when_diagonal_cheap() {
        let m =
            CostMatrix::from_rows(&[vec![0.0, 9.0, 9.0], vec![9.0, 0.0, 9.0], vec![9.0, 9.0, 0.0]]);
        let (cost, perm) = brute_force_min(&m).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn forbidden_everywhere_is_none() {
        let m = CostMatrix::filled(2, 2, f64::INFINITY);
        assert!(brute_force_min(&m).is_none());
    }

    #[test]
    fn max_negates_min() {
        let m = CostMatrix::from_rows(&[vec![1.0, 5.0], vec![2.0, 3.0]]);
        let (w, perm) = brute_force_max(&m).unwrap();
        assert_eq!(w, 7.0); // 5 + 2
        assert_eq!(perm, vec![1, 0]);
    }
}
