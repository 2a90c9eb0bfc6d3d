//! Linear assignment substrate for the WGRAP reproduction.
//!
//! The Stage Deepening Greedy Algorithm (SDGA, paper §4.2) solves one linear
//! assignment problem per stage, and the stochastic refinement (SRA, §4.4)
//! solves one per refinement round. The paper suggests either the Hungarian
//! algorithm or a minimum-cost flow formulation. The library runs flow, and
//! through one front-end:
//!
//! * [`sparse`] — [`SparseMatrix`] holds a problem's allowed
//!   `(row, col, weight)` edges in CSR layout, and
//!   [`SparseMatrix::solve_capacitated`] solves the maximum-weight
//!   capacitated assignment over them. Column capacities carry the
//!   per-stage reviewer workload `⌈δr/δp⌉` natively. Absent cells are
//!   forbidden pairs (conflicts of interest, already-assigned reviewers).
//! * [`flow`] — the successive-shortest-paths minimum-cost maximum-flow
//!   kernel ([`MinCostFlow`], Johnson potentials) behind that front-end and
//!   the per-pair ILP baseline.
//!
//! **Exact range.** The kernel scales weights to integer costs (resolution
//! [`flow::COST_SCALE`]) so augmentations stay exact. [`flow::cost_shift`]
//! is the one range check in front of it: a non-finite weight, or a weight
//! span whose integer sums could leave `i64` at the network's size, is
//! refused with a [`RangeError`] instead of solved wrongly. The check only
//! refuses; it never changes how an in-range weight set is solved.
//!
//! The Hungarian algorithm ([`hungarian`], `O(n³)` over dense square
//! matrices) and exhaustive enumeration ([`brute`]) stay as test oracles
//! for the flow kernel, and `benches/lap.rs` times Hungarian against flow.
//! Neither serves a product path: Hungarian needs each reviewer expanded
//! into capacity-many slot columns, a dense `P × Σcaps` matrix.
// Parallel-array index loops are clearer than zipped iterators here.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod brute;
pub mod flow;
pub mod hungarian;
pub mod matrix;
pub mod sparse;

pub use flow::{MinCostFlow, RangeError};
pub use hungarian::{hungarian_max, hungarian_min, HungarianResult};
pub use matrix::CostMatrix;
pub use sparse::SparseMatrix;

/// Outcome of an assignment solve: `pairs[i] = Some(j)` means row `i`
/// (paper) was matched to column `j` (reviewer slot).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// For each row, the matched column (or `None` if unmatched).
    pub row_to_col: Vec<Option<usize>>,
    /// Total objective value of the matched pairs (sum of the original,
    /// unshifted weights).
    pub objective: f64,
}

impl Assignment {
    /// Number of matched rows.
    pub fn matched(&self) -> usize {
        self.row_to_col.iter().filter(|c| c.is_some()).count()
    }

    /// Iterate over `(row, col)` matched pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col.iter().enumerate().filter_map(|(r, c)| c.map(|c| (r, c)))
    }
}
