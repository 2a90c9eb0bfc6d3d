//! Minimum-cost maximum-flow: the kernel behind every assignment the
//! library solves.
//!
//! The paper (§4.2) notes each Stage-WGRAP is a linear assignment problem
//! solvable by "Hungarian algorithm \[or\] minimum-cost flow assignment".
//! Flow is the one the library runs, because reviewers carry a per-stage
//! slot capacity `⌈δr/δp⌉` that a network takes natively: `source → paper
//! (cap 1) → reviewer (cap 1) → sink (cap slots)`, built by
//! [`SparseMatrix::solve_capacitated`](crate::SparseMatrix::solve_capacitated).
//! The per-pair ILP baseline runs the same network with paper supply `δp`.
//!
//! Costs are scaled to integers ([`COST_SCALE`]) so augmentations stay exact;
//! successive shortest paths with Johnson potentials keeps every Dijkstra run
//! on non-negative reduced costs. [`cost_shift`] is the range check that
//! keeps those integer sums inside `i64`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Fixed-point resolution for edge costs: one unit of cost is `1 / COST_SCALE`.
pub const COST_SCALE: f64 = 1e9;

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: i64,
    cost: i64,
}

/// A minimum-cost maximum-flow network over integer capacities and costs.
#[derive(Debug, Clone, Default)]
pub struct MinCostFlow {
    edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
}

impl MinCostFlow {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { edges: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Add a directed edge and its residual twin. Returns the edge id, which
    /// can later be passed to [`MinCostFlow::flow_on`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        let id = self.edges.len();
        self.adj[from].push(id as u32);
        self.edges.push(Edge { to, cap, cost });
        self.adj[to].push((id + 1) as u32);
        self.edges.push(Edge { to: from, cap: 0, cost: -cost });
        id
    }

    /// Flow currently pushed on edge `id` (residual capacity of its twin).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.edges[id ^ 1].cap
    }

    /// Send at most `limit` units from `s` to `t`, minimising total cost.
    /// Returns `(flow, cost)`. Requires all edge costs non-negative (the
    /// assignment front-end shifts costs to guarantee this).
    pub fn min_cost_flow(&mut self, s: usize, t: usize, limit: i64) -> (i64, i64) {
        let n = self.nodes();
        debug_assert!(
            self.edges.iter().enumerate().all(|(i, e)| i % 2 == 1 || e.cap == 0 || e.cost >= 0),
            "forward edges must have non-negative cost"
        );
        let mut potential = vec![0i64; n];
        let mut flow = 0i64;
        let mut cost = 0i64;
        let mut dist = vec![i64::MAX; n];
        let mut prev_edge = vec![u32::MAX; n];

        while flow < limit {
            // Dijkstra on reduced costs.
            dist.fill(i64::MAX);
            prev_edge.fill(u32::MAX);
            dist[s] = 0;
            let mut heap: BinaryHeap<std::cmp::Reverse<(i64, usize)>> = BinaryHeap::new();
            heap.push(std::cmp::Reverse((0, s)));
            while let Some(std::cmp::Reverse((d, u))) = pop_min(&mut heap) {
                if d > dist[u] {
                    continue;
                }
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap <= 0 {
                        continue;
                    }
                    let nd = d + e.cost + potential[u] - potential[e.to];
                    debug_assert!(
                        e.cost + potential[u] - potential[e.to] >= 0,
                        "negative reduced cost"
                    );
                    if nd < dist[e.to] {
                        dist[e.to] = nd;
                        prev_edge[e.to] = eid;
                        heap.push(std::cmp::Reverse((nd, e.to)));
                    }
                }
            }
            if dist[t] == i64::MAX {
                break; // t unreachable: maximum flow reached
            }
            for v in 0..n {
                if dist[v] < i64::MAX {
                    potential[v] += dist[v];
                }
            }
            // Bottleneck along the shortest path.
            let mut push = limit - flow;
            let mut v = t;
            while v != s {
                let eid = prev_edge[v] as usize;
                push = push.min(self.edges[eid].cap);
                v = self.edges[eid ^ 1].to;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let eid = prev_edge[v] as usize;
                self.edges[eid].cap -= push;
                self.edges[eid ^ 1].cap += push;
                cost += push * self.edges[eid].cost;
                v = self.edges[eid ^ 1].to;
            }
            flow += push;
        }
        (flow, cost)
    }
}

/// `heap.pop()`, kept out of line. Inlined into the relax loop of
/// [`MinCostFlow::min_cost_flow`], it made the SDGA stage solve ~10% slower
/// (600 × 100 stage, release build, 2-vCPU VM), and whether the compiler
/// inlines it otherwise turns on unrelated edits to this crate.
#[inline(never)]
fn pop_min(heap: &mut BinaryHeap<Reverse<(i64, usize)>>) -> Option<Reverse<(i64, usize)>> {
    heap.pop()
}

/// Why [`cost_shift`] refused a set of assignment weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeError {
    /// A weight is NaN or infinite.
    NonFinite(f64),
    /// The weights span more than the kernel sums exactly at this size.
    Span {
        /// `max(0, max w) − min w`.
        span: f64,
        /// The widest span [`cost_shift`] accepts for this network.
        max: f64,
    },
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RangeError::NonFinite(w) => write!(f, "weight {w} is not finite"),
            RangeError::Span { span, max } => write!(
                f,
                "weights span {span:.3e}, outside the min-cost flow kernel's exact range \
                 ({max:.3e} at this size)"
            ),
        }
    }
}

impl std::error::Error for RangeError {}

/// The range check every flow caller runs before it turns weights into
/// costs `((shift − w) · COST_SCALE).round() as i64`. Returns the `shift`,
/// `max(0, max w)`, that makes every cost non-negative.
///
/// Refuses a non-finite weight, and a span `C = (shift − min w) ·
/// COST_SCALE` that could leave `i64`: a shortest path alternates at most
/// `rows` pair edges, so Dijkstra's distances, potentials and relaxed sums
/// stay within `(4 · rows + 5) · C`, and a flow of `units` units costs at
/// most `units · C`; the check keeps their total within `2^62`. It only
/// refuses; it never changes the costs of a weight set in range.
pub fn cost_shift(
    weights: impl IntoIterator<Item = f64>,
    rows: usize,
    units: usize,
) -> Result<f64, RangeError> {
    let (mut hi, mut lo) = (0.0f64, f64::INFINITY);
    for w in weights {
        if !w.is_finite() {
            return Err(RangeError::NonFinite(w));
        }
        hi = hi.max(w);
        lo = lo.min(w);
    }
    let span = (hi - lo).max(0.0);
    let max = (1u64 << 62) as f64 / (COST_SCALE * (4 * rows + 5 + units) as f64);
    if span > max {
        return Err(RangeError::Span { span, max });
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_max;
    use crate::hungarian::hungarian_max;
    use crate::{Assignment, CostMatrix, SparseMatrix};

    /// Capacitated assignment over `m`'s cells (`NEG_INFINITY` forbidden).
    fn solve(m: &CostMatrix, caps: &[i64]) -> Assignment {
        SparseMatrix::from_dense(m).solve_capacitated(caps).unwrap()
    }

    #[test]
    fn simple_flow() {
        // s -> a -> t with two parallel routes of different cost.
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 5, 1);
        net.add_edge(0, 2, 5, 2);
        net.add_edge(1, 3, 4, 1);
        net.add_edge(2, 3, 4, 1);
        let (flow, cost) = net.min_cost_flow(0, 3, 8);
        assert_eq!(flow, 8);
        // 4 units via node 1 at cost 2 each, 4 via node 2 at cost 3 each.
        assert_eq!(cost, 4 * 2 + 4 * 3);
    }

    #[test]
    fn flow_respects_limit() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 10, 3);
        let (flow, cost) = net.min_cost_flow(0, 1, 4);
        assert_eq!(flow, 4);
        assert_eq!(cost, 12);
    }

    #[test]
    fn unit_caps_match_hungarian() {
        let mut state = 0xDEADBEEFCAFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in 1..=6 {
            for _ in 0..10 {
                let m = CostMatrix::from_fn(n, n, |_, _| next());
                let flow_sol = solve(&m, &vec![1i64; n]);
                let hung = hungarian_max(&m).unwrap();
                assert!(
                    (flow_sol.objective - hung.objective).abs() < 1e-6,
                    "flow={} hungarian={}",
                    flow_sol.objective,
                    hung.objective
                );
            }
        }
    }

    #[test]
    fn capacities_allow_column_reuse() {
        // 3 papers, 1 reviewer with capacity 3: all rows match column 0.
        let m = CostMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let sol = solve(&m, &[3]);
        assert_eq!(sol.matched(), 3);
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_exhaustion_leaves_rows_unmatched() {
        let m = CostMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let sol = solve(&m, &[2]);
        assert_eq!(sol.matched(), 2);
        // The flow maximises matched rows first (max flow), then weight:
        // it must pick the two heaviest rows.
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn forbidden_pairs_respected() {
        let ninf = f64::NEG_INFINITY;
        let m = CostMatrix::from_rows(&[vec![ninf, 1.0], vec![5.0, ninf]]);
        let sol = solve(&m, &[1, 1]);
        assert_eq!(sol.row_to_col, vec![Some(1), Some(0)]);
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn square_cap1_matches_brute_force() {
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..20 {
            let m = CostMatrix::from_fn(5, 5, |_, _| next() * 4.0);
            let sol = solve(&m, &[1; 5]);
            let (bf, _) = brute_force_max(&m).unwrap();
            assert!((sol.objective - bf).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_shift_refuses_what_the_kernel_cannot_sum() {
        assert_eq!(cost_shift([0.25, 1.0, 0.5], 3, 3), Ok(1.0));
        assert_eq!(cost_shift([-2.0, -1.0], 2, 2), Ok(0.0));
        assert_eq!(cost_shift([], 0, 0), Ok(0.0));
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(cost_shift([1.0, w], 2, 2), Err(RangeError::NonFinite(_))));
        }
        // A span of 1 is in range at any realistic size; 5e299 never is,
        // and the limit shrinks as the network grows.
        assert!(cost_shift([0.0, 1.0], 1_000_000, 3_000_000).is_ok());
        let Err(RangeError::Span { span, max }) = cost_shift([0.0, 5e299], 4, 4) else {
            panic!("a 5e299 span must be refused");
        };
        assert_eq!(span, 5e299);
        assert!(cost_shift([0.0, max], 4, 4).is_ok());
        assert!(cost_shift([0.0, max], 40, 40).is_err());
        let msg = RangeError::Span { span, max }.to_string();
        assert!(msg.starts_with("weights span 5.000e299, outside the "), "{msg}");
    }
}
