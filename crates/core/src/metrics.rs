//! Evaluation metrics from §5.2 and Appendix C.
//!
//! * **Optimality ratio** `c(A)/c(A_I)` against the workload-free ideal
//!   assignment (Figures 10, 16–18, 21) — a lower bound on `c(A)/c(O)`.
//! * **Superiority ratio** of method X over Y: the fraction of papers whose
//!   group under X scores at least as well as under Y (Figure 11), with the
//!   tie fraction reported separately (the dark-grey bar portions).
//! * **Lowest coverage score** `min_p c(A[p], p)` (Table 7).
//! * **Case studies**: per-topic coverage of one paper's assigned group over
//!   its top-m topics (Figures 19–20).

use crate::assignment::Assignment;
use crate::problem::Instance;
use crate::score::{group_expertise, Scoring};

/// `c(A) / c(A_I)`. Returns 1.0 when the ideal score is zero (both must be).
pub fn optimality_ratio(
    inst: &Instance,
    scoring: Scoring,
    a: &Assignment,
    ideal: &Assignment,
) -> f64 {
    let denom = ideal.coverage_score(inst, scoring);
    if denom <= 0.0 {
        return 1.0;
    }
    a.coverage_score(inst, scoring) / denom
}

/// Superiority of X over Y (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Superiority {
    /// Fraction of papers where X's group scores strictly better.
    pub strictly_better: f64,
    /// Fraction of papers tied (within `1e-9`).
    pub tied: f64,
}

impl Superiority {
    /// The ratio the paper plots: better-or-equal fraction.
    pub fn better_or_equal(&self) -> f64 {
        self.strictly_better + self.tied
    }
}

/// `ratio(X, Y) = |{p : c(A_X[p], p) ≥ c(A_Y[p], p)}| / P`.
pub fn superiority_ratio(
    inst: &Instance,
    scoring: Scoring,
    x: &Assignment,
    y: &Assignment,
) -> Superiority {
    assert_eq!(x.num_papers(), y.num_papers());
    let n = x.num_papers();
    if n == 0 {
        return Superiority { strictly_better: 0.0, tied: 1.0 };
    }
    let mut better = 0usize;
    let mut tied = 0usize;
    for p in 0..n {
        let sx = x.paper_score(inst, scoring, p);
        let sy = y.paper_score(inst, scoring, p);
        if (sx - sy).abs() <= 1e-9 {
            tied += 1;
        } else if sx > sy {
            better += 1;
        }
    }
    Superiority { strictly_better: better as f64 / n as f64, tied: tied as f64 / n as f64 }
}

/// `min_p c(A[p], p)` — the worst-served paper (Table 7).
pub fn lowest_coverage(inst: &Instance, scoring: Scoring, a: &Assignment) -> f64 {
    (0..a.num_papers()).map(|p| a.paper_score(inst, scoring, p)).fold(f64::INFINITY, f64::min)
}

/// Number of papers where X's group strictly improves on Y's (the "389 out
/// of 617 papers" style of count in §5.2).
pub fn papers_improved(inst: &Instance, scoring: Scoring, x: &Assignment, y: &Assignment) -> usize {
    (0..x.num_papers())
        .filter(|&p| x.paper_score(inst, scoring, p) > y.paper_score(inst, scoring, p) + 1e-9)
        .count()
}

/// Case-study data for one paper (Figures 19–20): its top-m topics, the
/// paper weight and each assigned reviewer's weight on those topics.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The inspected paper.
    pub paper: usize,
    /// Indices of the paper's top-m topics, descending by weight.
    pub topics: Vec<usize>,
    /// Paper weights over `topics`.
    pub paper_weights: Vec<f64>,
    /// `(reviewer, weights-over-topics)` for each group member.
    pub reviewers: Vec<(usize, Vec<f64>)>,
    /// Group coverage score of the full vectors (the figure captions'
    /// "Score = …").
    pub score: f64,
}

/// Extract the case-study view of `paper` under assignment `a`.
pub fn case_study(
    inst: &Instance,
    scoring: Scoring,
    a: &Assignment,
    paper: usize,
    top_m: usize,
) -> CaseStudy {
    let pv = inst.paper(paper);
    let topics = pv.top_topics(top_m);
    let paper_weights = topics.iter().map(|&t| pv[t]).collect();
    let reviewers = a
        .group(paper)
        .iter()
        .map(|&r| {
            let rv = inst.reviewer(r);
            (r, topics.iter().map(|&t| rv[t]).collect())
        })
        .collect();
    let score = a.paper_score(inst, scoring, paper);
    CaseStudy { paper, topics, paper_weights, reviewers, score }
}

/// Sanity helper: does any reviewer in `a`'s group for `paper` "support" the
/// given topic, i.e. is it that reviewer's strongest topic among `topics`?
/// Used by the case studies ("SDGA-SRA is the only method which can find an
/// expert to support topic t5").
pub fn topic_supported(cs: &CaseStudy, topic_pos: usize) -> bool {
    cs.reviewers.iter().any(|(_, w)| {
        let best = w.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        best == Some(topic_pos)
    })
}

/// The group expertise vector restricted to a topic subset — convenience for
/// rendering the stacked bars of Figures 19–20.
pub fn group_topic_coverage(
    inst: &Instance,
    a: &Assignment,
    paper: usize,
    topics: &[usize],
) -> Vec<f64> {
    let g = group_expertise(inst.num_topics(), a.group(paper).iter().map(|&r| inst.reviewer(r)));
    topics.iter().map(|&t| g[t].min(inst.paper(paper)[t])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::ideal::{ideal_assignment, IdealMode};
    use crate::cra::testutil::random_instance;
    use crate::cra::CraAlgorithm;

    #[test]
    fn optimality_ratio_bounds() {
        for seed in 0..4 {
            let inst = random_instance(8, 6, 4, 2, seed);
            let ideal =
                ideal_assignment(&inst, Scoring::WeightedCoverage, IdealMode::Exact).unwrap();
            let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
            let ratio = optimality_ratio(&inst, Scoring::WeightedCoverage, &a, &ideal);
            assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn superiority_is_reflexively_all_ties() {
        let inst = random_instance(6, 5, 4, 2, 1);
        let a = CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let s = superiority_ratio(&inst, Scoring::WeightedCoverage, &a, &a);
        assert_eq!(s.strictly_better, 0.0);
        assert_eq!(s.tied, 1.0);
        assert_eq!(s.better_or_equal(), 1.0);
    }

    #[test]
    fn superiority_complementarity() {
        // strictly_better(X,Y) + strictly_better(Y,X) + ties = 1.
        let inst = random_instance(10, 7, 5, 3, 5);
        let x = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let y = CraAlgorithm::Greedy.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let sx = superiority_ratio(&inst, Scoring::WeightedCoverage, &x, &y);
        let sy = superiority_ratio(&inst, Scoring::WeightedCoverage, &y, &x);
        assert!((sx.strictly_better + sy.strictly_better + sx.tied - 1.0).abs() < 1e-12);
        assert!((sx.tied - sy.tied).abs() < 1e-12);
    }

    #[test]
    fn lowest_coverage_is_min_of_paper_scores() {
        let inst = random_instance(7, 6, 4, 2, 9);
        let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let low = lowest_coverage(&inst, Scoring::WeightedCoverage, &a);
        let scores = a.paper_scores(&inst, Scoring::WeightedCoverage);
        assert_eq!(low, scores.iter().cloned().fold(f64::INFINITY, f64::min));
        assert!(scores.iter().all(|&s| s >= low));
    }

    #[test]
    fn case_study_shape() {
        let inst = random_instance(5, 6, 8, 3, 2);
        let a = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let cs = case_study(&inst, Scoring::WeightedCoverage, &a, 2, 5);
        assert_eq!(cs.topics.len(), 5);
        assert_eq!(cs.paper_weights.len(), 5);
        assert_eq!(cs.reviewers.len(), 3);
        for (_, w) in &cs.reviewers {
            assert_eq!(w.len(), 5);
        }
        // Topics must be in descending paper weight.
        for w in cs.paper_weights.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let cov = group_topic_coverage(&inst, &a, 2, &cs.topics);
        for (c, pw) in cov.iter().zip(&cs.paper_weights) {
            assert!(*c <= *pw + 1e-12);
        }
    }

    #[test]
    fn papers_improved_counts() {
        let inst = random_instance(8, 6, 4, 2, 4);
        let x = CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let better = papers_improved(&inst, Scoring::WeightedCoverage, &x, &x);
        assert_eq!(better, 0);
    }
}
