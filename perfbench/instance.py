"""Seeded synthetic instances and an independent weighted-coverage oracle.

The generator writes the `.wgrap` text format `wgrap serve` loads. Each
`Shape` copies the constants of one of the repository's benchmarks, so the
benchmark serves the instances the in-process records were taken on: every
vector draws `nnz` topics (repeats allowed), each with a uniform weight in
[0.001, 1), and is normalised to sum 1; delta_r is the minimum plus a
slack. Every paper has one conflict of interest.

Vectors are kept sparse, as {topic: weight}. The oracle recomputes the
paper's score c(g, p) = sum_t min(g[t], p[t]) / sum_t p[t] with g[t] = max
over the group (Kou et al., Definitions 1-2) and finds the exact optimum
of a JRA query by its own branch-and-bound, so answers are checked against
code that shares nothing with the server.
"""

from collections import namedtuple

Shape = namedtuple(
    "Shape", "papers reviewers topics paper_nnz reviewer_nnz delta_p delta_r_slack"
)

# crates/bench/benches/service.rs (BENCH_service.json).
SERVICE = Shape(5000, 10000, 300, 4, 6, 2, 2)
# crates/bench/benches/shard.rs (BENCH_shard.json).
SHARD = Shape(50000, 2000, 300, 4, 6, 3, 8)


class Instance:
    """Reviewer and paper topic vectors plus per-paper conflicts."""

    def __init__(self, shape):
        self.shape = shape
        self.delta_p = shape.delta_p
        self.delta_r = -(-shape.papers * shape.delta_p // shape.reviewers) + shape.delta_r_slack
        self.reviewers = []  # sparse vectors, index = reviewer id
        self.papers = []  # sparse vectors, index = paper id
        self.coi = []  # set of reviewer ids per paper

    def vector(self, rng, nnz):
        weights = {}
        for _ in range(nnz):
            t = rng.randrange(self.shape.topics)
            weights[t] = weights.get(t, 0.0) + max(rng.random(), 1e-3)
        total = sum(weights.values())
        return {t: round(w / total, 6) for t, w in weights.items()}

    def text(self):
        def fmt(vector):
            tokens = ["0"] * self.shape.topics
            for t, w in vector.items():
                tokens[t] = repr(w)
            return " ".join(tokens)

        lines = [
            "# perfbench instance",
            f"topics {self.shape.topics}",
            f"delta_p {self.delta_p}",
            f"delta_r {self.delta_r}",
        ]
        lines += [f"reviewer r{i} {fmt(v)}" for i, v in enumerate(self.reviewers)]
        lines += [f"paper p{i} {fmt(v)}" for i, v in enumerate(self.papers)]
        lines += [f"coi r{r} p{p}" for p, rs in enumerate(self.coi) for r in sorted(rs)]
        return "\n".join(lines) + "\n"


def generate(rng, shape):
    inst = Instance(shape)
    inst.papers = [inst.vector(rng, shape.paper_nnz) for _ in range(shape.papers)]
    inst.reviewers = [inst.vector(rng, shape.reviewer_nnz) for _ in range(shape.reviewers)]
    inst.coi = [{rng.randrange(shape.reviewers)} for _ in range(shape.papers)]
    return inst


def group_score(paper, group_vectors):
    """c(g, p) under weighted coverage; 0 for an all-zero paper."""
    total = sum(paper.values())
    if total <= 0.0:
        return 0.0
    covered = 0.0
    for t, w in paper.items():
        covered += min(max(v.get(t, 0.0) for v in group_vectors), w)
    return covered / total


def optimum(paper, reviewers, blocked, delta_p):
    """Best c(g, p) over groups of `delta_p` reviewers outside `blocked`.

    Depth-first over reviewers in decreasing single-reviewer score. Coverage
    is submodular, so adding reviewer r to a group gains at most r's own
    score: a group's score plus the next singles bounds every completion.
    """
    eligible = [r for r in range(len(reviewers)) if r not in blocked]
    if len(eligible) < delta_p:
        return None
    singles = sorted(((group_score(paper, [reviewers[r]]), r) for r in eligible), reverse=True)
    best = 0.0

    def extend(start, group, score):
        nonlocal best
        need = delta_p - len(group)
        if need == 0:
            best = max(best, score)
            return
        for i in range(start, len(singles) - need + 1):
            if score + sum(s for s, _ in singles[i : i + need]) <= best:
                return
            grown = group + [reviewers[singles[i][1]]]
            extend(i + 1, grown, group_score(paper, grown))

    extend(0, [], 0.0)
    return best
