"""Verify every JRA response of a run against the instance.

Checks, per distinct key (epoch, paper, exclusions):
- every response to the key carries the same results (a cache hit must
  equal the cold solve, a coalesced answer the single one);
- the store was never updated, so the epoch is 0;
- the group has delta_p distinct reviewers in range, none conflicted or
  excluded, and names that match the ids;
- the reported score equals the oracle's recomputation of c(g, p);
- on a seeded sample of keys, the score is the exact optimum.
"""

import json

import instance as oracle

TOLERANCE = 1e-9


def verify(records, inst, rng, oracle_checks):
    """Return (failed, problems): failed requests and correctness problems."""
    failed = 0
    problems = []
    answers = {}
    for rec in records:
        reply = json.loads(rec.raw)
        if not reply.get("ok"):
            failed += 1
            problems.append(f"{rec.meta} failed: {reply.get('error')}")
            continue
        paper, exclude = rec.meta
        key = (reply["epoch"], paper, exclude)
        results = json.dumps(reply["results"], sort_keys=True)
        seen = answers.setdefault(key, results)
        if seen != results:
            problems.append(f"{key}: answers differ: {seen} vs {results}")
    keys = sorted(answers)
    sample = set(rng.sample(keys, min(oracle_checks, len(keys))))
    for key in keys:
        epoch, paper, exclude = key
        if epoch != 0:
            problems.append(f"{key}: epoch {epoch} was never published")
            continue
        best = json.loads(answers[key])[0]
        group = best["group"]
        blocked = inst.coi[paper] | set(exclude)
        if (
            len(group) != inst.delta_p
            or len(set(group)) != len(group)
            or any(not 0 <= r < len(inst.reviewers) or r in blocked for r in group)
            or best["reviewers"] != [f"r{r}" for r in group]
        ):
            problems.append(f"{key}: invalid group {best}")
            continue
        vectors = [inst.reviewers[r] for r in group]
        score = oracle.group_score(inst.papers[paper], vectors)
        if abs(score - best["score"]) > TOLERANCE:
            problems.append(f"{key}: reported score {best['score']} != recomputed {score}")
        if key in sample:
            top = oracle.optimum(inst.papers[paper], inst.reviewers, blocked, inst.delta_p)
            if top is None or abs(top - best["score"]) > TOLERANCE:
                problems.append(f"{key}: score {best['score']} is not the optimum {top}")
    return failed, problems
