#!/usr/bin/env python3
"""Pin a bench's deterministic answers against its committed record file.

Usage: python3 crates/bench/pin_counts.py <bench> <key> [<key> ...]

Run from the workspace root right after `cargo bench -p wgrap-bench --bench
<bench>`. Compares the named `counts` keys of every record in the fresh
`BENCH_<bench>.json` with `git show HEAD:BENCH_<bench>.json` (for a file
holding several `runs`, the last one) and exits 1 if any record differs or
exists on one side only. Bench runs rewrite the file, so restore it with
`git checkout BENCH_<bench>.json` after a local check.
"""

import json
import subprocess
import sys


def pinned(doc, keys):
    records = doc["runs"][-1]["records"] if "runs" in doc else doc["records"]
    return {r["name"]: [r.get("counts", {}).get(k) for k in keys] for r in records}


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    bench, keys = argv[1], argv[2:]
    path = f"BENCH_{bench}.json"
    committed = subprocess.run(
        ["git", "show", f"HEAD:{path}"], check=True, capture_output=True, text=True
    ).stdout
    want = pinned(json.loads(committed), keys)
    with open(path) as f:
        got = pinned(json.load(f), keys)
    bad = [n for n in sorted(set(want) | set(got)) if want.get(n) != got.get(n)]
    for n in bad:
        print(f"{n}: committed {want.get(n)}, this build {got.get(n)}")
    print(f"{path}: {len(got)} records, {len(bad)} differ from HEAD on {', '.join(keys)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
