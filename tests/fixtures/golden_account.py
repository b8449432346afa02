#!/usr/bin/env python3
"""Accounts for the lines a kernel_golden re-record moved.

    python3 tests/fixtures/golden_account.py OLD_FIXTURE NEW_FIXTURE

Both fixtures must list the same labels in the same order.  Every line that
differs is sorted into one class, printed with its label:

* `outcome`  - the answer moved (regions, anchors, distances, counts);
* `backend`  - only the reported backend moved, statistics included;
* `backend+stats` - the backend and the run's statistics moved;
* `stats`    - only the run's statistics moved;
* `other`    - a non-JSON line (the carry counters) moved.

A summary goes to the last line.  The exit status is 1 when any outcome
moved, so a re-record meant to keep every answer can be checked in one
command, e.g. against the parent commit's fixture:

    python3 tests/fixtures/golden_account.py \\
        <(git show HEAD~1:tests/fixtures/kernel_golden.txt) \\
        tests/fixtures/kernel_golden.txt
"""

import json
import sys
from collections import Counter


def lines(path):
    with open(path) as f:
        return [line.rstrip("\n").partition("\t") for line in f]


def classify(old, new):
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return "other", ""
    if a["outcome"] != b["outcome"]:
        return "outcome", ""
    moved = [k for k in a["stats"] if a["stats"][k] != b["stats"].get(k)]
    detail = " ".join(f"{k}:{a['stats'][k]}->{b['stats'][k]}" for k in moved)
    if a["backend"] != b["backend"]:
        kind = "backend+stats" if moved else "backend"
        return kind, f"{a['backend']}->{b['backend']} {detail}".rstrip()
    return "stats", detail


def main(old_path, new_path):
    old, new = lines(old_path), lines(new_path)
    if [l for l, _, _ in old] != [l for l, _, _ in new]:
        sys.exit("the fixtures list different labels")
    counts = Counter()
    for (label, _, a), (_, _, b) in zip(old, new):
        if a == b:
            continue
        kind, detail = classify(a, b)
        counts[kind] += 1
        print(f"{kind}\t{label}\t{detail}")
    summary = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    print(f"{sum(counts.values())} of {len(new)} lines moved: {summary or 'none'}")
    return 1 if counts["outcome"] else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
