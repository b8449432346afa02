#!/usr/bin/env python3
"""Rewrites a kernel_golden fixture from the shape with per-result statistics
to the shape with one statistics record per response.

Until search results stopped carrying statistics, every region of a response
(each `SearchResult` and the `MaxRsResult`) held a copy of the run's
`SearchStats`, and every `SearchStats` held `cache_hits`/`cache_misses`
(always zero on a response).  This script deletes exactly those bytes: every
`"stats"` object inside a response's outcome, and the two cache keys of the
response's own record.  Nothing else is touched, so the output of

    python3 tests/fixtures/drop_result_stats.py OLD_FIXTURE

must equal the re-recorded `tests/fixtures/kernel_golden.txt` byte for byte.
The counts of deleted records go to stderr.
"""

import json
import re
import sys

# A `SearchStats` object: flat counters plus the nested `elapsed` duration.
STATS = re.compile(r',"stats":\{[^{}]*"elapsed":\{[^{}]*\}\}')
CACHE_KEYS = re.compile(r'"cache_hits":\d+,"cache_misses":\d+,')


def convert(line, counts):
    label, tab, body = line.partition("\t")
    if not tab or not body.startswith("{"):
        return line
    records = list(STATS.finditer(body))
    # The response's own record closes the line; every earlier one belongs
    # to a region of the outcome.
    if not records or records[-1].end() != len(body) - 1:
        raise SystemExit(f"{label}: no response-level stats record at the end")
    for r in reversed(records[:-1]):
        body = body[: r.start()] + body[r.end() :]
        counts["result_stats"] += 1
    body, n = CACHE_KEYS.subn("", body)
    if n != 1:
        raise SystemExit(f"{label}: expected one cache key pair, found {n}")
    counts["cache_key_pairs"] += n
    response = json.loads(body)
    outcome = next(iter(response["outcome"].values()))
    regions = outcome if isinstance(outcome, list) else [outcome]
    if any("stats" in region for region in regions):
        raise SystemExit(f"{label}: a region kept its stats")
    return label + tab + body


def main():
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OLD_FIXTURE")
    counts = {"result_stats": 0, "cache_key_pairs": 0}
    with open(sys.argv[1], encoding="utf-8") as old:
        for line in old:
            sys.stdout.write(convert(line.rstrip("\n"), counts) + "\n")
    print(
        f"removed {counts['result_stats']} per-result stats records and "
        f"{counts['cache_key_pairs']} cache_hits/cache_misses key pairs",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
