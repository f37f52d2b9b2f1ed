#!/usr/bin/env python3
"""Checks the committed trajectory files.

    python3 tests/trajectory_test.py BENCH_campaign.json BENCHMARK.json [RETIRED.json ...]

Every row of the trajectory must record each workload BENCHMARK.json
declares (and no other), with each of its end-to-end metrics (and no other),
as quartiles of a positive number of paired runs: q1 <= median <= q3. A row
names its commit, or, when it is the row a change adds (and so cannot name
its own commit), that change's parent.

Each RETIRED.json is the history of a retired bench, whose rows record that
bench's own fields. Every row must name its commit or its parent, a change
and a host; every number it records must be finite and not negative, and
every measured time, rate or speedup (a key ending in _ms, _per_s or
naming a speedup) positive. Counts may be 0: a cold pool resets nothing.

Prints every problem and exits 1 when there is any.
"""

import json
import math
import sys


def names_row(row, where):
    problems = []
    if row.get("commit") is None and not isinstance(row.get("parent"), str):
        problems.append("%s: names neither its commit nor its parent" % where)
    for field in ("change", "host"):
        if not isinstance(row.get(field), str) or not row[field]:
            problems.append("%s: no %s" % (where, field))
    return problems


def row_name(index, row):
    return "row %d (%s)" % (index, row.get("commit") or "parent %s" % row.get("parent"))


def is_measurement(key):
    return key.endswith("_ms") or key.endswith("_per_s") or "speedup" in key


def check_numbers(value, where, key=""):
    if isinstance(value, bool) or isinstance(value, str) or value is None:
        return []
    if isinstance(value, dict):
        return [p for k, v in sorted(value.items()) for p in check_numbers(v, where, k)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value)
                for p in check_numbers(v, "%s %s[%d]" % (where, key, i), key)]
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
        return ["%s %s: %r is not a finite, non-negative number" % (where, key, value)]
    if is_measurement(key) and value <= 0:
        return ["%s %s: measured %r, not positive" % (where, key, value)]
    return []


def check_retired(trajectory):
    rows = trajectory.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["the trajectory has no rows"]
    problems = []
    for index, row in enumerate(rows):
        where = row_name(index, row)
        problems += names_row(row, where)
        problems += check_numbers(row, where)
    return problems


def check(trajectory, benchmark):
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    problems = []
    rows = trajectory.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["the trajectory has no rows"]
    for index, row in enumerate(rows):
        where = row_name(index, row)
        problems += names_row(row, where)
        recorded = row.get("workloads", {})
        if set(recorded) != workloads:
            problems.append("%s: workloads %s, expected %s" % (where, sorted(recorded),
                                                               sorted(workloads)))
        for name, workload in sorted(recorded.items()):
            pairs = workload.get("pairs")
            if not isinstance(pairs, int) or pairs < 1:
                problems.append("%s %s: pairs %r" % (where, name, pairs))
            got = workload.get("metrics", {})
            if set(got) != metrics:
                problems.append("%s %s: metrics %s, expected %s" % (where, name, sorted(got),
                                                                    sorted(metrics)))
            for metric, stats in sorted(got.items()):
                values = [stats.get(q) for q in ("q1", "median", "q3")]
                if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                    problems.append("%s %s %s: quartiles %r" % (where, name, metric, values))
                elif not values[0] <= values[1] <= values[2]:
                    problems.append("%s %s %s: not q1 <= median <= q3: %r" % (where, name, metric,
                                                                              values))
    return problems


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    files = [(sys.argv[1], check(load(sys.argv[1]), load(sys.argv[2])))]
    files += [(path, check_retired(load(path))) for path in sys.argv[3:]]
    failed = 0
    for path, problems in files:
        for problem in problems:
            print("FAILED: %s: %s" % (path, problem))
        print("%s: %d problems" % (path, len(problems)))
        failed += len(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
