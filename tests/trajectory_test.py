#!/usr/bin/env python3
"""Checks the committed campaign_bench trajectory against the benchmark it records.

    python3 tests/trajectory_test.py BENCH_campaign.json BENCHMARK.json

Every row of the trajectory must record each workload BENCHMARK.json
declares (and no other), with each of its end-to-end metrics (and no other),
as quartiles of a positive number of paired runs: q1 <= median <= q3. A row
names its commit, or, when it is the row a change adds (and so cannot name
its own commit), that change's parent. Prints every problem and exits 1 when
there is any.
"""

import json
import math
import sys


def check(trajectory, benchmark):
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    problems = []
    rows = trajectory.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["the trajectory has no rows"]
    for index, row in enumerate(rows):
        where = "row %d (%s)" % (index, row.get("commit") or "parent %s" % row.get("parent"))
        if row.get("commit") is None and not isinstance(row.get("parent"), str):
            problems.append("%s: names neither its commit nor its parent" % where)
        for field in ("change", "host"):
            if not isinstance(row.get(field), str) or not row[field]:
                problems.append("%s: no %s" % (where, field))
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


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        trajectory = json.load(f)
    with open(sys.argv[2]) as f:
        benchmark = json.load(f)
    problems = check(trajectory, benchmark)
    for problem in problems:
        print("FAILED: %s" % problem)
    print("%d rows checked, %d problems" % (len(trajectory.get("rows", [])), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
