#!/usr/bin/env python3
"""Smoke check of the campaign benchmark.

    python3 campaign_bench/smoke.py

Runs all four workloads at tiny budgets, untraced and traced, and fails
unless every internal outcome check passes (traced journals byte-identical to
CampaignDriver's, replays reproduced) and each mode prints exactly the metric
names and units BENCHMARK.json declares.
"""

import json
import os
import sys

import run


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    failures = []
    names = sorted(w["name"] for w in declared["workloads"])
    if names != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads %s != %s" % (names, sorted(run.WORKLOADS)))
    try:
        binary = run.build()
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                line, _, problems = run.measure(binary, workload, 1, 1, trace, smoke=True)
                want = {m["name"]: m["unit"] for m in declared[section]}
                got = {name: entry["unit"] for name, entry in line["metrics"].items()}
                if got != want:
                    diff = sorted(set(got.items()) ^ set(want.items()))
                    failures.append("%s trace %d: metrics differ from %s: %s"
                                    % (workload, trace, section, diff))
                failures += ["%s trace %d: %s" % (workload, trace, p) for p in problems]
                print("%-15s trace=%d  %2d metrics  %4d operations  %d failed"
                      % (workload, trace, len(got), line["attempted"], line["failed"]))
    except run.BenchError as e:
        failures.append(str(e))
    for failure in failures:
        print("FAILED: %s" % failure)
    print("smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
