#!/usr/bin/env python3
"""The campaign benchmark.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campaign_bench/run.py --record-expected

Builds campaign_bench (the lfi library from ../src plus the benchmark program in this
directory) under $CARGO_TARGET_DIR or .bench_build, runs one workload, checks
every campaign outcome against expected.json, and prints the metrics followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
any outcome check fails, 2 when the benchmark cannot run at all.

--record-expected re-records expected.json from one pass of every workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("pbft-random", "small-sweep", "coverage-epoch", "replay")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds campaign_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "apps", "common", "campaign_driver.h")):
        raise BenchError("lfi sources not found: expected %s" % os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "campaign_bench")
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                           + generator, stdout=sys.stderr, check=True, timeout=300)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, check=True,
                       timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError("build failed: %s" % e)
    return os.path.join(out, "campaign_bench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's result document."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work", work, "--out", result_path]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    cmd += list(extra)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LFI_")}
    try:
        # The binary's own output (and any forked shard child's) goes to
        # stderr, so only this script's result reaches stdout.
        proc = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=max(120, 4 * seconds + 60))
        if proc.returncode != 0:
            raise BenchError("campaign_bench exited with %d" % proc.returncode)
        with open(result_path) as f:
            return json.load(f)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        raise BenchError("campaign_bench failed: %s" % e)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def outcome_key(workload, outcome):
    if outcome["kind"] == "record":
        prefix = "record/"
    elif workload == "replay":
        prefix = "replay/"
    else:
        prefix = ""
    return "%s%s/%s" % (prefix, outcome["system"], outcome["seed"])


def outcome_summary(workload, outcome):
    if workload == "replay" and outcome["kind"] != "record":
        fields = ("replays", "replays_expected", "replays_reproduced")
    else:
        fields = ("scenarios", "recovery_blocks", "bugs")
    return {field: outcome[field] for field in fields}


def check_outcomes(workload, outcomes, expected):
    """Returns one problem string per failed operation. `expected` None skips
    the comparison with committed outcomes (smoke runs use other budgets)."""
    problems = []
    for outcome in outcomes:
        where = "%s %s seed %s" % (outcome["kind"], outcome["system"], outcome["seed"])
        if not outcome["ok"]:
            problems.append("%s: %s" % (where, outcome["error"]))
        elif expected is not None and outcome["kind"] != "probe":
            want = expected.get(outcome_key(workload, outcome))
            got = outcome_summary(workload, outcome)
            if want != got:
                problems.append("%s: outcome %s, expected %s" % (where, got, want))
    return problems


def measure(binary, workload, seed, seconds, trace, smoke=False):
    """Runs and checks one workload; returns (result line, notes, problems)."""
    result = run_binary(binary, workload, seed, seconds, trace, ["--smoke"] if smoke else [])
    expected = None
    if not smoke:
        with open(EXPECTED) as f:
            expected = json.load(f).get(workload, {})
    problems = check_outcomes(workload, result["outcomes"], expected)
    metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
               for name, entry in result["metrics"].items()}
    line = {"correct": not problems, "attempted": max(1, len(result["outcomes"])),
            "failed": len(problems), "metrics": metrics}
    return line, result["notes"], problems


def record_expected(binary):
    expected = {}
    for workload in WORKLOADS:
        result = run_binary(binary, workload, 1, 0, False, ["--record"])
        problems = check_outcomes(workload, result["outcomes"], None)
        if problems:
            raise BenchError("cannot record %s: %s" % (workload, "; ".join(problems)))
        table = {}
        for outcome in result["outcomes"]:
            table[outcome_key(workload, outcome)] = outcome_summary(workload, outcome)
        expected[workload] = dict(sorted(table.items()))
        log("recorded %d outcomes for %s" % (len(table), workload))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.record_expected:
            record_expected(binary)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        line, notes, problems = measure(binary, args.workload, args.seed, args.seconds,
                                        args.trace)
    except BenchError as e:
        log("campaign benchmark: %s" % e)
        return 2
    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                         "traced" if args.trace else "untraced"))
    for name, entry in line["metrics"].items():
        print("  %-36s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print("  %-36s %14.6g ratio (%d/%d operations)" % (
        "fail_ratio", line["failed"] / line["attempted"], line["failed"], line["attempted"]))
    for note in notes:
        print("  note: %s" % note)
    for problem in problems[:20]:
        print("  FAILED: %s" % problem)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
