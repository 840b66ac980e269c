#!/usr/bin/env python3
"""Benchmark self-test and steadiness check.

Usage (from the repository root):

  python3 perfbench/steady.py [--trace 0|1] [--record] [--sets 1|2]
                              [--workload NAME ...]

Validates BENCHMARK.json (names match [A-Za-z0-9_.-]+, every metric has a
unit, bounds are in range), then runs perfbench/run.py in two sets of ten
seeds per workload: seeds 1-9 and the workload's held-out seed, which
between them hold every default seed.  It checks that every run is correct
and emits exactly the metrics the mode declares, with the declared units,
and that a seed gives the same per-world result digests in both sets.

For each end-to-end metric it prints, per workload and with the sets side
by side, the median and the spread -- the distance between the first and
third quartile over the median, as statistics.quantiles(values, n=4) gives
them -- then how much worse set 2's median is than set 1's, and the repeat
spread: the spread of the per-seed ratios set 2 / set 1, i.e. the
run-to-run noise on identical inputs.  A metric whose spread or repeat
spread is above its bound, or whose set 2 median is worse by more than the
bound, makes the benchmark NOT steady (exit 1); a spread above a third of
the bound is reported but passes.  --sets 1 runs one set and checks only
the spreads; --workload limits the check to the named workloads.

--record adds the digests of world seeds that perfbench/digests.json does
not hold yet.  A recorded digest that no longer matches is never
overwritten: the runs fail, and the stale entry has to be removed by hand.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SETS = 2


def seeds_of(workload):
    return list(range(1, 10)) + [bench.SEEDS[workload][1]]


def validate(spec):
    """Returns the problems found in BENCHMARK.json."""
    problems = []
    seen = set()
    groups = [("workloads", spec["workloads"]),
              ("end_to_end", spec["end_to_end"]),
              ("per_layer", spec["per_layer"])]
    for group, items in groups:
        for item in items:
            name = item.get("name", "")
            if not NAME.match(name) or name in seen:
                problems.append("%s: bad or repeated name %r" % (group, name))
            seen.add(name)
            if group != "workloads":
                if not UNIT.match(item.get("unit", "")):
                    problems.append("%s: %s has no valid unit" % (group, name))
                if item.get("better") not in ("higher", "lower"):
                    problems.append("%s: %s has no direction" % (group, name))
            if group == "end_to_end" and not 0 < item.get("bound", 0) <= 0.25:
                problems.append("end_to_end: %s bound out of range" % name)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if e2e.get("setup_s", {}).get("unit") != "s":
        problems.append("end_to_end: setup_s (unit s) is required")
    return problems


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout[-3000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    result["digests"] = bench.world_digests(lines)
    return result


def check_result(result, declared, where):
    """Returns the problems with one run's JSON result."""
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("%s: not correct (%d of %d checks failed)"
                        % (where, result["failed"], result["attempted"]))
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append("%s: metrics differ from the declared set: "
                        "missing %s, extra %s"
                        % (where, sorted(set(declared) - set(got)),
                           sorted(set(got) - set(declared))))
    for name, m in got.items():
        if name in declared and m["unit"] != declared[name]["unit"]:
            problems.append("%s: %s unit %s, declared %s"
                            % (where, name, m["unit"], declared[name]["unit"]))
        if not math.isfinite(m["value"]):
            problems.append("%s: %s is not finite" % (where, name))
    return problems


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def report(workload, sets, metrics):
    """Prints one workload's side-by-side table; returns (failures,
    notes)."""
    failures, notes = [], []
    print("\n## %s" % workload)
    print("%-18s %-12s %-8s %-12s %-8s %-8s %-8s %-6s %s" % (
        "metric", "median[1]", "spread", "median[2]", "spread", "worse",
        "repeat", "bound", "verdict"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        line = "%-18s" % name
        medians = []
        verdict = []
        for v in values:
            s, med = spread(v)
            medians.append(med)
            line += " %-12.6g %-8.4f" % (med, s)
            if s > bound:
                verdict.append("spread over bound")
            elif s > bound / 3:
                notes.append("%s %s: spread %.4f over bound/3" % (
                    workload, name, s))
        if len(values) == 2:
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
            if worse > bound:
                verdict.append("sets disagree")
            repeat, _ = spread([b / a for a, b in zip(*values)])
            if repeat > bound:
                verdict.append("repeat spread over bound")
            line += " %-8.4f %-8.4f" % (worse, repeat)
        line += " %-6.3g %s" % (bound, ", ".join(verdict) or "ok")
        print(line)
        failures += ["%s %s: %s" % (workload, name, v) for v in verdict]
    return failures, notes


def record(results):
    """Adds the digests of world seeds digests.json does not hold yet."""
    with open(bench.DIGESTS, encoding="utf-8") as f:
        recorded = json.load(f)
    added = 0
    for w, sets in results.items():
        table = recorded.setdefault(w, {})
        for r in sets[0]:
            for seed, digest in r["digests"]:
                if seed not in table:
                    table[seed] = digest
                    added += 1
        recorded[w] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(bench.DIGESTS, "w", encoding="utf-8") as f:
        json.dump(dict(sorted(recorded.items())), f, indent=1)
        f.write("\n")
    print("recorded %d new world digests in %s" % (added, bench.DIGESTS))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="add unrecorded world digests to digests.json")
    p.add_argument("--sets", type=int, choices=(1, 2), default=SETS,
                   help="run sets per workload (1 skips the set comparison)")
    p.add_argument("--workload", action="append",
                   help="check only this workload (repeatable)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = validate(spec)
    declared = {m["name"]: m for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    results = {}
    for w in [w["name"] for w in spec["workloads"]]:
        if args.workload and w not in args.workload:
            continue
        results[w] = []
        for s in range(args.sets):
            runs = []
            for seed in seeds_of(w):
                r = run(w, seed, spec["run_seconds"], args.trace)
                print("%s set %d seed %d: %s" % (
                    w, s + 1, seed,
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in r["metrics"].items()
                             if args.trace == 0)), flush=True)
                runs.append(r)
            results[w].append(runs)

    for w, sets in results.items():
        for s, runs in enumerate(sets):
            for seed, r in zip(seeds_of(w), runs):
                problems += check_result(r, declared, "%s set %d seed %d"
                                         % (w, s + 1, seed))
        for seed, a, b in zip(seeds_of(w), sets[0], sets[-1]):
            if a["digests"] != b["digests"]:
                problems.append("%s seed %d: digests differ between sets"
                                % (w, seed))
    if args.record and not problems:
        record(results)

    failures, notes = [], []
    if args.trace == 0:
        for w, sets in results.items():
            f, n = report(w, sets, spec["end_to_end"])
            failures += f
            notes += n
    for line in problems + failures:
        print("FAIL", line)
    for line in notes:
        print("NOTE", line)
    print("self-test %s; steadiness %s" % (
        "passed" if not problems else "FAILED",
        "n/a" if args.trace else
        "NOT steady" if failures else
        "within bounds, %d spreads over a third of their bound" % len(notes)
        if notes else "steady"))
    return 1 if problems or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
