#!/usr/bin/env python3
"""Perf-trajectory gate over BENCH_<name>.json snapshots.

Benches emit a flat JSON perf snapshot via --bench-out (see
bench_common.h's BenchReport): wall time, peak RSS, and whichever of
events/sec, probes/sec, hosts/sec, and bytes/diagnosis apply.  Committed
baselines live in bench/baselines/.  This tool diffs a fresh snapshot
against a baseline:

    check_perf.py report  NEW BASELINE   # print the deltas, always exit 0
    check_perf.py enforce NEW BASELINE   # fail on >10% regression of any
                                         # scored key
    check_perf.py improved NEW BASELINE --min-speedup 2.0
                                         # fail unless every rate improved
                                         # by the given factor

`report` is the PR-gate mode (perf noise on shared runners should not
block merges); `enforce` runs nightly where the runners are quieter;
`improved` documents a refactor's claimed speedup against the captured
pre-refactor baseline.

Higher-is-better keys: *_per_sec.  Lower-is-better keys: wall_seconds,
build_seconds, bytes_per_diagnosis, peak_rss_mb.  A key is scored only
when both snapshots carry it, so a baseline cut before peak_rss_mb
existed leaves it unscored.  Counts (events, probes, hosts) are workload
descriptors, not scores; they are reported but never gated.  A rate
`<count>_per_sec` is scored only when both snapshots carry the same
`<count>`: a change that does the same simulation in fewer events would
otherwise read as an events/sec regression.  Such a rate is printed as
unscored, with both counts.
"""

import argparse
import json
import sys

from gatelib import make_die

die = make_die("check_perf")

RATE_SUFFIX = "_per_sec"
HIGHER_IS_BETTER = lambda k: k.endswith(RATE_SUFFIX)  # noqa: E731
LOWER_IS_BETTER = ("wall_seconds", "build_seconds", "bytes_per_diagnosis",
                   "peak_rss_mb")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"{path}: {e}")
    if not isinstance(snap, dict) or "bench" not in snap:
        die(f"{path}: not a BenchReport snapshot (missing 'bench')")
    return snap


def scored_keys(new, base):
    for key in new:
        if key not in base:
            continue
        if not isinstance(new[key], (int, float)):
            continue
        if HIGHER_IS_BETTER(key) or key in LOWER_IS_BETTER:
            yield key


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["report", "enforce", "improved"])
    ap.add_argument("new", help="fresh --bench-out snapshot")
    ap.add_argument("baseline", help="committed baseline snapshot")
    ap.add_argument("--max-regression", type=float, default=0.10,
                    help="enforce: allowed fractional rate loss (default 0.10)")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="improved: required rate multiple (default 2.0)")
    args = ap.parse_args()

    new = load(args.new)
    base = load(args.baseline)
    if new["bench"] != base["bench"]:
        die(f"bench mismatch: {new['bench']!r} vs {base['bench']!r}")

    failures = []
    any_scored = False
    for key in scored_keys(new, base):
        if HIGHER_IS_BETTER(key):
            count = key[:-len(RATE_SUFFIX)]
            if new.get(count) != base.get(count):
                print(f"  {key:<24} unscored: {count} differ "
                      f"(baseline {base.get(count)}, new {new.get(count)})")
                continue
        any_scored = True
        n, b = float(new[key]), float(base[key])
        if b == 0.0:
            print(f"  {key:<24} baseline 0, new {n:.6g} (unscored)")
            continue
        ratio = n / b
        better = ratio if HIGHER_IS_BETTER(key) else 1.0 / ratio
        print(f"  {key:<24} {b:.6g} -> {n:.6g}  ({better:.2f}x "
              f"{'better' if better >= 1.0 else 'worse'})")
        if args.mode == "enforce" and better < 1.0 - args.max_regression:
            failures.append(f"{key}: {better:.2f}x of baseline "
                            f"(allowed {1.0 - args.max_regression:.2f}x)")
        if args.mode == "improved" and better < args.min_speedup:
            failures.append(f"{key}: {better:.2f}x of baseline "
                            f"(need {args.min_speedup:.2f}x)")
    if not any_scored:
        die("no comparable rate keys between the two snapshots")
    if failures:
        die(f"{new['bench']}: " + "; ".join(failures))
    print(f"check_perf: {new['bench']} ok ({args.mode})")


if __name__ == "__main__":
    main()
