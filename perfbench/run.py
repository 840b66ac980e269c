#!/usr/bin/env python3
"""The repository benchmark: build, generate inputs, measure, check.

Usage (from the repository root):

  python3 perfbench/run.py --workload protocol_e2e|scan_world|daemon_day|all
                           [--seed N | --held-out] [--seconds S]
                           [--trace 0|1]

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR or .bench_build/, makes the workload's inputs from the
seed alone, runs the measuring binary and passes its report through.  The
last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--workload all runs every workload in turn (one process each) and reports
every metric under "<workload>.<metric>".  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Default seed (used while writing a change) and held-out seed (re-check a
# claim on inputs it was not tuned on), per workload.  daemon_day's default
# 3 is the generator seed whose roles are already equivocate, slander,
# replay and spam, so its trace is gen_workload.py's output byte for byte.
SEEDS = {
    "protocol_e2e": (1, 1001),
    "scan_world": (1, 1002),
    "daemon_day": (3, 1003),
}

# The daemon_day trace: one simulated day at soak density.
DAY_TRACE_ARGS = [
    "--days", "1", "--nodes", "48", "--rate-per-min", "8",
    "--flash-crowds", "2", "--regions", "6", "--churn-per-day", "6",
    "--crashes-per-day", "2", "--link-faults-per-day", "8", "--attackers", "4",
]
# The generator draws attacker roles at random; the workload fixes them so
# every seed exercises the same four defenses (admission under
# equivocation and replay, slander verification, the DHT spam quota).
DAY_ROLES = ("equivocate", "slander", "replay", "spam")

# Wall seconds of one world on a 4-core 2.1 GHz box.  A run measures
# max(2, seconds // this) worlds, so the number of worlds -- and with it
# the inputs -- depends only on --seconds, never on how fast the code is.
WORLD_SECONDS = {"protocol_e2e": 11, "scan_world": 13, "daemon_day": 14}

# Expected result digest per workload and world seed.  A run whose world
# gives another digest fails its result_digest check: the code no longer
# computes what it computed when the digests were recorded
# (perfbench/steady.py --record rewrites them from its runs).
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_LINE = re.compile(
    r"^result digest of world seed (\d+): ([0-9a-f]{16})$", re.M)


def world_seed(seed, index):
    """Seed of world `index` of a run (perfbench.h's world_seed)."""
    return (seed + index * 1000000007) % 2**64


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures once, then builds incrementally; returns the binary."""
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w", encoding="utf-8") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                f.flush()
                with open(log, encoding="utf-8") as r:
                    sys.stderr.write(r.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % log)
    return os.path.join(out, "perfbench")


def generate_day_trace(seed, path):
    gen = os.path.join(ROOT, "tools", "gen_workload.py")
    subprocess.run([sys.executable, gen, "--out", path, "--seed", str(seed)]
                   + DAY_TRACE_ARGS, check=True, stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    attacks = [i for i, line in enumerate(lines) if line.startswith("attack ")]
    if len(attacks) != len(DAY_ROLES):
        raise SystemExit("perfbench: expected %d attack records"
                         % len(DAY_ROLES))
    for i, role in zip(attacks, DAY_ROLES):
        lines[i] = re.sub(r"\S+$", role, lines[i])
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))


def day_traces(seed, worlds, work):
    """Generates one trace per world; returns (paths, world 0 regenerates
    byte-identically)."""
    paths = []
    for i in range(worlds):
        paths.append(os.path.join(work, "daemon_day-%d.trace" % i))
        generate_day_trace(world_seed(seed, i), paths[-1])
    again = os.path.join(work, "daemon_day-again.trace")
    generate_day_trace(seed, again)
    with open(paths[0], "rb") as a, open(again, "rb") as b:
        same = a.read() == b.read()
    return paths, same


def world_digests(lines):
    """The (world seed, result digest) pairs a perfbench run printed."""
    return DIGEST_LINE.findall("\n".join(lines))


def digest_check(workload, seen):
    """Compares each world's result digest with the recorded one; returns
    (ok, detail).  Worlds whose seed has no record are counted, not
    failed."""
    with open(DIGESTS, encoding="utf-8") as f:
        recorded = json.load(f).get(workload, {})
    known = [(s, d) for s, d in seen if s in recorded]
    wrong = ["world seed %s gives %s, recorded %s" % (s, d, recorded[s])
             for s, d in known if d != recorded[s]]
    detail = "%d of %d world digests recorded in perfbench/digests.json" % (
        len(known), len(seen))
    if wrong:
        detail += "; " + "; ".join(wrong)
    elif known:
        detail += ", all equal"
    return bool(seen) and not wrong, detail


def run_one(binary, workload, seed, seconds, trace, work):
    """Runs one workload; returns (report lines, result dict)."""
    worlds = 1 if trace else max(2, seconds // WORLD_SECONDS[workload])
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--worlds", str(worlds), "--trace", str(trace)]
    checks = []
    if workload == "daemon_day":
        paths, regen_ok = day_traces(seed, worlds, work)
        cmd += ["--daemon-traces", ",".join(paths), "--work-dir", work]
        checks.append(("trace_regenerates", regen_ok,
                       "daemon_day trace is byte-identical when regenerated "
                       "from seed %d" % seed))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise SystemExit("perfbench: %s failed (exit %d)"
                         % (workload, proc.returncode))
    result = json.loads(lines.pop())
    checks.append(("result_digest",)
                  + digest_check(workload, world_digests(lines)))
    for name, ok, detail in checks:
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            result["correct"] = False
        lines.append("%-22s %-5s %s" % (name, "yes" if ok else "NO", detail))
    return lines, result


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SEEDS) + ["all"])
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int)
    seed.add_argument("--held-out", action="store_true",
                      help="use the workload's held-out seed")
    p.add_argument("--seconds", type=int, default=36,
                   help="measuring budget; sets the number of worlds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        names = sorted(SEEDS) if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            default, held_out = SEEDS[name]
            s = args.seed if args.seed is not None else (
                held_out if args.held_out else default)
            kind = ("default" if s == default else
                    "held-out" if s == held_out else "other")
            print("## %s, seed %d (%s)" % (name, s, kind))
            lines, result = run_one(binary, name, s, args.seconds,
                                    args.trace, work)
            print("\n".join(lines))
            if len(names) == 1:
                combined = result
                break
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"]["%s.%s" % (name, metric)] = value
        print(json.dumps(combined))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
