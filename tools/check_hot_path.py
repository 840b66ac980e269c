#!/usr/bin/env python3
"""Hot-path lint: no NodeId-keyed hash containers and no closures off the
sanctioned boundaries.

The arena/index refactor's contract (DESIGN.md, "Memory architecture"): per
packet, per probe, and per judgment the simulation addresses state by dense
MemberIndex / LinkId / slot, never by hashing a 20-byte NodeId.  NodeId-keyed
maps are allowed only at the wire boundary, where identifiers enter from a
message and are resolved to an index exactly once.

The event contract (DESIGN.md, "POD event records"): every simulation event
is a POD record on EventSim's queue, so scheduling never allocates.  A
std::function in src/net/ or src/runtime/ is a closure the hot path could
start carrying again, so it too must be a sanctioned boundary.  The one
boundary today is runtime::Cluster::CompletionFn, the caller-facing
completion callback stored once per message.

Mechanically: every declaration in src/ matching

    unordered_map< ... NodeId ... >   or   unordered_set< ... NodeId ... >

and every line of code in src/net/ or src/runtime/ naming

    std::function<

must carry the annotation comment

    // hot-path-lint: boundary

on the flagged line or an adjacent line (up to two lines above or three
below, for declarations wrapped by clang-format).  Comments are not code:
a std::function mentioned after // is ignored.  Fails listing every
unannotated line; passes silently otherwise.

Scope: src/ only.  Tests, benches, and examples build whatever ad-hoc maps
and closures they like -- they are not the simulation hot path.
"""

import re
import sys
from pathlib import Path

ANNOTATION = "hot-path-lint: boundary"
DECL = re.compile(r"unordered_(?:map|set)\s*<[^;{}]*NodeId")
CLOSURE = re.compile(r"\bstd::function\s*<")
CLOSURE_FREE_DIRS = ("net", "runtime")


def annotated(lines, i):
    return any(ANNOTATION in c for c in lines[max(0, i - 2):i + 4])


def find_violations(root):
    violations = []
    src = root / "src"
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cpp")):
        lines = path.read_text(encoding="utf-8").splitlines()
        closure_free = path.relative_to(src).parts[0] in CLOSURE_FREE_DIRS
        for i, line in enumerate(lines):
            # Join wrapped declarations: the template argument list can
            # span lines, so look at a 3-line window for the NodeId match.
            # The violation is attributed to the opening line only.
            window = " ".join(lines[i:i + 3])
            if DECL.search(window) and "unordered_" in line:
                kind = "NodeId-keyed hash container"
            elif closure_free and CLOSURE.search(line.split("//")[0]):
                kind = "std::function"
            else:
                continue
            if annotated(lines, i):
                continue
            violations.append(
                f"{path.relative_to(root)}:{i + 1}: [{kind}] {line.strip()}")
    return violations


def main():
    root = Path(__file__).resolve().parent.parent
    violations = find_violations(root)
    if violations:
        print("check_hot_path: hot-path constructs without a "
              f"'// {ANNOTATION}' annotation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        print(f"\n{len(violations)} violation(s).  Address state by dense "
              "index and post POD events (preferred on hot paths) or, if "
              "this is a sanctioned boundary, annotate the line.",
              file=sys.stderr)
        sys.exit(1)
    print("check_hot_path: ok")


if __name__ == "__main__":
    main()
