#!/usr/bin/env python3
"""Hot-path lint: no NodeId-keyed hash containers, no closures and no
uncached metric lookups off the sanctioned boundaries.

The arena/index refactor's contract (DESIGN.md, "Memory architecture"): per
packet, per probe, and per judgment the simulation addresses state by dense
MemberIndex / LinkId / slot, never by hashing a 20-byte NodeId.  NodeId-keyed
maps are allowed only at the wire boundary, where identifiers enter from a
message and are resolved to an index exactly once.

The event contract (DESIGN.md, "POD event records"): every simulation event
is a POD record on EventSim's queue, so scheduling never allocates.  A
std::function in src/net/ or src/runtime/ is a closure the hot path could
start carrying again, so it too must be a sanctioned boundary.  The one
boundary today is runtime::CompletionFn (Cluster::CompletionFn), the
caller-facing completion callback stored once per message.

The metrics contract (OBSERVABILITY.md): an instrument is looked up by
name once and then updated through the reference.  A by-name lookup takes
the registry mutex and searches a std::map, and the counters of the event
loop and the probe sampler are bumped millions of times a run, so in
src/net/, src/runtime/ and src/tomography/ every such lookup must
initialize a function-local static.

Mechanically: every declaration in src/ matching

    unordered_map< ... NodeId ... >   or   unordered_set< ... NodeId ... >

every line of code in src/net/ or src/runtime/ naming

    std::function<

and every by-name registry lookup in src/net/, src/runtime/ or
src/tomography/,

    Registry::global().counter(   (or .gauge( / .histogram( / .series()

whose statement does not begin with `static` inside a function (an
indented line), must carry the annotation comment

    // hot-path-lint: boundary

on the flagged line or an adjacent line (up to two lines above or three
below, for declarations wrapped by clang-format).  Comments are not code:
a std::function or a lookup mentioned after // is ignored.  Fails listing
every unannotated line; passes silently otherwise.

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
LOOKUP = re.compile(
    r"\bRegistry::global\(\)\s*\.\s*(?:counter|gauge|histogram|series)\s*\(")
CACHED_LOOKUP_DIRS = ("net", "runtime", "tomography")


def annotated(lines, i):
    return any(ANNOTATION in c for c in lines[max(0, i - 2):i + 4])


def initializes_local_static(code, i):
    """True when line i belongs to a statement that begins with `static`
    on an indented line, i.e. the initializer of a function-local static.
    The statement starts after the nearest earlier line that ends one
    (`;`, `{`, `}`, a label's `:`) or is blank."""
    start = i
    while start > 0 and not code[start].lstrip().startswith("static "):
        prev = code[start - 1].rstrip()
        if not prev or prev.endswith((";", "{", "}")) or (
                prev.endswith(":") and not prev.endswith("::")):
            break
        start -= 1
    line = code[start]
    return line.lstrip().startswith("static ") and line[:1].isspace()


def find_violations(root):
    violations = []
    src = root / "src"
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cpp")):
        lines = path.read_text(encoding="utf-8").splitlines()
        code = [line.split("//")[0] for line in lines]
        top = path.relative_to(src).parts[0]
        closure_free = top in CLOSURE_FREE_DIRS
        cached_lookups = top in CACHED_LOOKUP_DIRS
        # A lookup may wrap after `Registry::global()`; join each line with
        # the next so the match is attributed to the line it starts on.
        for i, line in enumerate(lines):
            joined = code[i] + " " + (code[i + 1] if i + 1 < len(code)
                                      else "")
            match = LOOKUP.search(joined)
            if (cached_lookups and match and match.start() < len(code[i])
                    and not initializes_local_static(code, i)
                    and not annotated(lines, i)):
                violations.append(f"{path.relative_to(root)}:{i + 1}: "
                                  f"[uncached metric lookup] {line.strip()}")
            # Join wrapped declarations: the template argument list can
            # span lines, so look at a 3-line window for the NodeId match.
            # The violation is attributed to the opening line only.
            window = " ".join(lines[i:i + 3])
            if DECL.search(window) and "unordered_" in line:
                kind = "NodeId-keyed hash container"
            elif closure_free and CLOSURE.search(code[i]):
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
              "index, post POD events and keep metric references in "
              "function-local statics (preferred on hot paths) or, if "
              "this is a sanctioned boundary, annotate the line.",
              file=sys.stderr)
        sys.exit(1)
    print("check_hot_path: ok")


if __name__ == "__main__":
    main()
