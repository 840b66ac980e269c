#!/usr/bin/env python3
"""Line counts of src/, per module: code, comment-only and blank lines.

A module is a directory directly under src/ (files at src/ itself count as
"(top)").  C++ sources and headers and CMakeLists.txt files are counted; a
line is blank when it holds only whitespace, comment-only when all it holds
is a // or # comment or lies inside a /* ... */ block, and code otherwise.

With --base REF the same counts are taken from the committed tree at REF
and each cell also shows its change, so "net lines of code" is a command,
not a hand count.  Report only: the exit status is 0 whatever the numbers.

Usage:  loc.py [--base REF] [REPO_ROOT]
"""

import argparse
import pathlib
import subprocess

SUFFIXES = (".h", ".cpp")
KINDS = ("code", "comment", "blank")


def counted(path):
    return path.endswith(SUFFIXES) or path.rsplit("/", 1)[-1] == "CMakeLists.txt"


def classify(path, text):
    """Returns {kind: lines} for one file's text."""
    counts = dict.fromkeys(KINDS, 0)
    line_comment = "#" if path.endswith("CMakeLists.txt") else "//"
    in_block = False
    for line in text.splitlines():
        s = line.strip()
        if in_block:
            counts["comment"] += 1
            in_block = "*/" not in s
        elif not s:
            counts["blank"] += 1
        elif s.startswith(line_comment):
            counts["comment"] += 1
        elif s.startswith("/*") and line_comment == "//":
            counts["comment"] += 1
            in_block = "*/" not in s[2:]
        else:
            counts["code"] += 1
    return counts


def module_of(path):
    parts = path.split("/")
    return parts[1] if len(parts) > 2 else "(top)"


def tally(files):
    """files: iterable of (path, text) -> {module: {kind: lines}}."""
    table = {}
    for path, text in files:
        row = table.setdefault(module_of(path), dict.fromkeys(KINDS, 0))
        for kind, n in classify(path, text).items():
            row[kind] += n
    return table


def worktree_files(root):
    for p in sorted((root / "src").rglob("*")):
        rel = p.relative_to(root).as_posix()
        if p.is_file() and counted(rel):
            yield rel, p.read_text(encoding="utf-8")


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def ref_files(root, ref):
    for rel in git(root, "ls-tree", "-r", "--name-only", ref, "src/").split():
        if counted(rel):
            yield rel, git(root, "show", f"{ref}:{rel}")


def with_total(table):
    total = dict.fromkeys(KINDS, 0)
    for row in table.values():
        for kind in KINDS:
            total[kind] += row[kind]
    return {**table, "total": total}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="git ref to compare against")
    ap.add_argument("root", nargs="?", default=".")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    now = with_total(tally(worktree_files(root)))
    base = with_total(tally(ref_files(root, args.base))) if args.base else {}
    modules = sorted(set(now) | set(base), key=lambda m: (m == "total", m))
    zero = dict.fromkeys(KINDS, 0)

    header = f"{'module':<12}" + "".join(f"{k:>16}" for k in KINDS) + \
        f"{'lines':>16}"
    print(header if not args.base else header + f"   (change from {args.base})")
    for m in modules:
        row, old = now.get(m, zero), base.get(m, zero)
        cells = [row[k] for k in KINDS] + [sum(row.values())]
        olds = [old[k] for k in KINDS] + [sum(old.values())]
        if args.base:
            text = "".join(f"{c:>9} {c - o:>+6}" for c, o in zip(cells, olds))
        else:
            text = "".join(f"{c:>16}" for c in cells)
        print(f"{m:<12}{text}")


if __name__ == "__main__":
    main()
