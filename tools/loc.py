#!/usr/bin/env python3
"""Line counts and config surface of src/, per module and per struct.

Lines: a module is a directory directly under src/ (files at src/ itself
count as "(top)").  C++ sources and headers and CMakeLists.txt files are
counted; a line is blank when it holds only whitespace, comment-only when
all it holds is a // or # comment or lies inside a /* ... */ block, and
code otherwise.

Config surface: every struct under src/ named *Params, *Options or
*Policy.  "fields" counts its data members (static ones are not settable
per object and do not count); "values" counts what a caller can set
through it, a member whose type is another such struct counting as that
struct's values.  With --base, the last line sums the members deleted and
added across all structs, each weighted by its values, so a value retired
from a nested struct is counted once, where it was declared.

With --base REF the same counts are taken from the committed tree at REF
and each cell also shows its change, so "net lines of code" and "settable
values" are commands, not hand counts.  Report only: the exit status is 0
whatever the numbers.

Usage:  loc.py [--base REF] [REPO_ROOT]
"""

import argparse
import pathlib
import re
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


CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w+(?:Params|Options|Policy))\s*\{")
NOT_MEMBERS = ("static ", "using ", "typedef ", "friend ", "template")
TYPE_KEYS = ("enum", "struct", "class", "union")


def strip_comments(text):
    """The C++ text with comments blanked; string literals kept intact."""
    out, i, n = [], 0, len(text)
    while i < n:
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        elif text[i] in "\"'":
            j = i + 1
            while j < n and text[j] != text[i]:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def top_level(text, stop):
    """Index of the first character of `stop` outside any bracket pair."""
    depth = 0
    for i, ch in enumerate(text):
        if ch in stop and depth == 0:
            return i
        depth += 1 if ch in "([{<" else -1 if ch in ")]}>" else 0
    return len(text)


def statements(body):
    """Top-level statements of a struct body; a function body ends one."""
    out, cur, depth = [], [], 0
    for ch in body:
        cur.append(ch)
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            stmt = "".join(cur)
            if ch == "}" and depth == 0 and "(" in stmt[:top_level(stmt, "{")]:
                out.append(stmt)  # an inline member function
                cur = []
        elif ch == ";" and depth == 0:
            out.append("".join(cur[:-1]))
            cur = []
    return out


def members(body):
    """[(name, type tail)] for each data member declared in `body`."""
    found = []
    for stmt in statements(body):
        stmt = re.sub(r"\b(?:public|private|protected)\s*:", "", stmt)
        stmt = re.sub(r"\[\[.*?\]\]", "", stmt).strip()
        if not stmt or stmt.startswith(NOT_MEMBERS) or (
                stmt.startswith(TYPE_KEYS) and stmt.endswith("}")):
            continue  # not a data member, or a nested type's declaration
        tail = stmt[stmt.rfind("}") + 1:] if stmt.startswith("enum") else stmt
        declarator = tail[:top_level(tail, "={")].strip()
        if "(" in declarator or not declarator:
            continue  # a member function declaration
        words = re.findall(r"\w+", declarator)
        found.append((words[-1], words[-2] if len(words) > 1 else ""))
    return found


def config_structs(files):
    """{name: (module, [(member, type)])} for every config struct."""
    table = {}
    for path, text in files:
        if not path.endswith(SUFFIXES):
            continue
        text = strip_comments(text)
        for m in CONFIG_STRUCT.finditer(text):
            start, depth = m.end() - 1, 0
            for end in range(start, len(text)):
                depth += {"{": 1, "}": -1}.get(text[end], 0)
                if depth == 0:
                    break
            table[m.group(1)] = (module_of(path), members(text[start + 1:end]))
    return table


def settable(table):
    """{name: values} -- a member of config-struct type counts its values."""
    memo = {}

    def values(name):
        if name not in memo:
            memo[name] = sum(values(t) if t in table else 1
                             for _, t in table[name][1])
        return memo[name]

    return {name: values(name) for name in table}


def member_change(now, base):
    """(fields, values) deleted and added between base and now."""
    weight_now, weight_base = settable(now), settable(base)

    def weighed(table, weights, other):
        fields = vals = 0
        for name, (_, mems) in table.items():
            kept = {m for m, _ in other.get(name, ("", []))[1]}
            for member, kind in mems:
                if member not in kept:
                    fields += 1
                    vals += weights.get(kind, 1)
        return fields, vals

    return weighed(base, weight_base, now), weighed(now, weight_now, base)


def print_config(now, base, ref):
    values_now, values_base = settable(now), settable(base)
    rows = sorted(set(now) | set(base),
                  key=lambda n: ((now.get(n) or base.get(n))[0], n))
    header = f"{'config struct':<40}{'fields':>16}{'values':>16}"
    print("\n" + (header if not ref else header + f"   (change from {ref})"))
    for name in rows:
        module = (now.get(name) or base.get(name))[0]
        cells = [len(now.get(name, ("", []))[1]), values_now.get(name, 0)]
        olds = [len(base.get(name, ("", []))[1]), values_base.get(name, 0)]
        if ref:
            text = "".join(f"{c:>9} {c - o:>+6}" for c, o in zip(cells, olds))
        else:
            text = "".join(f"{c:>16}" for c in cells)
        print(f"{module + '::' + name:<40}{text}")
    fields = sum(len(mems) for _, mems in now.values())
    if ref:
        old = sum(len(mems) for _, mems in base.values())
        print(f"{'total fields':<40}{fields:>9} {fields - old:>+6}")
        (gone, gone_values), (new, new_values) = member_change(now, base)
        print(f"members deleted: {gone} carrying {gone_values} settable "
              f"values; added: {new} carrying {new_values}")
    else:
        print(f"{'total fields':<40}{fields:>16}")


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

    now_files = list(worktree_files(root))
    base_files = list(ref_files(root, args.base)) if args.base else []
    now = with_total(tally(now_files))
    base = with_total(tally(base_files)) if args.base else {}
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
    print_config(config_structs(now_files), config_structs(base_files),
                 args.base)


if __name__ == "__main__":
    main()
