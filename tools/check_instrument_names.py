#!/usr/bin/env python3
"""Lint: instrument registrations, catalogue, schema, and docs must agree.

Four artifacts name the metrics instruments and they drift independently:

  1. literal registration sites -- counter("...") / gauge("...") /
     histogram("...") / series("...") calls in src/ and bench/, and the
     metrics the kStatTable[] rows in src/runtime/owners.h mirror (each
     stat count adds to its row's mirror through one cached lookup)
  2. the kWellKnown[] / kWellKnownSeries[] catalogue in src/util/metrics.cpp
     (pre-registers every instrument so snapshots never omit a namespace)
  3. tools/metrics_schema_keys.txt (the exact key set check_metrics.py
     validates snapshots against)
  4. OBSERVABILITY.md (the namespace documentation)

This lint fails the build when they disagree:

  * a registration site uses a name missing from the catalogue (the
    snapshot would grow a key check_metrics.py rejects)
  * the catalogue and the schema key file differ in either direction
  * a catalogue namespace prefix is undocumented in OBSERVABILITY.md

Usage:  check_instrument_names.py [REPO_ROOT]
"""

import pathlib
import re
import sys

from gatelib import make_die

die = make_die("check_instrument_names")

# A registration: one of the registry entry points with a literal name.
# \s* spans newlines, so clang-format'ed multi-line calls still match.
REGISTRATION = re.compile(
    r"\b(?:timing_)?(?:counter|gauge|histogram|series|minute_series)"
    r"\(\s*\"([a-z0-9_]+(?:\.[a-z0-9_]+)+)\"")

CATALOGUE_ENTRY = re.compile(
    r"\{WellKnown::k(?:Counter|Gauge|Histogram),\s*\"([^\"]+)\""
    r"(?:,\s*(true|false))?")

SERIES_ENTRY = re.compile(r"\{\"([^\"]+)\"")

# A mirrored metric name inside a kStatTable[] row.
MIRROR = re.compile(r"\"([a-z0-9_]+(?:\.[a-z0-9_]+)+)\"")
STAT_TABLE = "src/runtime/owners.h"


def scrape_registrations(root):
    names = {}
    for subdir in ("src", "bench", "tools"):
        for path in sorted((root / subdir).rglob("*")):
            if path.suffix not in (".cpp", ".h"):
                continue
            if path.name == "metrics.cpp":
                continue  # the catalogue itself; parsed separately
            text = path.read_text(encoding="utf-8")
            for m in REGISTRATION.finditer(text):
                names.setdefault(m.group(1), path.relative_to(root))
    return names


def scrape_stat_mirrors(root):
    text = (root / STAT_TABLE).read_text(encoding="utf-8")
    start = text.find("kStatTable[]")
    end = text.find("};", start)
    if start < 0 or end < 0:
        die(f"{STAT_TABLE}: cannot locate kStatTable[]")
    mirrors = [m.group(1) for m in MIRROR.finditer(text[start:end])]
    if not mirrors:
        die(f"{STAT_TABLE}: kStatTable[] parse came up empty")
    return mirrors


def parse_catalogue(root):
    text = (root / "src/util/metrics.cpp").read_text(encoding="utf-8")

    start = text.find("kWellKnown[]")
    end = text.find("};", start)
    if start < 0 or end < 0:
        die("metrics.cpp: cannot locate kWellKnown[]")
    deterministic, timing = set(), set()
    for m in CATALOGUE_ENTRY.finditer(text[start:end]):
        (timing if m.group(2) == "true" else deterministic).add(m.group(1))

    start = text.find("kWellKnownSeries[]")
    end = text.find("};", start)
    if start < 0 or end < 0:
        die("metrics.cpp: cannot locate kWellKnownSeries[]")
    series = {m.group(1) for m in SERIES_ENTRY.finditer(text[start:end])}

    if not deterministic or not series:
        die("metrics.cpp: catalogue parse came up empty")
    return deterministic, timing, series


def parse_schema(root):
    expected = {"metrics": set(), "timing": set()}
    path = root / "tools/metrics_schema_keys.txt"
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        section, _, name = line.partition("\t")
        if section not in expected or not name:
            die(f"{path}: malformed line {line!r}")
        expected[section].add(name)
    return expected


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    registrations = scrape_registrations(root)
    mirrors = scrape_stat_mirrors(root)
    for name in mirrors:
        registrations.setdefault(name, pathlib.Path(STAT_TABLE))
    deterministic, timing, series = parse_catalogue(root)
    catalogue = deterministic | timing | series
    schema = parse_schema(root)

    rogue = sorted(n for n in registrations if n not in catalogue)
    if rogue:
        where = ", ".join(f"{n} ({registrations[n]})" for n in rogue)
        die(f"registration sites not in the kWellKnown catalogue "
            f"(src/util/metrics.cpp): {where}")

    want_metrics = deterministic | series
    if want_metrics != schema["metrics"]:
        missing = sorted(want_metrics - schema["metrics"])
        extra = sorted(schema["metrics"] - want_metrics)
        die(f"metrics_schema_keys.txt drifted from the catalogue: "
            f"missing={missing} extra={extra}")
    if timing != schema["timing"]:
        die(f"timing keys drifted: catalogue={sorted(timing)} "
            f"schema={sorted(schema['timing'])}")

    doc = (root / "OBSERVABILITY.md").read_text(encoding="utf-8")
    prefixes = sorted({name.split(".", 1)[0] + "." for name in catalogue})
    undocumented = [p for p in prefixes if p not in doc]
    if undocumented:
        die(f"OBSERVABILITY.md does not mention namespace(s) "
            f"{undocumented}")

    print(f"check_instrument_names: ok ({len(registrations)} registration "
          f"sites, {len(mirrors)} stat mirrors, {len(catalogue)} catalogued "
          f"instruments, {len(prefixes)} documented namespaces)")


if __name__ == "__main__":
    main(sys.argv)
