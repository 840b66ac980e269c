"""Shared plumbing for the soak gate scripts.

check_soak.py and check_daemon.py read a `--metrics-out` snapshot, pull
a handful of counters, and fail the build when a scored rate crosses a
threshold; the other checkers share the error reporting.  The thresholds
and the scoring stay in each gate; the snapshot loading, counter access,
series digests, flight-recorder dump, and uniform error reporting live
here so the scripts cannot drift apart.
"""

import json
import sys


def make_die(tool):
    """An exit-with-error printer prefixed with the tool's name."""

    def die(msg):
        print(f"{tool}: {msg}", file=sys.stderr)
        sys.exit(1)

    return die


def load_metrics(path, die):
    """The 'metrics' dict of a --metrics-out snapshot, or die trying."""
    try:
        with open(path, encoding="utf-8") as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"{path}: {e}")
    metrics = snap.get("metrics")
    if not isinstance(metrics, dict):
        die(f"{path}: missing 'metrics' section")
    return metrics


def counter_reader(metrics, path, die, producer):
    """A numeric-counter reader that dies naming the producing bench."""

    def counter(name):
        value = metrics.get(name)
        if not isinstance(value, (int, float)):
            die(f"{path}: missing counter '{name}' "
                f"(was this snapshot produced by {producer}?)")
        return value

    return counter


def require_activity(diagnosed, minimum, die):
    """Fail a silently idle soak instead of green-lighting it."""
    if diagnosed < minimum:
        die(f"only {diagnosed} messages diagnosed "
            f"(need >= {minimum}); the soak ran effectively idle")


def series_reader(metrics, path, die, producer):
    """A windowed-series reader (returns the trimmed values list).

    Series are the `<counter>.by_minute` objects a --metrics-out snapshot
    carries next to the counters (see OBSERVABILITY.md "Windowed series").
    """

    def series(name):
        value = metrics.get(name)
        if not isinstance(value, dict) or "values" not in value:
            die(f"{path}: missing series '{name}' "
                f"(was this snapshot produced by {producer}?)")
        return value["values"]

    return series


def describe_series(values, window_seconds=60):
    """One-line 'peak N in minute M' summary for gate output."""
    if not values:
        return "quiet (no non-zero windows)"
    peak = max(values)
    minute = values.index(peak) * window_seconds // 60
    return (f"{sum(values)} across {len(values)} windows, "
            f"peak {peak} in minute {minute}")


def flight_tail(spans_path, last_n=40):
    """The last `last_n` sim-clock events of a --spans-out trace.

    Returns formatted lines, oldest first — the flight-recorder dump the
    gates print when a threshold trips, so the post-mortem starts from the
    events leading up to the failure instead of a re-run.
    """
    with open(spans_path, encoding="utf-8") as f:
        trace = json.load(f)
    events = [e for e in trace.get("traceEvents", [])
              if e.get("cat") == "sim"]
    lines = [f"--- flight recorder: last {min(last_n, len(events))} of "
             f"{len(events)} sim events ({spans_path}) ---"]
    for e in events[-last_n:]:
        args = e.get("args", {})
        lines.append(
            f"  t={e.get('ts', '?'):>14} dur={e.get('dur', 0):>12} "
            f"{e.get('name', '?'):<20} scope={args.get('scope', 0):#x} "
            f"causal={args.get('causal', 0)} arg={args.get('arg', 0)}")
    dropped = trace.get("otherData", {}).get("dropped", 0)
    if dropped:
        lines.append(f"  ({dropped} older events overwritten in the ring)")
    return lines


def with_flight(die, spans_path, last_n=40):
    """Wraps `die` to dump the flight-recorder tail before failing."""
    if not spans_path:
        return die

    def flight_die(msg):
        try:
            for line in flight_tail(spans_path, last_n):
                print(line, file=sys.stderr)
        except (OSError, json.JSONDecodeError, KeyError) as e:
            print(f"(flight recorder unavailable: {e})", file=sys.stderr)
        die(msg)

    return flight_die
