#!/usr/bin/env python3
"""Regression gate on the soak sweeps' ground-truth scores.

The nightly workflow runs `soak --chaos SPEC` and `soak --attack SPEC`
with `--metrics-out` and feeds each snapshot here.  The bench scores every
diagnosed message against simulation ground truth and leaves its counters
under one family prefix.  This script gates every family whose
`<family>.diagnosed_messages` counter is nonzero, and fails a snapshot in
which none is -- a silently idle soak must not pass.  Every gated family
needs at least 10 diagnosed messages, and then:

  chaos     all-honest cluster under link and churn faults (soak --chaos
            without crash or partition): chaos.false_accusations /
            diagnosed <= 0.3.  The sweep runs up to 4x on a world whose
            baseline failure timeline already produces some ambiguous
            diagnoses, so the budget is looser than the healthy-world rate.
  recovery  all-honest cluster under crash and partition faults:
            recovery.false_accusations / diagnosed <= 0.25 (the
            intensity-0 level keeps the plain lossy-IP baseline in the
            denominator, and the 4x level is deliberately brutal);
            recovery.orphaned_messages / soak_messages <= 0.02 (crash
            recovery must close out virtually every stewardship); and
            crashes imply restarts (journal recovery ran).
  attack    Byzantine campaign (soak --attack):
            attack.attackers_evaded / attackers_with_drops <= 0.25;
            attack.slander_successes == 0 (slander must never verify); and
            attack.false_accusations / diagnosed <= 0.1.

Usage:
  check_soak.py SNAPSHOT.json [--flight SPANS.json]

  --flight SPANS.json  on failure, dump the last sim events of this
                       --spans-out trace (the flight-recorder post-mortem)
"""

import argparse
import sys

import gatelib

die = gatelib.make_die("check_soak")

MIN_DIAGNOSED = 10
CHAOS_MAX_FALSE_RATE = 0.3
RECOVERY_MAX_FALSE_RATE = 0.25
RECOVERY_MAX_ORPHAN_RATE = 0.02
ATTACK_MAX_EVASION = 0.25
ATTACK_MAX_SLANDER = 0
ATTACK_MAX_FALSE_RATE = 0.1


def check_chaos(path, counter, series, fail):
    diagnosed = counter("chaos.diagnosed_messages")
    false_acc = counter("chaos.false_accusations")
    correct = counter("chaos.correct_accusations")
    by_minute = series("chaos.false_accusations.by_minute")

    rate = false_acc / diagnosed
    print(f"{path}: diagnosed={diagnosed} correct={correct} "
          f"false={false_acc} rate={rate:.4f} (max {CHAOS_MAX_FALSE_RATE})")
    print(f"  by minute: {gatelib.describe_series(by_minute)}")
    if rate > CHAOS_MAX_FALSE_RATE:
        fail(f"chaos false-accusation rate {rate:.4f} exceeds "
             f"{CHAOS_MAX_FALSE_RATE}")


def check_recovery(path, counter, series, fail):
    sent = counter("recovery.soak_messages")
    diagnosed = counter("recovery.diagnosed_messages")
    false_acc = counter("recovery.false_accusations")
    correct = counter("recovery.correct_attributions")
    insufficient = counter("recovery.insufficient_outcomes")
    orphans = counter("recovery.orphaned_messages")
    crashes = counter("recovery.crashes")
    restarts = counter("recovery.restarts")
    by_minute = series("recovery.false_accusations.by_minute")

    if crashes > 0 and restarts == 0:
        fail(f"{crashes} crashes but no restarts; journal recovery never ran")

    false_rate = false_acc / diagnosed
    orphan_rate = 0.0 if sent == 0 else orphans / sent
    print(f"{path}: diagnosed={diagnosed} correct={correct} "
          f"insufficient={insufficient} false={false_acc} "
          f"(rate {false_rate:.4f}, max {RECOVERY_MAX_FALSE_RATE}) "
          f"orphans={orphans}/{sent} (rate {orphan_rate:.4f}, "
          f"max {RECOVERY_MAX_ORPHAN_RATE}) crashes={crashes}")
    print(f"  false by minute: {gatelib.describe_series(by_minute)}")
    if false_rate > RECOVERY_MAX_FALSE_RATE:
        fail(f"recovery false-accusation rate {false_rate:.4f} exceeds "
             f"{RECOVERY_MAX_FALSE_RATE}")
    if orphan_rate > RECOVERY_MAX_ORPHAN_RATE:
        fail(f"orphan rate {orphan_rate:.4f} exceeds "
             f"{RECOVERY_MAX_ORPHAN_RATE}")


def check_attack(path, counter, series, fail):
    diagnosed = counter("attack.diagnosed_messages")
    false_acc = counter("attack.false_accusations")
    with_drops = counter("attack.attackers_with_drops")
    caught = counter("attack.attackers_caught")
    evaded = counter("attack.attackers_evaded")
    slander = counter("attack.slander_successes")
    by_minute = series("attack.false_accusations.by_minute")

    evasion_rate = 0.0 if with_drops == 0 else evaded / with_drops
    false_rate = false_acc / diagnosed
    print(f"{path}: diagnosed={diagnosed} caught={caught} "
          f"evaded={evaded}/{with_drops} (rate {evasion_rate:.4f}, "
          f"max {ATTACK_MAX_EVASION}) slander={slander} "
          f"(max {ATTACK_MAX_SLANDER}) false={false_acc} "
          f"(rate {false_rate:.4f}, max {ATTACK_MAX_FALSE_RATE})")
    print(f"  false by minute: {gatelib.describe_series(by_minute)}")
    if evasion_rate > ATTACK_MAX_EVASION:
        fail(f"evasion rate {evasion_rate:.4f} exceeds {ATTACK_MAX_EVASION}")
    if slander > ATTACK_MAX_SLANDER:
        fail(f"{slander} slander accusations verified "
             f"(max {ATTACK_MAX_SLANDER}); the hardened verifier has a hole")
    if false_rate > ATTACK_MAX_FALSE_RATE:
        fail(f"attack false-accusation rate {false_rate:.4f} exceeds "
             f"{ATTACK_MAX_FALSE_RATE}")


FAMILIES = {
    "chaos": check_chaos,
    "recovery": check_recovery,
    "attack": check_attack,
}


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot")
    parser.add_argument("--flight", default=None)
    args = parser.parse_args(argv[1:])

    fail = gatelib.with_flight(die, args.flight)
    metrics = gatelib.load_metrics(args.snapshot, fail)
    counter = gatelib.counter_reader(metrics, args.snapshot, fail, "soak")
    series = gatelib.series_reader(metrics, args.snapshot, fail, "soak")

    gated = [family for family in FAMILIES
             if counter(f"{family}.diagnosed_messages") > 0]
    if not gated:
        fail("no soak family diagnosed a message "
             f"({', '.join(f + '.diagnosed_messages' for f in FAMILIES)} "
             "are all 0); the soak ran effectively idle")
    for family in gated:
        gatelib.require_activity(counter(f"{family}.diagnosed_messages"),
                                 MIN_DIAGNOSED, fail)
        FAMILIES[family](args.snapshot, counter, series, fail)
    print("ok")


if __name__ == "__main__":
    main(sys.argv)
