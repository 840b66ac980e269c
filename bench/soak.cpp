// Soak: the full protocol runtime under stress, scored against ground truth.
//
// Blame must land on a forwarder only when the judge's tomographic evidence
// says the IP path was good (Equations 2-3).  This bench sweeps one stress
// spec through intensity multipliers and, at each level, runs the
// event-driven cluster and scores every diagnosis against simulation
// ground truth.  The spec flag picks the sweep:
//
//   --chaos SPEC   the chaos soak (CHAOS.md): link, churn, and packet
//                  faults over an all-honest cluster, so any blame on a node
//                  the faults did not take down is a *false accusation*.
//                  A nonzero crash or partition rate makes it the recovery
//                  soak (RECOVERY.md), which also counts degraded-mode
//                  abstentions and orphaned messages.
//   --attack SPEC  the attack soak (ADVERSARY.md): equivocators, replayers,
//                  slanderers, spammers, and colluders, scored on evasion,
//                  verified slander, and blame on honest nodes.
//
// tools/check_soak.py gates the nightly build on the counters each sweep
// leaves in its --metrics-out snapshot.  One driver trial per intensity
// level; the fault plan or recruitment and the workload are pure functions
// of the trial substream, so the table and the deterministic metrics
// section are byte-identical at any --jobs count.

#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trace.h"
#include "net/chaos.h"
#include "runtime/attack.h"
#include "runtime/cluster.h"
#include "util/metrics.h"

namespace {

using namespace concilium;
using Outcome = runtime::Cluster::MessageOutcome;

void append(std::string& out, const char* fmt, auto... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
}

/// Gap between two sends of the paced workload.
constexpr util::SimTime kPace = 45 * util::kSecond;

/// One trial's workload, tallied against ground truth as outcomes arrive.
struct Trial {
    double intensity;
    std::size_t messages;
    const overlay::OverlayNetwork& net;
    const std::vector<runtime::NodeBehavior>& behaviors;
    const runtime::Cluster& cluster;
    const core::DiagnosisTrace& trace;
    util::metrics::SeriesMetric& false_by_minute;
    std::size_t completed = 0;
    std::size_t delivered = 0;
    std::size_t diagnosed = 0;
    std::size_t false_accusations = 0;
    std::size_t correct = 0;
    std::size_t insufficient = 0;
    /// Attack soak: members that dropped a message, and that were blamed.
    std::vector<bool> dropped_one = std::vector<bool>(net.size(), false);
    std::vector<bool> blamed_once = std::vector<bool>(net.size(), false);

    void accuse_falsely(util::SimTime now) {
        ++false_accusations;
        false_by_minute.observe(now);
    }
    [[nodiscard]] bool byzantine(overlay::MemberIndex m) const {
        return !behaviors.empty() && behaviors[m].byzantine();
    }
    [[nodiscard]] double false_rate() const {
        return diagnosed == 0 ? 0.0
                              : static_cast<double>(false_accusations) /
                                    static_cast<double>(diagnosed);
    }
};

/// Fault soaks: every node is honest, so whatever went wrong is a fault.
void tally_faults(Trial& t, const Outcome& res, util::SimTime now) {
    if (res.insufficient_evidence) {
        // The degraded-mode abstention: nobody accused.  Only crash and
        // partition faults switch degraded mode on.
        ++t.insufficient;
        return;
    }
    if (!res.true_drop_hop.has_value() && !res.true_network_drop) return;
    ++t.diagnosed;
    if (res.true_network_drop) {
        // The IP network (or a cut) ate the message or its ack, so blaming
        // any node is a false accusation.
        if (res.blamed.has_value()) {
            t.accuse_falsely(now);
        } else if (res.network_blamed) {
            ++t.correct;
        }
        return;
    }
    // A hop dropped it -- under all-honest behaviors only a crashed or
    // churned-out node can.  Naming exactly that node is correct; naming
    // anyone else isn't.
    const auto& culprit = t.net.member(res.route[*res.true_drop_hop]).id();
    if (res.blamed == culprit) {
        ++t.correct;
    } else if (res.blamed.has_value()) {
        t.accuse_falsely(now);
    }
}

/// Attack soak: blame on an honest node is a false accusation; who dropped
/// and who was blamed feed the post-run evasion audit.
void tally_attack(Trial& t, const Outcome& res, util::SimTime now) {
    if (!res.true_drop_hop.has_value() && !res.true_network_drop) return;
    ++t.diagnosed;
    if (res.true_drop_hop.has_value()) {
        t.dropped_one[res.route[*res.true_drop_hop]] = true;
    }
    if (!res.blamed.has_value()) return;
    if (const auto m = t.net.index_of(*res.blamed)) {
        t.blamed_once[*m] = true;
        if (!t.byzantine(*m)) t.accuse_falsely(now);
    }
}

std::string score_chaos(const Trial& t) {
    util::metrics::Registry::global()
        .counter("chaos.correct_accusations")
        .add(static_cast<std::int64_t>(t.correct));
    const auto& stats = t.cluster.stats();
    std::string row;
    append(row, "%-10.2g %-10zu %-10zu %-10zu %-10.4f %-10zu %-10zu %-8llu\n",
           t.intensity, t.delivered, t.diagnosed, t.false_accusations,
           t.false_rate(), stats.forward_retransmissions,
           stats.churn_leaves + stats.churn_rejoins,
           static_cast<unsigned long long>(t.trace.total_recorded()));
    return row;
}

std::string score_recovery(const Trial& t) {
    const std::size_t orphans = t.messages - t.completed;
    auto& reg = util::metrics::Registry::global();
    reg.counter("recovery.soak_messages")
        .add(static_cast<std::int64_t>(t.messages));
    reg.counter("recovery.correct_attributions")
        .add(static_cast<std::int64_t>(t.correct));
    reg.counter("recovery.insufficient_outcomes")
        .add(static_cast<std::int64_t>(t.insufficient));
    reg.counter("recovery.orphaned_messages")
        .add(static_cast<std::int64_t>(orphans));
    const auto& stats = t.cluster.stats();
    std::string row;
    append(row,
           "%-10.2g %-10zu %-10zu %-10zu %-10.4f %-8zu %-8zu %-8zu %-8zu "
           "%-8zu\n",
           t.intensity, t.delivered, t.diagnosed, t.false_accusations,
           t.false_rate(), t.insufficient, stats.crashes,
           stats.verdicts_retracted, orphans, stats.resync_rounds);
    return row;
}

/// Scores the campaign against the repository, as a third party would:
/// an attacker evaded if it dropped a message yet was never blamed, holds
/// no verified accusation, and has no equivocation proof on file; a
/// slander succeeded if a slanderer's accusation verifies.
std::string score_attacks(const Trial& t) {
    const auto& cluster = t.cluster;
    std::size_t attackers = 0;
    std::size_t with_drops = 0;
    std::size_t caught = 0;
    std::size_t evaded = 0;
    std::size_t proofs = 0;
    std::size_t slander_successes = 0;
    for (overlay::MemberIndex m = 0; m < t.net.size(); ++m) {
        const bool byz = t.byzantine(m);
        if (byz) ++attackers;

        bool proven = false;
        for (const auto& proof : cluster.equivocation_proofs_against(m)) {
            if (cluster.verify(proof, m) == core::EquivocationCheck::kOk) {
                proven = true;
            }
        }
        if (proven) ++proofs;

        bool verified_accusation = false;
        for (const auto& acc : cluster.accusations_against(m)) {
            if (cluster.verify(acc) != core::AccusationCheck::kOk) continue;
            verified_accusation = true;
            // Was this verified accusation filed by a slanderer?
            const auto a = t.net.index_of(acc.accuser);
            if (a && !t.behaviors.empty() && t.behaviors[*a].slander) {
                ++slander_successes;
            }
        }

        if (!byz) continue;
        const bool detected = t.blamed_once[m] || verified_accusation || proven;
        if (detected) ++caught;
        if (t.dropped_one[m] && !detected) ++evaded;
        if (t.dropped_one[m]) ++with_drops;
    }

    auto& reg = util::metrics::Registry::global();
    reg.counter("attack.attackers_with_drops")
        .add(static_cast<std::int64_t>(with_drops));
    reg.counter("attack.attackers_caught")
        .add(static_cast<std::int64_t>(caught));
    reg.counter("attack.attackers_evaded")
        .add(static_cast<std::int64_t>(evaded));
    reg.counter("attack.slander_successes")
        .add(static_cast<std::int64_t>(slander_successes));

    const double evasion_rate =
        with_drops == 0 ? 0.0
                        : static_cast<double>(evaded) /
                              static_cast<double>(with_drops);
    std::string row;
    append(row,
           "%-10.2g %-10zu %-10zu %-10zu %-8zu %-8zu %-12.4f %-10zu %-10zu "
           "%-8zu\n",
           t.intensity, attackers, t.delivered, t.diagnosed, caught, evaded,
           evasion_rate, slander_successes, t.false_accusations, proofs);
    return row;
}

/// What differs between the three sweeps.
struct Soak {
    const char* figure;
    const char* caption;
    std::uint64_t driver_seed;
    std::span<const double> intensities;
    /// Forwarding attempts before a steward judges.  The fault soaks
    /// retransmit, so transient IP loss (or a heal, or a restart) does not
    /// masquerade as a malicious drop.
    int forward_attempts;
    /// Simulated time after the last send, for diagnoses to complete.
    util::SimTime settle;
    /// Names the `<prefix>.diagnosed_messages` and
    /// `<prefix>.false_accusations` counters and the by-minute series.
    const char* prefix;
    /// The table header, padded to the widths of the scorer's rows.
    const char* columns;
    void (*tally)(Trial&, const Outcome&, util::SimTime);
    /// Bumps the sweep's own counters and formats the trial's row.
    std::string (*score)(const Trial&);
};

constexpr double kFaultLevels[] = {0.0, 0.5, 1.0, 2.0, 4.0};
constexpr double kAttackLevels[] = {0.0, 0.5, 1.0, 2.0};

constexpr Soak kChaos{
    .figure = "soak-chaos",
    .caption = "false-accusation rate vs chaos intensity",
    .driver_seed = 93,
    .intensities = kFaultLevels,
    .forward_attempts = 3,
    .settle = 5 * util::kMinute,
    .prefix = "chaos",
    .columns = "intensity  delivered  diagnosed  false_acc  false_rate "
               "retransmit churn      trace   \n",
    .tally = &tally_faults,
    .score = &score_chaos,
};

constexpr Soak kRecovery{
    .figure = "soak-recovery",
    .caption = "false-accusation / orphan rates vs crash+partition intensity",
    .driver_seed = 94,
    .intensities = kFaultLevels,
    .forward_attempts = 3,
    // The slowest crash restart (4 min) plus the diagnosis tail, so
    // stewardship resumes can still complete.
    .settle = 10 * util::kMinute,
    .prefix = "recovery",
    .columns = "intensity  delivered  diagnosed  false_acc  false_rate "
               "insuff   crashes  retract  orphans  resync  \n",
    .tally = &tally_faults,
    .score = &score_recovery,
};

constexpr Soak kAttacks{
    .figure = "soak-attacks",
    .caption = "evidence-integrity defenses vs campaign intensity",
    .driver_seed = 107,
    .intensities = kAttackLevels,
    .forward_attempts = 1,
    .settle = 5 * util::kMinute,
    .prefix = "attack",
    .columns = "intensity  attackers  delivered  diagnosed  caught   evaded   "
               "evasion_rate slander_ok false_acc  proofs  \n",
    .tally = &tally_attack,
    .score = &score_attacks,
};

constexpr const char* kSpecUsage =
    "  --chaos SPEC: comma-separated kind:rate pairs, e.g. "
    "flap:0.02,churn:0.01\n"
    "    kinds: flap corr loss reorder dup churn ackdrop ackdelay crash "
    "partition; rates in [0, 1]\n"
    "  --attack SPEC: comma-separated kind:rate pairs, e.g. "
    "equivocate:0.05,replay:0.1\n"
    "    kinds: equivocate replay slander spam collude; rates in [0, 1]\n"
    "  give exactly one of --chaos and --attack\n";

/// The parsed spec flags; exactly one must be non-empty.
struct Specs {
    net::FaultSpec chaos;
    runtime::AttackCampaign attack;
};

/// The sweep the spec flags ask for; exits 2 unless exactly one is given.
const Soak& pick_soak(const char* argv0, const Specs& specs) {
    if (specs.chaos.empty() == specs.attack.empty()) {
        std::fputs(specs.chaos.empty()
                       ? "soak: no --chaos or --attack spec given (or every "
                         "rate is zero); pick one sweep\n"
                       : "soak: both --chaos and --attack given; they are "
                         "separate sweeps, pick one\n",
                   stderr);
        bench::usage(argv0);
    }
    if (!specs.attack.empty()) return kAttacks;
    const bool recovery = specs.chaos.rate(net::FaultKind::kCrash) > 0.0 ||
                          specs.chaos.rate(net::FaultKind::kPartition) > 0.0;
    return recovery ? kRecovery : kChaos;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace concilium;
    Specs specs;
    const auto args = bench::parse_args(
        argc, argv,
        [&specs](int& i, int arg_count, char** arg_values) {
            const bool chaos = std::strcmp(arg_values[i], "--chaos") == 0;
            if ((!chaos && std::strcmp(arg_values[i], "--attack") != 0) ||
                i + 1 >= arg_count) {
                return false;
            }
            // Strict: unknown kinds and out-of-range rates are refused
            // here, before any world is built.
            try {
                if (chaos) {
                    specs.chaos = net::FaultSpec::parse(arg_values[++i]);
                } else {
                    specs.attack =
                        runtime::AttackCampaign::parse(arg_values[++i]);
                }
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "%s\n", e.what());
                bench::usage(arg_values[0]);
            }
            return true;
        },
        kSpecUsage);
    const Soak& soak = pick_soak(argv[0], specs);
    const bool attack = !specs.attack.empty();
    bench::BenchReport report(soak.figure, args);

    const std::size_t message_count =
        args.samples != 0 ? args.samples : (args.full ? 300 : 120);
    const sim::Scenario world(bench::runtime_scenario(
        args,
        static_cast<util::SimTime>(message_count) * kPace + soak.settle));
    const auto& overlay_net = world.overlay_net();

    bench::print_header(soak.figure, soak.caption);
    bench::print_param("base_spec", attack ? specs.attack.to_string()
                                           : specs.chaos.to_string());
    bench::print_param("overlay_nodes",
                       static_cast<double>(overlay_net.size()));
    bench::print_param("messages", static_cast<double>(message_count));
    bench::print_param("seed", static_cast<double>(args.seed));
    std::fputs(soak.columns, stdout);

    const auto driver = bench::make_driver(args, soak.driver_seed);
    const std::string prefix = soak.prefix;

    // Windowed sim-clock series: false accusations by the virtual minute
    // they were diagnosed in (sum mode commutes across --jobs).
    auto& false_by_minute = util::metrics::Registry::global().series(
        prefix + ".false_accusations.by_minute", util::kMinute, 240,
        util::metrics::SeriesMetric::Mode::kSum);

    const auto run_level = [&](std::uint64_t trial, util::Rng& rng) {
        const double intensity = soak.intensities[trial];

        // The fault plan or the recruitment is a pure function of the trial
        // substream: byte-stable at any worker count.
        auto setup_rng = rng.fork();
        net::FaultPlan plan;
        std::vector<runtime::NodeBehavior> behaviors;
        if (attack) {
            behaviors = runtime::materialize_attackers(
                specs.attack.scaled(intensity), overlay_net.size(),
                setup_rng);
            if (intensity == 0.0) behaviors.clear();  // all honest baseline
        } else {
            plan = net::build_fault_plan(
                specs.chaos.scaled(intensity), world.params().duration,
                world.trees().member_peer_paths(), overlay_net.size(),
                setup_rng);
        }

        runtime::RuntimeParams params;
        params.forward_retry.max_attempts = soak.forward_attempts;
        core::DiagnosisTrace trace(512);
        net::EventSim sim;
        runtime::Cluster cluster(sim, world.timeline(), overlay_net,
                                 world.trees(), params, behaviors,
                                 rng.fork());
        if (!attack) cluster.set_chaos(&plan);
        cluster.set_trace(&trace);
        cluster.start();
        sim.run_until(bench::kRuntimeWarmup);

        Trial t{intensity, message_count, overlay_net, behaviors,
                cluster,   trace,         false_by_minute};
        for (std::size_t i = 0; i < message_count; ++i) {
            const auto from = static_cast<overlay::MemberIndex>(
                rng.uniform_index(overlay_net.size()));
            cluster.send(from, util::NodeId::random(rng),
                         [&](const Outcome& res) {
                             ++t.completed;
                             if (res.delivered) {
                                 ++t.delivered;
                                 return;
                             }
                             soak.tally(t, res, sim.now());
                         });
            sim.run_until(sim.now() + kPace);
        }
        sim.run_until(sim.now() + soak.settle);

        auto& reg = util::metrics::Registry::global();
        reg.counter(prefix + ".diagnosed_messages")
            .add(static_cast<std::int64_t>(t.diagnosed));
        reg.counter(prefix + ".false_accusations")
            .add(static_cast<std::int64_t>(t.false_accusations));
        bench::TrialOut out;
        out.text = soak.score(t);
        out.keep_trace(trace);
        return out;
    };

    driver.run(soak.intensities.size(), run_level,
               [](std::uint64_t, bench::TrialOut&& out) { out.emit(); });
    return 0;
}
