// End-to-end protocol run (this repo's strongest validation).
//
// The figure benches reproduce the paper's evaluation under its analytic
// assumptions; this bench instead runs the full event-driven protocol --
// real striped probes, MINC inference, signed snapshot gossip, forwarding
// commitments, acknowledgments, timeouts, revision pushes, DHT accusations
// -- on a failing network with injected message droppers, and scores the
// final diagnoses against ground truth.
//
// The two phases (targeted dropper stream; background workload + DHT audit)
// are independent simulations, so they run as two experiment-driver trials
// and can overlap on a multi-core machine; their reports print in a fixed
// order regardless of which finishes first.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trace.h"
#include "runtime/cluster.h"

namespace {

using namespace concilium;

void append(std::string& out, const char* fmt, auto... args) {
    char buf[192];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace concilium;
    const auto args = bench::parse_args(argc, argv);
    bench::BenchReport report("runtime_e2e");

    const double dropper_fraction = 0.10;
    const std::size_t message_count =
        args.samples != 0 ? args.samples : (args.full ? 600 : 250);
    // The background workload's pace and settle tail size the world; the
    // targeted phase (60 sends 90 s apart) always fits its two-hour floor.
    const util::SimTime pace = 20 * util::kSecond;
    const util::SimTime settle = 5 * util::kMinute;
    const sim::Scenario world(bench::runtime_scenario(
        args, static_cast<util::SimTime>(message_count) * pace + settle));

    bench::print_header("runtime-e2e",
                        "full protocol run with droppers + link failures");
    bench::print_param("overlay_nodes",
                       static_cast<double>(world.overlay_net().size()));
    bench::print_param("dropper_fraction", dropper_fraction);
    bench::print_param("messages", static_cast<double>(message_count));
    bench::print_param("seed", static_cast<double>(args.seed));

    const auto driver = bench::make_driver(args, 71);

    // 10% of nodes drop half the messages they should forward.  The dropper
    // set comes from the driver's setup stream so both phases see the same
    // behaviors without sharing a mutable generator.
    auto setup = driver.setup_rng();
    std::vector<runtime::NodeBehavior> behaviors(world.overlay_net().size());
    const auto droppers = setup.sample_indices(
        behaviors.size(),
        static_cast<std::size_t>(dropper_fraction * behaviors.size()));
    for (const auto d : droppers) {
        behaviors[d].drop_forward_probability = 0.5;
    }

    const auto& overlay_net = world.overlay_net();

    // --- trial 0: a targeted stream through one deterministic dropper, so
    // forwarder diagnosis and the accusation pipeline get real load.
    const auto targeted_phase = [&](util::Rng& rng) {
        bench::TrialOut phase;
        std::string& out = phase.text;
        std::vector<overlay::MemberIndex> hops;
        overlay::MemberIndex from = 0;
        util::NodeId key;
        for (int attempt = 0; attempt < 50000 && hops.size() < 4; ++attempt) {
            from = static_cast<overlay::MemberIndex>(
                rng.uniform_index(overlay_net.size()));
            key = util::NodeId::random(rng);
            try {
                hops = overlay_net.route(from, key);
            } catch (const std::exception&) {
                hops.clear();
            }
        }
        if (hops.size() < 4) return phase;
        std::size_t targeted_correct = 0;
        std::size_t targeted_total = 0;
        const overlay::MemberIndex dropper = hops[2];
        auto targeted_behaviors = behaviors;
        targeted_behaviors[dropper].drop_forward_probability = 1.0;
        core::DiagnosisTrace trace(256);
        net::EventSim sim;
        runtime::Cluster targeted(sim, world.timeline(), world.overlay_net(),
                                  world.trees(), runtime::RuntimeParams{},
                                  targeted_behaviors, rng.fork());
        targeted.set_trace(&trace);
        targeted.start();
        sim.run_until(bench::kRuntimeWarmup);
        // Spread sends across the virtual run so down intervals on the
        // fixed route rotate.
        for (int i = 0; i < 60; ++i) {
            targeted.send(from, key,
                          [&](const runtime::Cluster::MessageOutcome& res) {
                              if (!res.true_drop_hop.has_value()) return;
                              ++targeted_total;
                              const auto& culprit =
                                  overlay_net
                                      .member(res.route[*res.true_drop_hop])
                                      .id();
                              if (res.blamed == culprit) ++targeted_correct;
                          });
            sim.run_until(sim.now() + 90 * util::kSecond);
        }
        sim.run_until(sim.now() + 3 * util::kMinute);
        std::size_t verified_targeted = 0;
        const auto accs = targeted.accusations_against(dropper);
        for (const auto& acc : accs) {
            if (targeted.verify(acc) == core::AccusationCheck::kOk) {
                ++verified_targeted;
            }
        }
        append(out, "%-28s %zu / %zu (accusations %zu, verified %zu)\n",
               "targeted dropper diagnosed", targeted_correct, targeted_total,
               accs.size(), verified_targeted);
        phase.keep_trace(trace);
        return phase;
    };

    // --- trial 1: the background workload, scored against ground truth,
    // plus the audit of every accusation left in the DHT.
    const auto workload_phase = [&](util::Rng& rng) {
        bench::TrialOut phase;
        std::string& out = phase.text;
        core::DiagnosisTrace trace(512);
        net::EventSim sim;
        runtime::Cluster cluster(sim, world.timeline(), world.overlay_net(),
                                 world.trees(), runtime::RuntimeParams{},
                                 behaviors, rng.fork());
        cluster.set_trace(&trace);
        cluster.start();
        sim.run_until(bench::kRuntimeWarmup);

        std::size_t correct_forwarder = 0;
        std::size_t wrong_forwarder = 0;
        std::size_t correct_network = 0;
        std::size_t wrong_network = 0;
        std::size_t delivered = 0;
        std::size_t undiagnosed = 0;

        for (std::size_t i = 0; i < message_count; ++i) {
            const auto from = static_cast<overlay::MemberIndex>(
                rng.uniform_index(overlay_net.size()));
            cluster.send(from, util::NodeId::random(rng),
                         [&](const runtime::Cluster::MessageOutcome& res) {
                             if (res.delivered) {
                                 ++delivered;
                                 return;
                             }
                             if (res.true_drop_hop.has_value()) {
                                 const auto& culprit =
                                     overlay_net
                                         .member(res.route[*res.true_drop_hop])
                                         .id();
                                 if (res.blamed == culprit) {
                                     ++correct_forwarder;
                                 } else {
                                     ++wrong_forwarder;
                                 }
                             } else if (res.true_network_drop) {
                                 if (res.network_blamed) {
                                     ++correct_network;
                                 } else {
                                     ++wrong_network;
                                 }
                             } else {
                                 ++undiagnosed;
                             }
                         });
            sim.run_until(sim.now() + pace);
        }
        sim.run_until(sim.now() + settle);

        const auto& stats = cluster.stats();
        append(out, "%-28s %zu\n", "messages", stats.messages);
        append(out, "%-28s %zu\n", "delivered", delivered);
        append(out, "%-28s %zu / %zu\n", "forwarder drops diagnosed",
               correct_forwarder, correct_forwarder + wrong_forwarder);
        append(out, "%-28s %zu / %zu\n", "network drops diagnosed",
               correct_network, correct_network + wrong_network);
        append(out, "%-28s %zu\n", "undiagnosed", undiagnosed);
        append(out, "%-28s %zu\n", "snapshots published",
               stats.snapshots_published);
        append(out, "%-28s %zu\n", "heavyweight sessions",
               stats.heavyweight_sessions);
        append(out, "%-28s %zu\n", "guilty verdicts", stats.guilty_verdicts);
        append(out, "%-28s %zu\n", "innocent verdicts",
               stats.innocent_verdicts);
        append(out, "%-28s %zu\n", "revisions pushed",
               stats.revisions_pushed);
        append(out, "%-28s %zu\n", "accusations filed",
               stats.accusations_filed);

        // Every accusation in the DHT must verify and must target a dropper.
        std::size_t verified = 0;
        std::size_t against_droppers = 0;
        std::size_t total = 0;
        std::vector<bool> is_dropper(behaviors.size(), false);
        for (const auto d : droppers) is_dropper[d] = true;
        for (overlay::MemberIndex m = 0; m < overlay_net.size(); ++m) {
            for (const auto& acc : cluster.accusations_against(m)) {
                ++total;
                if (cluster.verify(acc) == core::AccusationCheck::kOk) {
                    ++verified;
                }
                if (is_dropper[m]) ++against_droppers;
            }
        }
        append(out, "%-28s %zu (verified %zu, against droppers %zu)\n",
               "accusations in DHT", total, verified, against_droppers);
        phase.keep_trace(trace);
        return phase;
    };

    driver.run(
        2,
        [&](std::uint64_t trial, util::Rng& rng) {
            return trial == 0 ? targeted_phase(rng) : workload_phase(rng);
        },
        [](std::uint64_t, bench::TrialOut&& phase) { phase.emit(); });

    // Perf trajectory: events/sec is the headline number tools/check_perf.py
    // gates on; bytes/diagnosis uses the paper's 30-byte probe cost over
    // every verdict the run produced.
    report.finish();
    auto& registry = util::metrics::Registry::global();
    const double probes = static_cast<double>(
        registry.counter("tomography.probes_issued").value());
    const double verdicts = static_cast<double>(
        registry.counter("core.verdicts_guilty").value() +
        registry.counter("core.verdicts_innocent").value());
    if (verdicts > 0.0) {
        report.set("bytes_per_diagnosis", 30.0 * probes / verdicts);
    }
    report.write(args.bench_out);
    return 0;
}
