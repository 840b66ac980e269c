// concilium — command-line front end to the library.
//
//   concilium topology   [--full] [--seed N]    generated-topology statistics
//   concilium occupancy  --nodes N              Equation-1 occupancy model
//   concilium gamma      --nodes N --collusion C   density-test tuning
//   concilium bandwidth  --nodes N              Section 4.4 cost model
//   concilium coverage   [--full] [--seed N] [--jobs N]
//                                               Figure-4 style coverage curve
//   concilium run        [--seed N] [--messages M] [--droppers F]
//                                               event-driven protocol demo
//   concilium metrics    [--seed N] [--messages M] [--droppers F] [--json]
//                                               run demo, dump metric registry
//   concilium trace      [--seed N] [--messages M]
//                                               diagnose a known dropper and
//                                               print the JSON blame journal
//   concilium spans      [--seed N] [--messages M] [--droppers F]
//                                               run demo with the span
//                                               recorder armed and print the
//                                               Chrome trace-event JSON

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "core/bandwidth.h"
#include "core/trace.h"
#include "net/topology_gen.h"
#include "overlay/density.h"
#include "runtime/cluster.h"
#include "sim/experiments.h"
#include "sim/scenario.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rate_spec.h"
#include "util/spans.h"

namespace {

using namespace concilium;

struct Options {
    bool full = false;
    std::uint64_t seed = 1;
    double nodes = 10000;
    double collusion = 0.2;
    std::size_t messages = 100;
    double droppers = 0.1;
    /// Experiment-driver workers; 0 = hardware_concurrency.
    std::size_t jobs = 0;
    /// `metrics`: emit the JSON snapshot instead of Prometheus text.
    bool json = false;
};

/// Throws std::invalid_argument naming the flag on a bad numeric value.
Options parse(int argc, char** argv, int first) {
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&] {
            return util::parse_number<std::uint64_t>(a, next(), 0, UINT64_MAX);
        };
        const auto fraction = [&] {
            return util::parse_number(a, next(), 0.0, 1.0);
        };
        if (a == "--full") {
            o.full = true;
        } else if (a == "--seed") {
            o.seed = count();
        } else if (a == "--nodes") {
            o.nodes = util::parse_number(a, next(), 1.0, DBL_MAX);
        } else if (a == "--collusion") {
            o.collusion = fraction();
        } else if (a == "--messages") {
            o.messages = count();
        } else if (a == "--droppers") {
            o.droppers = fraction();
        } else if (a == "--jobs") {
            o.jobs = count();
        } else if (a == "--json") {
            o.json = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            std::exit(2);
        }
    }
    return o;
}

int cmd_topology(const Options& o) {
    util::Rng rng(o.seed);
    const auto params =
        o.full ? net::scan_like_params() : net::medium_params();
    const auto topo = net::generate_topology(params, rng);
    const auto stats = net::summarize(topo);
    std::printf("routers            %zu\n", stats.routers);
    std::printf("links              %zu\n", stats.links);
    std::printf("core routers       %zu\n", stats.core_routers);
    std::printf("stub routers       %zu\n", stats.stub_routers);
    std::printf("end hosts          %zu\n", stats.end_hosts);
    std::printf("links/routers      %.3f   (SCAN: 1.608)\n",
                stats.link_router_ratio);
    std::printf("mean interior deg  %.2f\n", stats.mean_interior_degree);
    std::printf("connected          %s\n", topo.connected() ? "yes" : "NO");
    return 0;
}

int cmd_occupancy(const Options& o) {
    const util::OverlayGeometry geom{.digits = 32};
    const auto model = overlay::occupancy_model(o.nodes, geom);
    std::printf("N                  %.0f\n", o.nodes);
    std::printf("mu_phi (entries)   %.2f\n", model.mean_count());
    std::printf("sigma_phi          %.2f\n", model.stddev_count());
    std::printf("routing peers      %.2f  (mu_phi + 16 leaves)\n",
                model.mean_count() + 16);
    std::printf("\nrow fill probabilities (Equation 1):\n");
    for (int row = 0; row < 8; ++row) {
        std::printf("  row %d: %.4f\n", row,
                    overlay::slot_fill_probability(row, o.nodes, geom));
    }
    return 0;
}

int cmd_gamma(const Options& o) {
    const util::OverlayGeometry geom{.digits = 32};
    const auto best = overlay::optimal_gamma(
        o.nodes, o.nodes, o.collusion * o.nodes, geom, 1.0, 4.0, 301);
    std::printf("N = %.0f, colluding fraction c = %.2f\n", o.nodes,
                o.collusion);
    std::printf("optimal gamma      %.3f\n", best.gamma);
    std::printf("false positives    %.4f\n", best.false_positive);
    std::printf("false negatives    %.4f\n", best.false_negative);
    return 0;
}

int cmd_bandwidth(const Options& o) {
    const core::BandwidthModel model;
    const double peers = model.expected_routing_peers(o.nodes);
    std::printf("N                    %.0f\n", o.nodes);
    std::printf("routing peers        %.2f\n", peers);
    std::printf("advertisement        %.2f kB\n",
                model.advertisement_bytes(o.nodes) / 1000.0);
    std::printf("heavyweight probe    %.2f MB\n",
                core::BandwidthModel::heavyweight_probe_bytes(peers) /
                    (1024.0 * 1024.0));
    return 0;
}

int cmd_coverage(const Options& o) {
    sim::ScenarioParams p;
    p.topology = o.full ? net::scan_like_params() : net::medium_params();
    p.seed = o.seed;
    const sim::Scenario world(p);
    const sim::ExperimentDriver driver(o.seed + 17, o.jobs);
    const auto curve = sim::run_coverage_experiment(world, 40, 60, driver);
    std::printf("%-12s %-12s %-12s\n", "peer_trees", "coverage",
                "vouchers");
    for (std::size_t k = 0; k < curve.coverage.size(); k += 5) {
        if (curve.hosts_counted[k] == 0) break;
        std::printf("%-12zu %-12.4f %-12.3f\n", k, curve.coverage[k],
                    curve.vouchers[k]);
    }
    return 0;
}

int run_demo(const Options& o, bool print_summary);

int cmd_run(const Options& o) { return run_demo(o, true); }

int run_demo(const Options& o, bool print_summary) {
    sim::ScenarioParams p;
    p.topology = net::small_params();
    p.topology.end_hosts = 500;
    p.overlay_nodes_override = 80;
    p.duration = 2 * util::kHour;
    p.seed = o.seed;
    const sim::Scenario world(p);
    util::Rng rng(o.seed + 71);
    std::vector<runtime::NodeBehavior> behaviors(world.overlay_net().size());
    for (const auto d : rng.sample_indices(
             behaviors.size(),
             static_cast<std::size_t>(o.droppers * behaviors.size()))) {
        behaviors[d].drop_forward_probability = 0.5;
    }
    net::EventSim sim;
    runtime::Cluster cluster(sim, world.timeline(), world.overlay_net(),
                             world.trees(), runtime::RuntimeParams{},
                             behaviors, rng.fork());
    cluster.start();
    sim.run_until(3 * util::kMinute);
    std::size_t delivered = 0;
    std::size_t correct = 0;
    std::size_t judged = 0;
    for (std::size_t i = 0; i < o.messages; ++i) {
        const auto from = static_cast<overlay::MemberIndex>(
            rng.uniform_index(world.overlay_net().size()));
        cluster.send(from, util::NodeId::random(rng),
                     [&](const runtime::Cluster::MessageOutcome& out) {
                         if (out.delivered) {
                             ++delivered;
                             return;
                         }
                         ++judged;
                         if (out.true_drop_hop.has_value()) {
                             if (out.blamed ==
                                 world.overlay_net()
                                     .member(out.route[*out.true_drop_hop])
                                     .id()) {
                                 ++correct;
                             }
                         } else if (out.true_network_drop &&
                                    out.network_blamed) {
                             ++correct;
                         }
                     });
        sim.run_until(sim.now() + 20 * util::kSecond);
    }
    sim.run_until(sim.now() + 5 * util::kMinute);
    const auto& s = cluster.stats();
    if (print_summary) {
        std::printf(
            "messages %zu | delivered %zu | diagnosed correctly %zu/%zu\n",
            s.messages, delivered, correct, judged);
        std::printf(
            "snapshots %zu | heavyweight sessions %zu | accusations %zu\n",
            s.snapshots_published, s.heavyweight_sessions,
            s.accusations_filed);
    }
    return 0;
}

int cmd_metrics(const Options& o) {
    // Exercise the full protocol (same world as `concilium run`), then dump
    // everything the instrumentation saw.
    run_demo(o, false);
    const auto snapshot = util::metrics::Registry::global().snapshot();
    const std::string out = o.json ? snapshot.to_json() : snapshot.to_text();
    std::fputs(out.c_str(), stdout);
    return 0;
}

int cmd_spans(const Options& o) {
    // Same world as `concilium run`, with the span recorder armed: the
    // demo's world-build phases, probe rounds, diagnoses, judgments, and
    // snapshot exchanges come out as Chrome trace-event JSON (load in
    // Perfetto / chrome://tracing, or feed to tools/check_spans.py).
    util::spans::Recorder::global().enable();
    run_demo(o, false);
    const std::string out = util::spans::Recorder::global().to_chrome_json();
    std::fputs(out.c_str(), stdout);
    return 0;
}

int cmd_trace(const Options& o) {
    // A known-guilty world: one node on a predictable route drops every
    // message it should forward.  The journal printed at the end shows the
    // full diagnosis — forwarder chain, per-link Equation 2 confidences,
    // Equation 3 blame, and the revision chain that converged on the
    // dropper.
    sim::ScenarioParams p;
    p.topology = net::small_params();
    p.topology.end_hosts = 500;
    p.overlay_nodes_override = 80;
    p.duration = 2 * util::kHour;
    // No background link failures: the dropper should be the only fault,
    // so every lost message traces back to it.
    p.failures.fraction_bad = 0.0;
    p.seed = o.seed;
    const sim::Scenario world(p);
    const auto& overlay_net = world.overlay_net();

    // Find a sender/key pair whose route is long enough to bury the dropper
    // two hops downstream (so diagnosing it exercises the revision chain).
    util::Rng search(o.seed + 99);
    std::vector<overlay::MemberIndex> hops;
    overlay::MemberIndex from = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 4; ++attempt) {
        from = static_cast<overlay::MemberIndex>(
            search.uniform_index(overlay_net.size()));
        key = util::NodeId::random(search);
        try {
            hops = overlay_net.route(from, key);
        } catch (const std::exception&) {
            hops.clear();
        }
    }
    std::size_t drop_pos = 2;
    if (hops.size() < 4) {
        // Fall back to any 3-hop route with the middle hop guilty.
        for (int attempt = 0; attempt < 20000 && hops.size() < 3; ++attempt) {
            from = static_cast<overlay::MemberIndex>(
                search.uniform_index(overlay_net.size()));
            key = util::NodeId::random(search);
            try {
                hops = overlay_net.route(from, key);
            } catch (const std::exception&) {
                hops.clear();
            }
        }
        drop_pos = 1;
    }
    if (hops.size() < 3) {
        std::fprintf(stderr,
                     "trace: no multi-hop route found for seed %llu\n",
                     static_cast<unsigned long long>(o.seed));
        return 1;
    }
    const overlay::MemberIndex dropper = hops[drop_pos];

    std::vector<runtime::NodeBehavior> behaviors(overlay_net.size());
    behaviors[dropper].drop_forward_probability = 1.0;
    util::Rng rng(o.seed + 71);
    net::EventSim sim;
    runtime::Cluster cluster(sim, world.timeline(), overlay_net,
                             world.trees(), runtime::RuntimeParams{},
                             behaviors, rng.fork());
    core::DiagnosisTrace trace;
    cluster.set_trace(&trace);
    cluster.start();
    sim.run_until(3 * util::kMinute);
    const std::size_t messages = o.messages == 100 ? 8 : o.messages;
    for (std::size_t i = 0; i < messages; ++i) {
        cluster.send(from, key);
        sim.run_until(sim.now() + 30 * util::kSecond);
    }
    sim.run_until(sim.now() + 2 * util::kMinute);

    std::string out = "{\"scenario\": {\"seed\": ";
    out += util::json_number(static_cast<std::uint64_t>(o.seed));
    out += ", \"dropper\": ";
    out += util::json_quote(overlay_net.member(dropper).id().to_hex());
    out += ", \"messages\": ";
    out += util::json_number(static_cast<std::uint64_t>(messages));
    out += "},\n\"records\": ";
    out += trace.records_json();
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

void usage() {
    std::fprintf(stderr,
                 "usage: concilium <topology|occupancy|gamma|bandwidth|"
                 "coverage|run|metrics|trace|spans> [options]\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    Options o;
    try {
        o = parse(argc, argv, 2);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "concilium: %s\n", e.what());
        usage();
        return 2;
    }
    if (cmd == "topology") return cmd_topology(o);
    if (cmd == "occupancy") return cmd_occupancy(o);
    if (cmd == "gamma") return cmd_gamma(o);
    if (cmd == "bandwidth") return cmd_bandwidth(o);
    if (cmd == "coverage") return cmd_coverage(o);
    if (cmd == "run") return cmd_run(o);
    if (cmd == "metrics") return cmd_metrics(o);
    if (cmd == "trace") return cmd_trace(o);
    if (cmd == "spans") return cmd_spans(o);
    usage();
    return 2;
}
