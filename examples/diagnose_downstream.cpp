// The paper's running example (Section 3.5): a message from A toward Z is
// dropped by a forwarder several hops downstream.  Naive per-hop judgment
// would leave A blaming its innocent first hop; recursive stewardship and
// accusation revision push the blame chain downstream until it sticks at
// the true dropper, exonerating everyone in between.
//
// Run: ./diagnose_downstream [seed]

#include <cstdio>
#include <stdexcept>

#include "core/steward.h"
#include "seed_arg.h"
#include "sim/scenario.h"

using namespace concilium;

int main(int argc, char** argv) {
    const std::uint64_t seed = examples::seed_arg(argc, argv, 3);

    sim::ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 500;
    params.overlay_nodes_override = 80;
    params.duration = 60 * util::kMinute;
    params.seed = seed;
    const sim::Scenario world(params);
    const auto& overlay = world.overlay_net();

    // Find a reasonably long route whose hop-to-hop IP paths are all clean
    // at judgment time, so the only possible culprit is a forwarder.
    util::Rng rng(seed + 1);
    const util::SimTime t = 20 * util::kMinute;
    std::vector<overlay::MemberIndex> route;
    for (int attempt = 0; attempt < 2000 && route.empty(); ++attempt) {
        const auto start = static_cast<overlay::MemberIndex>(
            rng.uniform_index(overlay.size()));
        std::vector<overlay::MemberIndex> hops;
        try {
            hops = overlay.route(start, util::NodeId::random(rng));
        } catch (const std::runtime_error&) {
            continue;
        }
        if (hops.size() < 4) continue;
        bool clean = true;
        for (std::size_t i = 0; clean && i + 1 < hops.size(); ++i) {
            if (!world.leaf_slot(hops[i], hops[i + 1]).has_value() ||
                world.path_bad(world.path_links(hops[i], hops[i + 1]), t)) {
                clean = false;
            }
        }
        if (clean) route = std::move(hops);
    }
    if (route.empty()) {
        std::fprintf(stderr, "no clean multi-hop route found\n");
        return 1;
    }

    std::printf("route (%zu hops):", route.size());
    for (const auto h : route) {
        std::printf(" %s", overlay.member(h).id().short_hex().c_str());
    }
    std::printf("\n");

    // The penultimate forwarder drops the message.
    const std::size_t dropper = route.size() - 2;
    std::printf("injected fault: hop %zu (%s) silently drops the message\n",
                dropper, overlay.member(route[dropper]).id().short_hex().c_str());

    // Every steward that forwarded judges its next hop from its own
    // tomographic vantage point.
    std::uint64_t query = 100;
    const auto blame_fn = [&](std::size_t judge, std::size_t suspect) {
        const auto path = world.path_links(route[judge], route[suspect]);
        const auto probes = world.gather_probes(
            route[judge], path, t, sim::Scenario::CollusionStance::kNone,
            query++);
        const auto b = core::compute_blame(
            path, probes, t, overlay.member(route[suspect]).id(),
            world.params().blame);
        std::printf("  hop %zu judges hop %zu: blame %.3f (%s)\n", judge,
                    suspect, b.blame,
                    core::is_guilty_verdict(b.blame, core::VerdictParams{})
                        ? "guilty"
                        : "not guilty -> network");
        return b.blame;
    };

    std::printf("\nwithout revision, A simply convicts its first hop:\n");
    const double first = blame_fn(0, 1);
    std::printf("  => naive outcome: hop 1 blamed (blame %.3f), "
                "which is WRONG\n\n",
                first);

    std::printf("with recursive stewardship (Section 3.5):\n");
    const auto outcome = core::attribute_fault(
        route.size(), /*forwarder_count=*/dropper, blame_fn,
        core::VerdictParams{});
    if (outcome.network_blamed) {
        std::printf("  => network blamed at segment %zu "
                    "(probe noise produced an acquittal upstream)\n",
                    *outcome.faulted_segment);
    } else {
        std::printf("  => blame sticks at hop %zu -- %s\n",
                    *outcome.blamed_hop,
                    *outcome.blamed_hop == dropper
                        ? "the true dropper; everyone upstream exonerated"
                        : "not the injected dropper (evidence noise)");
    }
    return 0;
}
