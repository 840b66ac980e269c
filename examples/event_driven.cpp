// The full protocol, live: an event-driven Concilium deployment.
//
// Builds a small world, starts every node's probing loops, sends traffic,
// then follows one misbehaving forwarder from its first dropped message to
// a verified accusation in the DHT and the sanction a prospective peer
// would apply (Section 3.7).
//
// Run: ./event_driven [seed]

#include <cstdio>
#include <stdexcept>

#include "core/reputation.h"
#include "runtime/cluster.h"
#include "seed_arg.h"
#include "sim/scenario.h"

using namespace concilium;

int main(int argc, char** argv) {
    const std::uint64_t seed = examples::seed_arg(argc, argv, 9);

    // --- the world -----------------------------------------------------
    sim::ScenarioParams wp;
    wp.topology = net::small_params();
    wp.topology.end_hosts = 500;
    wp.overlay_nodes_override = 70;
    wp.duration = 2 * util::kHour;
    wp.seed = seed;
    sim::Scenario world(wp);
    const auto& overlay = world.overlay_net();
    std::printf("world: %zu routers, %zu overlay nodes, 5%% of links "
                "failing at any moment\n",
                world.topology().router_count(), overlay.size());

    // Find a route with an interior hop to corrupt.
    util::Rng rng(seed + 1);
    std::vector<overlay::MemberIndex> hops;
    overlay::MemberIndex sender = 0;
    util::NodeId key;
    for (int attempt = 0; attempt < 20000 && hops.size() < 4; ++attempt) {
        sender = static_cast<overlay::MemberIndex>(
            rng.uniform_index(overlay.size()));
        key = util::NodeId::random(rng);
        try {
            hops = overlay.route(sender, key);
        } catch (const std::runtime_error&) {
            hops.clear();
        }
    }
    if (hops.size() < 4) {
        std::fprintf(stderr, "no suitable route found\n");
        return 1;
    }
    const overlay::MemberIndex villain = hops[2];
    std::vector<runtime::NodeBehavior> behaviors(overlay.size());
    behaviors[villain].drop_forward_probability = 1.0;

    net::EventSim sim;
    runtime::Cluster cluster(sim, world.timeline(), overlay, world.trees(),
                             runtime::RuntimeParams{}, behaviors,
                             world.fork_rng());
    cluster.start();
    std::printf("node %s will silently drop everything it should forward\n\n",
                overlay.member(villain).id().short_hex().c_str());

    // Warm up the probing fabric.
    sim.run_until(3 * util::kMinute);
    std::printf("after 3 virtual minutes of probing: %zu snapshots "
                "published, %zu archived at the sender\n",
                cluster.stats().snapshots_published,
                cluster.archive(sender).size());

    // --- traffic + diagnosis --------------------------------------------
    int sent = 0;
    int reached_villain = 0;
    int blamed_villain = 0;
    for (int i = 0; i < 20; ++i) {
        ++sent;
        cluster.send(sender, key,
                     [&](const runtime::Cluster::MessageOutcome& out) {
                         if (out.true_drop_hop.has_value()) {
                             ++reached_villain;
                             if (out.blamed ==
                                 overlay.member(villain).id()) {
                                 ++blamed_villain;
                             }
                         }
                     });
        sim.run_until(sim.now() + 60 * util::kSecond);
    }
    sim.run_until(sim.now() + 3 * util::kMinute);
    std::printf("sent %d messages along the corrupted route; %d reached the "
                "dropper, %d diagnoses pinned it\n",
                sent, reached_villain, blamed_villain);
    std::printf("stats: %zu guilty verdicts, %zu revisions pushed, %zu "
                "heavyweight sessions, %zu accusations filed\n\n",
                cluster.stats().guilty_verdicts,
                cluster.stats().revisions_pushed,
                cluster.stats().heavyweight_sessions,
                cluster.stats().accusations_filed);

    // --- the paper's endgame: third-party verification + sanction --------
    const auto accusations = cluster.accusations_against(villain);
    std::printf("accusations stored in the DHT against the dropper: %zu\n",
                accusations.size());
    int verified = 0;
    for (const auto& acc : accusations) {
        if (cluster.verify(acc) == core::AccusationCheck::kOk) ++verified;
    }
    std::printf("independently verified by a prospective peer: %d\n",
                verified);
    const auto decision = core::evaluate_sanction(
        core::SanctionPolicy::kUniversalBlacklist, verified,
        /*blacklist_threshold=*/1);
    std::printf("sanction under kUniversalBlacklist: peering %s, sensitive "
                "messages %s, leaf-set membership %s\n",
                decision.allow_peering ? "allowed" : "REFUSED",
                decision.allow_sensitive_messages ? "allowed" : "withheld",
                decision.keep_in_leaf_set ? "kept (required for consistent "
                                            "routing)"
                                          : "revoked");
    return 0;
}
