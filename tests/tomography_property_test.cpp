// Property sweeps for the tomography stack: MINC inference on randomly
// generated trees with randomly placed loss must recover the planted rates
// on identifiable links, run-length sessions must count what a walk over
// their stripes counts, and overlay tree construction must be consistent
// with the overlay's routing state.

#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>

#include "net/chaos.h"
#include "net/topology_gen.h"
#include "net/transport.h"
#include "probe_reference.h"
#include "tomography/inference.h"
#include "tomography/overlay_trees.h"
#include "tomography/probing.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

/// Builds a random tree topology: `branch` children per interior node,
/// `depth` levels, one end host per leaf.
struct RandomTree {
    RandomTree(int branch, int depth, util::Rng& rng) {
        root = topo.add_router(net::RouterTier::kCore);
        grow(root, branch, depth, rng);
        const net::PathOracle oracle(topo);
        util::Arena arena;
        tree.emplace(root, oracle.paths_into(root, hosts, arena));
    }

    void grow(net::RouterId at, int branch, int depth, util::Rng& rng) {
        if (depth == 0) return;
        // Randomize the branch count a little so trees are not regular.
        const int kids = std::max(
            1, branch + static_cast<int>(rng.uniform_int(-1, 1)));
        for (int c = 0; c < kids; ++c) {
            const bool leaf_level = depth == 1;
            const net::RouterId child = topo.add_router(
                leaf_level ? net::RouterTier::kEndHost
                           : net::RouterTier::kStub);
            topo.add_link(at, child);
            if (leaf_level) {
                hosts.push_back(child);
            } else {
                grow(child, branch, depth - 1, rng);
            }
        }
    }

    net::Topology topo;
    net::RouterId root = 0;
    std::vector<net::RouterId> hosts;
    std::optional<ProbeTree> tree;
};

class MincRandomTreeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MincRandomTreeProperty, RecoversPlantedLossRates) {
    const auto [branch, depth, seed] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
    RandomTree world(branch, depth, rng);
    const auto& tree = *world.tree;
    if (tree.leaves().size() < 2) GTEST_SKIP();

    // Plant loss on ~20% of tree links, rates in [0.05, 0.3].
    std::unordered_map<net::LinkId, double> loss;
    for (const net::LinkId l : tree.links()) {
        if (rng.bernoulli(0.2)) {
            loss.emplace(l, rng.uniform(0.05, 0.3));
        }
    }
    const auto pass = [&loss](net::LinkId l, util::SimTime) {
        const auto it = loss.find(l);
        return it == loss.end() ? 1.0 : 1.0 - it->second;
    };
    const auto session = run_heavyweight_session(
        tree, pass, 0, HeavyweightParams{.probe_count = 6000}, {}, rng);
    const auto result = infer_link_loss(tree, session.probes);

    for (const auto& e : result.links) {
        if (!e.observable) continue;
        const double truth =
            loss.contains(e.link) ? loss.at(e.link) : 0.0;
        if (e.chain_length == 1) {
            // Fully identifiable link: the estimate must track the truth.
            EXPECT_NEAR(e.loss, truth, 0.06)
                << "link " << e.link << " branch=" << branch
                << " depth=" << depth << " seed=" << seed;
        } else {
            // Chain estimate: bounded below by any member's true loss...
            EXPECT_GE(e.loss, truth - 0.06);
            // ...and above by the chain's aggregate.
        }
        EXPECT_GE(e.loss, -1e-9);
        EXPECT_LE(e.loss, 1.0 + 1e-9);
    }
}

TEST_P(MincRandomTreeProperty, CleanTreeInfersClean) {
    const auto [branch, depth, seed] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
    RandomTree world(branch, depth, rng);
    const auto& tree = *world.tree;
    if (tree.leaves().empty()) GTEST_SKIP();
    const auto session = run_heavyweight_session(
        tree, [](net::LinkId, util::SimTime) { return 1.0; }, 0,
        HeavyweightParams{.probe_count = 300}, {}, rng);
    const auto result = infer_link_loss(tree, session.probes);
    for (const auto& e : result.links) {
        EXPECT_NEAR(e.loss, 0.0, 1e-9);
        EXPECT_TRUE(e.observable);
    }
}

// Sessions through a Transport on random trees, with random leaf
// behaviours and random scenario downs, chaos downs and loss spikes that
// start and end mid-session: the runs are maximal, and ack counts, both
// feedback checks, exclusion, MINC and the probe counters equal the
// stripe-by-stripe reference (probe_reference.h).
TEST_P(MincRandomTreeProperty, RunsMatchAStripeByStripeReference) {
    const auto [branch, depth, seed] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 29);
    RandomTree world(branch, depth, rng);
    const auto& tree = *world.tree;
    if (tree.leaves().empty()) GTEST_SKIP();
    constexpr util::SimTime kMs = util::kMillisecond;
    const auto links = tree.links();
    const auto random_link = [&] {
        return links[rng.uniform_index(links.size())];
    };
    // A random stretch inside the five 5-s sessions below.
    const auto stretch = [&](std::int64_t max_ms) {
        const util::SimTime start = rng.uniform_int(0, 25'000) * kMs;
        return std::pair{start, start + rng.uniform_int(1, max_ms) * kMs};
    };
    net::FailureTimeline timeline;
    net::FaultPlan plan;
    for (int i = 0; i < 3; ++i) {
        const auto [down_start, down_end] = stretch(4'000);
        timeline.add_down(random_link(), {down_start, down_end});
        const auto [flap_start, flap_end] = stretch(4'000);
        plan.downs.add_down(random_link(), {flap_start, flap_end});
        const auto [spike_start, spike_end] = stretch(6'000);
        plan.add_spike({random_link(), spike_start, spike_end,
                        rng.uniform(0.05, 0.5)});
    }
    timeline.finalize();
    plan.finalize();
    net::Transport transport(
        timeline, util::Rng(static_cast<std::uint64_t>(seed)),
        net::TransportParams{.healthy_link_loss = seed == 3 ? 0.02 : 0.0});
    transport.set_chaos(&plan);
    std::vector<LeafBehavior> behaviors(tree.leaves().size());
    for (LeafBehavior& b : behaviors) {
        if (rng.bernoulli(0.2)) {
            b.suppress_ack_probability =
                rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 0.9);
        }
        b.fabricate_acks = rng.bernoulli(0.15);
    }
    for (int k = 0; k < 5; ++k) {
        reference::expect_runs_match_stripes(
            tree, transport, k * 5 * util::kSecond,
            HeavyweightParams{.probe_count = 100}, behaviors, rng);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MincRandomTreeProperty,
    ::testing::Combine(::testing::Values(2, 3),   // branching factor
                       ::testing::Values(2, 3, 4),  // depth
                       ::testing::Values(1, 2, 3)));  // seeds

// ------------------------------------------------------- OverlayTrees

TEST(OverlayTrees, ConsistentWithRoutingState) {
    util::Rng rng(9);
    const net::Topology topo =
        net::generate_topology(net::small_params(), rng);
    crypto::CertificateAuthority ca(10);
    const auto net = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 50, ca, rng);
    const OverlayTrees trees(net, topo);

    ASSERT_EQ(trees.size(), net.size());
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        EXPECT_EQ(trees.tree(m).root(), net.member(m).ip());
        const auto& peers = net.routing_peers(m);
        std::size_t reachable = 0;
        for (const auto p : peers) {
            const auto slot = trees.leaf_slot(m, p);
            if (!slot.has_value()) continue;
            ++reachable;
            // The leaf slot's ip/id bookkeeping lines up.
            EXPECT_EQ(trees.tree(m).leaves().at(
                          static_cast<std::size_t>(*slot)),
                      net.member(p).ip());
            EXPECT_EQ(trees.leaf_ids(m).at(static_cast<std::size_t>(*slot)),
                      net.member(p).id());
            EXPECT_EQ(trees.leaf_members(m).at(
                          static_cast<std::size_t>(*slot)),
                      p);
            // path_links agrees with the tree's own path.
            const auto arena_links = trees.path_links(m, p);
            EXPECT_EQ(std::vector<net::LinkId>(arena_links.begin(),
                                               arena_links.end()),
                      trees.tree(m).path_links(*slot));
            // ... and with direct slot addressing.
            const auto slot_links = trees.slot_path_links(m, *slot);
            EXPECT_TRUE(std::equal(arena_links.begin(), arena_links.end(),
                                   slot_links.begin(), slot_links.end()));
        }
        // A connected topology reaches every peer.
        EXPECT_EQ(reachable, peers.size());
    }
    // The candidate-path list has one entry per (member, reachable peer).
    std::size_t expected_paths = 0;
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        expected_paths += net.routing_peers(m).size();
    }
    EXPECT_EQ(trees.member_peer_paths().size(), expected_paths);
}

TEST(OverlayTrees, PathLinksThrowsForNonPeer) {
    util::Rng rng(11);
    const net::Topology topo =
        net::generate_topology(net::small_params(), rng);
    crypto::CertificateAuthority ca(12);
    const auto net = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 20, ca, rng);
    const OverlayTrees trees(net, topo);
    // Find a non-peer pair.
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        const auto& peers = net.routing_peers(0);
        if (m != 0 &&
            std::find(peers.begin(), peers.end(), m) == peers.end()) {
            EXPECT_THROW((void)trees.path_links(0, m),
                         std::invalid_argument);
            return;
        }
    }
    GTEST_SKIP() << "everyone peers with node 0 in this tiny overlay";
}

}  // namespace
}  // namespace concilium::tomography
