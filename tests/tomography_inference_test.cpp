#include <gtest/gtest.h>

#include <unordered_map>

#include "net/paths.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

/// Builds the shared 7-router test tree and runs a heavyweight session with
/// the given per-link loss, returning the MLE result.
struct InferenceFixture : ::testing::Test {
    InferenceFixture() {
        for (int i = 0; i < 7; ++i) topo.add_router(net::RouterTier::kCore);
        links[0] = topo.add_link(0, 1);
        links[1] = topo.add_link(1, 2);
        links[2] = topo.add_link(1, 3);
        links[3] = topo.add_link(2, 4);
        links[4] = topo.add_link(2, 5);
        links[5] = topo.add_link(3, 6);
        const net::PathOracle oracle(topo);
        const std::vector<net::RouterId> dsts{4, 5, 6};
        util::Arena arena;
        tree.emplace(0, oracle.paths_into(0, dsts, arena));
    }

    InferenceResult infer(std::unordered_map<net::LinkId, double> loss,
                          int probes = 4000, std::uint64_t seed = 1) {
        util::Rng rng(seed);
        const auto pass = [&loss](net::LinkId l, util::SimTime) {
            const auto it = loss.find(l);
            return it == loss.end() ? 1.0 : 1.0 - it->second;
        };
        const auto session = run_heavyweight_session(
            *tree, pass, 0, HeavyweightParams{.probe_count = probes}, {},
            rng);
        return infer_link_loss(*tree, session.probes);
    }

    net::Topology topo;
    net::LinkId links[6];
    std::optional<ProbeTree> tree;
};

TEST_F(InferenceFixture, CleanNetworkInfersNoLoss) {
    const auto result = infer({});
    for (const auto& e : result.links) {
        EXPECT_NEAR(e.loss, 0.0, 0.01) << "link " << e.link;
    }
}

TEST_F(InferenceFixture, LastMileLossLandsOnTheRightLink) {
    const auto result = infer({{links[3], 0.30}});
    EXPECT_NEAR(result.loss_of(links[3]), 0.30, 0.05);
    EXPECT_NEAR(result.loss_of(links[4]), 0.0, 0.03);
    EXPECT_NEAR(result.loss_of(links[5]), 0.0, 0.03);
    EXPECT_NEAR(result.loss_of(links[1]), 0.0, 0.03);
}

TEST_F(InferenceFixture, SharedLinkLossSeparatesFromLastMiles) {
    // This is the crux of MINC: loss on the shared link 1->2 must not be
    // misattributed to the last miles of leaves 4 and 5.
    const auto result = infer({{links[1], 0.25}});
    EXPECT_NEAR(result.loss_of(links[1]), 0.25, 0.05);
    EXPECT_NEAR(result.loss_of(links[3]), 0.0, 0.04);
    EXPECT_NEAR(result.loss_of(links[4]), 0.0, 0.04);
}

TEST_F(InferenceFixture, MixedLossesResolveSimultaneously) {
    const auto result =
        infer({{links[1], 0.15}, {links[3], 0.20}, {links[5], 0.10}});
    EXPECT_NEAR(result.loss_of(links[1]), 0.15, 0.05);
    EXPECT_NEAR(result.loss_of(links[3]), 0.20, 0.06);
    EXPECT_NEAR(result.loss_of(links[5]), 0.10, 0.05);
    EXPECT_NEAR(result.loss_of(links[4]), 0.0, 0.04);
}

TEST_F(InferenceFixture, PaperAccuracyClaimOnModerateLoss) {
    // Duffield et al. report inferred rates within ~1% of actual; with 4000
    // stripes we hold a comparable bound on this small tree.
    const auto result = infer({{links[1], 0.05}}, 8000);
    EXPECT_NEAR(result.loss_of(links[1]), 0.05, 0.015);
}

TEST_F(InferenceFixture, DeadSubtreeReportsFullLoss) {
    const auto result = infer({{links[2], 1.0}});
    EXPECT_NEAR(result.loss_of(links[2]), 1.0, 1e-6);
}

TEST_F(InferenceFixture, ChainLossAttributedWithChainLength) {
    // The root chain 0->1 is a single-child chain ending at branch router 1,
    // so its link is fully identifiable (chain length 1).  Check bookkeeping.
    const auto result = infer({{links[0], 0.2}});
    for (const auto& e : result.links) {
        if (e.link == links[0]) {
            EXPECT_EQ(e.chain_length, 1);
            EXPECT_NEAR(e.loss, 0.2, 0.05);
        }
    }
}

TEST_F(InferenceFixture, CumulativePassesAreMonotoneDownTree) {
    const auto result = infer({{links[1], 0.2}, {links[3], 0.2}});
    for (std::size_t k = 1; k < tree->node_count(); ++k) {
        const auto parent = static_cast<std::size_t>(tree->parent()[k]);
        EXPECT_LE(result.cumulative_pass[k],
                  result.cumulative_pass[parent] + 1e-9);
    }
}

TEST_F(InferenceFixture, RejectsEmptyProbeSet) {
    EXPECT_THROW(infer_link_loss(*tree, {}), std::invalid_argument);
}

TEST_F(InferenceFixture, RejectsSessionOfAnotherTreeWidth) {
    // A session probed on a two-leaf tree is too narrow for this tree.
    const net::PathOracle oracle(topo);
    const std::vector<net::RouterId> dsts{4, 5};
    util::Arena arena;
    const ProbeTree narrow(0, oracle.paths_into(0, dsts, arena));
    util::Rng rng(3);
    const auto session = run_heavyweight_session(
        narrow, [](net::LinkId, util::SimTime) { return 1.0; }, 0,
        HeavyweightParams{.probe_count = 20}, {}, rng);
    EXPECT_THROW(infer_link_loss(*tree, session.probes),
                 std::invalid_argument);
}

TEST(InferenceChain, MultiLinkChainSharesAggregateLoss) {
    // Root -> r1 -> r2 -> branch -> {leafA, leafB}: the two chain links
    // (root-r1, r1-r2) are individually unidentifiable; both must carry the
    // chain's aggregate loss with chain_length == 3 (including r2->branch).
    net::Topology topo;
    for (int i = 0; i < 6; ++i) topo.add_router(net::RouterTier::kCore);
    const auto l0 = topo.add_link(0, 1);
    const auto l1 = topo.add_link(1, 2);
    const auto l2 = topo.add_link(2, 3);
    const auto l3 = topo.add_link(3, 4);
    const auto l4 = topo.add_link(3, 5);
    const net::PathOracle oracle(topo);
    const std::vector<net::RouterId> dsts{4, 5};
    util::Arena arena;
    const ProbeTree tree(0, oracle.paths_into(0, dsts, arena));

    util::Rng rng(2);
    const auto pass = [&](net::LinkId l, util::SimTime) {
        return l == l1 ? 0.8 : 1.0;
    };
    const auto session = run_heavyweight_session(
        tree, pass, 0, HeavyweightParams{.probe_count = 6000}, {}, rng);
    const auto result = infer_link_loss(tree, session.probes);

    EXPECT_NEAR(result.loss_of(l0), 0.2, 0.05);
    EXPECT_NEAR(result.loss_of(l1), 0.2, 0.05);
    EXPECT_NEAR(result.loss_of(l2), 0.2, 0.05);
    for (const auto& e : result.links) {
        if (e.link == l0 || e.link == l1 || e.link == l2) {
            EXPECT_EQ(e.chain_length, 3);
        }
        if (e.link == l3 || e.link == l4) {
            EXPECT_EQ(e.chain_length, 1);
            EXPECT_NEAR(e.loss, 0.0, 0.04);
        }
    }
}

}  // namespace
}  // namespace concilium::tomography
