#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "net/chaos.h"
#include "net/link_state.h"
#include "net/paths.h"
#include "net/transport.h"
#include "probe_reference.h"
#include "tomography/probing.h"
#include "tomography/tree.h"
#include "tomography/verification.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

using enum ProbePlane;

struct ProbeFixture : ::testing::Test {
    ProbeFixture() {
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

    /// Pass-probability function: perfect except for listed lossy links.
    static auto make_pass_fn(
        std::unordered_map<net::LinkId, double> loss = {}) {
        return [loss](net::LinkId l, util::SimTime) {
            const auto it = loss.find(l);
            return it == loss.end() ? 1.0 : 1.0 - it->second;
        };
    }

    net::Topology topo;
    net::LinkId links[6];
    std::optional<ProbeTree> tree;
};

TEST_F(ProbeFixture, PerfectNetworkAllLeavesAck) {
    util::Rng rng(1);
    const auto rec =
        sample_striped_probe(*tree, make_pass_fn(), 0, {}, rng);
    ASSERT_EQ(rec.size(), 1u);
    for (std::size_t leaf = 0; leaf < 3; ++leaf) {
        EXPECT_TRUE(rec.test(kReceived, 0, leaf));
        EXPECT_TRUE(rec.test(kValidAck, 0, leaf));
        EXPECT_FALSE(rec.test(kFabricatedAck, 0, leaf));
    }
}

TEST_F(ProbeFixture, DeadRootLinkSilencesEveryLeaf) {
    util::Rng rng(2);
    const auto rec = sample_striped_probe(
        *tree, make_pass_fn({{links[0], 1.0}}), 0, {}, rng);
    for (std::size_t leaf = 0; leaf < 3; ++leaf) {
        EXPECT_FALSE(rec.test(kReceived, 0, leaf));
        EXPECT_FALSE(rec.test(kValidAck, 0, leaf));
        EXPECT_FALSE(rec.test(kFabricatedAck, 0, leaf));
    }
}

TEST_F(ProbeFixture, SharedLinkLossIsCorrelatedAcrossLeaves) {
    // Leaves 4 and 5 share links[1]; their outcomes under its loss must be
    // identical in every stripe -- the multicast-emulation property.
    util::Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        const auto rec = sample_striped_probe(
            *tree, make_pass_fn({{links[1], 0.5}}), 0, {}, rng);
        EXPECT_EQ(rec.test(kReceived, 0, 0), rec.test(kReceived, 0, 1))
            << "trial " << trial;
        EXPECT_TRUE(rec.test(kReceived, 0, 2));  // leaf 6 unaffected
    }
}

TEST_F(ProbeFixture, LastMileLossAffectsOneLeafOnly) {
    util::Rng rng(4);
    int lost4 = 0;
    const int n = 500;
    for (int trial = 0; trial < n; ++trial) {
        const auto rec = sample_striped_probe(
            *tree, make_pass_fn({{links[3], 0.3}}), 0, {}, rng);
        if (!rec.test(kReceived, 0, 0)) ++lost4;
        EXPECT_TRUE(rec.test(kReceived, 0, 1));
        EXPECT_TRUE(rec.test(kReceived, 0, 2));
    }
    EXPECT_NEAR(lost4, 150, 45);
}

TEST_F(ProbeFixture, SuppressorDropsAcksButReceives) {
    util::Rng rng(5);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[1].suppress_ack_probability = 1.0;
    const auto rec =
        sample_striped_probe(*tree, make_pass_fn(), 0, behaviors, rng);
    EXPECT_TRUE(rec.test(kReceived, 0, 1));
    EXPECT_FALSE(rec.test(kValidAck, 0, 1));
    EXPECT_FALSE(rec.test(kFabricatedAck, 0, 1));
}

TEST_F(ProbeFixture, FabricatorAcksWithInvalidNonce) {
    util::Rng rng(6);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[2].fabricate_acks = true;
    const auto rec = sample_striped_probe(
        *tree, make_pass_fn({{links[5], 1.0}}), 0, behaviors, rng);
    EXPECT_FALSE(rec.test(kReceived, 0, 2));
    EXPECT_TRUE(rec.test(kFabricatedAck, 0, 2));
    EXPECT_FALSE(rec.test(kValidAck, 0, 2));  // cannot echo an unseen nonce
}

TEST_F(ProbeFixture, BehaviorSizeMismatchThrows) {
    util::Rng rng(7);
    std::vector<LeafBehavior> behaviors(2);
    EXPECT_THROW(
        sample_striped_probe(*tree, make_pass_fn(), 0, behaviors, rng),
        std::invalid_argument);
}

TEST_F(ProbeFixture, HeavyweightSessionCountsAcks) {
    util::Rng rng(8);
    HeavyweightParams params;
    params.probe_count = 400;
    const auto result = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.25}}), 0, params, {}, rng);
    EXPECT_EQ(result.probes.size(), 400u);
    const auto acks = result.probes.ack_counts();
    EXPECT_NEAR(acks[0] / 400.0, 0.75, 0.07);
    EXPECT_EQ(acks[1], 400);
    EXPECT_EQ(acks[2], 400);
    EXPECT_GT(result.finished_at, result.started_at);
    EXPECT_THROW(run_heavyweight_session(*tree, make_pass_fn(), 0,
                                         HeavyweightParams{.probe_count = 0},
                                         {}, rng),
                 std::invalid_argument);
}

TEST_F(ProbeFixture, LightweightRetriesRecoverLossyLeaves) {
    util::Rng rng(9);
    // 50% lossy last mile: retries almost always get through eventually.
    int responsive = 0;
    for (int trial = 0; trial < 100; ++trial) {
        const auto result = run_lightweight_probe(
            *tree, make_pass_fn({{links[3], 0.5}}), 0, 6, {}, rng);
        if (result.responsive[0]) ++responsive;
    }
    EXPECT_GT(responsive, 95);
}

TEST_F(ProbeFixture, LightweightCannotRecoverDeadLink) {
    util::Rng rng(10);
    const auto result = run_lightweight_probe(
        *tree, make_pass_fn({{links[5], 1.0}}), 0, 5, {}, rng);
    EXPECT_FALSE(result.responsive[2]);
    EXPECT_TRUE(result.responsive[0]);
    EXPECT_TRUE(result.responsive[1]);
}

TEST_F(ProbeFixture, DetectFabricatorsFlagsOnlyGuiltyLeaf) {
    util::Rng rng(11);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[0].fabricate_acks = true;
    const auto session = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.4}}), 0,
        HeavyweightParams{.probe_count = 200}, behaviors, rng);
    const auto flagged = detect_fabricators(3, session.probes);
    EXPECT_TRUE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, DetectSuppressorsFlagsAckDropper) {
    util::Rng rng(12);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[0].suppress_ack_probability = 0.95;
    const auto session = run_heavyweight_session(
        *tree, make_pass_fn(), 0, HeavyweightParams{.probe_count = 300},
        behaviors, rng);
    const auto flagged =
        detect_suppressors(*tree, session.probes, SuppressionTestParams{});
    EXPECT_TRUE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, HonestLeavesUnderModerateLossNotFlagged) {
    util::Rng rng(13);
    const auto session = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.2}, {links[1], 0.1}}), 0,
        HeavyweightParams{.probe_count = 300}, {}, rng);
    const auto flagged =
        detect_suppressors(*tree, session.probes, SuppressionTestParams{});
    EXPECT_FALSE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, ExcludeLeavesSilencesFlaggedFeedback) {
    util::Rng rng(14);
    const auto session = run_heavyweight_session(
        *tree, make_pass_fn(), 0, HeavyweightParams{.probe_count = 10}, {},
        rng);
    const auto cleaned =
        exclude_leaves(session.probes, {true, false, false});
    ASSERT_EQ(cleaned.size(), 10u);
    for (std::size_t i = 0; i < cleaned.size(); ++i) {
        EXPECT_TRUE(cleaned.test(kReceived, i, 0));  // only feedback goes
        EXPECT_FALSE(cleaned.test(kValidAck, i, 0));
        EXPECT_TRUE(cleaned.test(kValidAck, i, 1));
    }
    EXPECT_THROW(exclude_leaves(session.probes, {true}),
                 std::invalid_argument);
}

TEST_F(ProbeFixture, SessionWidthMismatchThrows) {
    // A session probed on a two-leaf tree is too narrow for the fixture's
    // three-leaf tree: every consumer refuses it instead of reading past
    // the rows.
    const net::PathOracle oracle(topo);
    const std::vector<net::RouterId> dsts{4, 5};
    util::Arena arena;
    const ProbeTree narrow(0, oracle.paths_into(0, dsts, arena));
    util::Rng rng(15);
    const auto session = run_heavyweight_session(
        narrow, make_pass_fn(), 0, HeavyweightParams{.probe_count = 20}, {},
        rng);
    EXPECT_THROW((void)detect_fabricators(3, session.probes),
                 std::invalid_argument);
    EXPECT_THROW((void)detect_suppressors(*tree, session.probes,
                                          SuppressionTestParams{}),
                 std::invalid_argument);
    EXPECT_THROW((void)exclude_leaves(session.probes,
                                      std::vector<bool>(3, false)),
                 std::invalid_argument);
}

// A Transport handed to the sampler directly answers window queries; the
// same Transport behind a lambda that returns a bare probability is asked
// about every link on every stripe.  Both must sample the same matrices
// and leave the generator at the same position, across down intervals
// that start and end mid-session (one ends on a stripe time), overlapping
// loss spikes, and quiet stretches in which no link changes.
TEST_F(ProbeFixture, WindowedAndPerInstantSourcesSampleIdentically) {
    using util::kMillisecond;
    using util::kSecond;
    net::FailureTimeline timeline;
    timeline.add_down(links[1], {1210 * kMillisecond, 2 * kSecond});
    timeline.add_down(links[0], {6 * kSecond, 6030 * kMillisecond});
    timeline.finalize();
    net::FaultPlan plan;
    plan.downs.add_down(links[5], {500 * kMillisecond, 1500 * kMillisecond});
    plan.add_spike({links[3], 3 * kSecond, 4 * kSecond, 0.4});
    plan.add_spike({links[3], 3500 * kMillisecond, 5 * kSecond, 0.6});
    plan.add_spike({links[2], 4400 * kMillisecond, 4410 * kMillisecond, 0.5});
    plan.finalize();
    net::Transport transport(timeline, util::Rng(9));
    transport.set_chaos(&plan);
    const auto per_instant = [&transport](net::LinkId l, util::SimTime t) {
        return transport.pass_probability(l, t);
    };
    const std::vector<LeafBehavior> behaviors{
        {.suppress_ack_probability = 0.3}, {}, {.fabricate_acks = true}};

    util::Rng a(21);
    util::Rng b(21);
    for (const util::SimTime t0 : {0 * kSecond, 1 * kSecond, 3 * kSecond,
                                   4 * kSecond, 5800 * kMillisecond,
                                   8 * kSecond}) {
        const HeavyweightParams params{.probe_count = 60};
        const auto x = run_heavyweight_session(*tree, per_instant, t0, params,
                                               behaviors, a);
        const auto y =
            run_heavyweight_session(*tree, transport, t0, params, behaviors, b);
        ASSERT_EQ(x.probes.size(), y.probes.size());
        for (const ProbePlane plane : {kReceived, kValidAck, kFabricatedAck}) {
            for (std::size_t i = 0; i < x.probes.size(); ++i) {
                const auto rx = x.probes.row(plane, i);
                const auto ry = y.probes.row(plane, i);
                EXPECT_TRUE(std::equal(rx.begin(), rx.end(), ry.begin()))
                    << "t0=" << t0 << " stripe " << i;
            }
        }
        EXPECT_EQ(x.probes.ack_counts(), y.probes.ack_counts());
        const auto lx =
            run_lightweight_probe(*tree, per_instant, t0, 2, behaviors, a);
        const auto ly =
            run_lightweight_probe(*tree, transport, t0, 2, behaviors, b);
        EXPECT_EQ(lx.responsive, ly.responsive);
    }
    EXPECT_EQ(a.uniform_int(0, 1'000'000'000), b.uniform_int(0, 1'000'000'000));
}

TEST_F(ProbeFixture, WindowedSourceIsAskedAgainOnlyWhenAWindowEnds) {
    using util::kMillisecond;
    // Ten stripes 50 ms apart; every answer holds for 120 ms, so each link
    // is asked at 0, 150, 300 and 450 ms.
    int windowed_calls = 0;
    const auto windowed = [&](net::LinkId, util::SimTime t) {
        ++windowed_calls;
        return net::PassWindow{1.0, t + 120 * kMillisecond};
    };
    int per_instant_calls = 0;
    const auto per_instant = [&](net::LinkId, util::SimTime) {
        ++per_instant_calls;
        return 1.0;
    };
    const HeavyweightParams params{.probe_count = 10,
                                   .spacing = 50 * kMillisecond};
    util::Rng rng(22);
    const auto x = run_heavyweight_session(*tree, windowed, 0, params, {}, rng);
    const auto y =
        run_heavyweight_session(*tree, per_instant, 0, params, {}, rng);
    const int tree_links = static_cast<int>(tree->links().size());
    EXPECT_EQ(windowed_calls, 4 * tree_links);
    EXPECT_EQ(per_instant_calls, 10 * tree_links);
    EXPECT_EQ(x.probes.ack_counts(), y.probes.ack_counts());
    EXPECT_EQ(x.probes.ack_counts(), std::vector<int>(3, 10));

    EXPECT_THROW((void)run_heavyweight_session(
                     *tree, windowed, 0,
                     HeavyweightParams{.probe_count = 2, .spacing = -1}, {},
                     rng),
                 std::invalid_argument);
}

// A session over links that never change is one run, and every stripe
// accessor answers with that run's rows: from a windowed source, where the
// sampler extends the run by a window's stripes at once, and from a
// per-instant one alike.
TEST_F(ProbeFixture, StableSessionIsOneRun) {
    net::FailureTimeline timeline;
    timeline.finalize();
    net::Transport transport(timeline, util::Rng(23));
    util::Rng rng(24);
    const auto check = [&](PassProbabilityFn pass) {
        const auto session = run_heavyweight_session(
            *tree, pass, 0, HeavyweightParams{.probe_count = 100}, {}, rng);
        const ProbeMatrix& m = session.probes;
        ASSERT_EQ(m.size(), 100U);
        ASSERT_EQ(m.runs(), 1U);
        EXPECT_EQ(m.run_stripes(0), 100U);
        for (std::size_t i = 0; i < m.size(); ++i) {
            for (const ProbePlane p : reference::kPlanes) {
                EXPECT_TRUE(std::ranges::equal(m.row(p, i), m.run_row(p, 0)))
                    << "stripe " << i;
            }
        }
        EXPECT_EQ(session.probes.ack_counts(), std::vector<int>(3, 100));
    };
    check(transport);
    check(make_pass_fn());
}

// A fractional link and a leaf that suppresses at 0.3 make most stripes
// their own run; every consumer still counts what a walk over the stripes
// counts (probe_reference.h).
TEST_F(ProbeFixture, DrawnRunsMatchAStripeByStripeReference) {
    util::Rng rng(25);
    const std::vector<LeafBehavior> behaviors{
        {}, {.suppress_ack_probability = 0.3}, {}};
    const auto session = reference::expect_runs_match_stripes(
        *tree, make_pass_fn({{links[3], 0.25}}), 0,
        HeavyweightParams{.probe_count = 100}, behaviors, rng);
    const ProbeMatrix& m = session.probes;
    EXPECT_GT(m.runs(), m.size() / 2);
    // Silencing the suppressor merges runs that only its acks told apart.
    EXPECT_LT(exclude_leaves(m, {false, true, false}).runs(), m.runs());
}

// A link that goes down mid-session and comes back splits the session into
// three runs, and the leaf behind it fabricates acks only in the middle
// one.
TEST_F(ProbeFixture, LinkDownMidSessionMatchesAStripeByStripeReference) {
    using util::kMillisecond;
    using util::kSecond;
    net::FailureTimeline timeline;
    timeline.add_down(links[1], {2500 * kMillisecond, 4 * kSecond});
    timeline.finalize();
    net::Transport transport(timeline, util::Rng(26));
    const std::vector<LeafBehavior> behaviors{{.fabricate_acks = true}, {}, {}};
    util::Rng rng(27);
    const auto session = reference::expect_runs_match_stripes(
        *tree, transport, 0, HeavyweightParams{.probe_count = 100}, behaviors,
        rng);
    const ProbeMatrix& m = session.probes;
    ASSERT_EQ(m.runs(), 3U);
    EXPECT_EQ(m.run_stripes(0), 50U);
    EXPECT_EQ(m.run_stripes(1), 30U);
    EXPECT_EQ(m.run_stripes(2), 20U);
    EXPECT_FALSE(test_bit(m.run_row(kFabricatedAck, 0), 0));
    EXPECT_TRUE(test_bit(m.run_row(kFabricatedAck, 1), 0));
    EXPECT_EQ(session.probes.ack_counts(), (std::vector<int>{70, 70, 100}));
}

}  // namespace
}  // namespace concilium::tomography
