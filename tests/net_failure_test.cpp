#include <gtest/gtest.h>

#include <unordered_set>

#include "net/link_state.h"
#include "net/paths.h"
#include "util/stats.h"
#include "net/topology_gen.h"
#include "net/transport.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::net {
namespace {

using util::kMinute;
using util::kSecond;

TEST(FailureTimeline, UpByDefault) {
    FailureTimeline t;
    t.finalize();
    EXPECT_TRUE(t.is_up(0, 0));
    EXPECT_TRUE(t.is_up(12345, 99 * kMinute));
}

TEST(FailureTimeline, DownInsideIntervalOnly) {
    FailureTimeline t;
    t.add_down(7, DownInterval{10 * kSecond, 20 * kSecond});
    t.finalize();
    EXPECT_TRUE(t.is_up(7, 9 * kSecond));
    EXPECT_FALSE(t.is_up(7, 10 * kSecond));
    EXPECT_FALSE(t.is_up(7, 19 * kSecond));
    EXPECT_TRUE(t.is_up(7, 20 * kSecond));  // end is exclusive
    EXPECT_TRUE(t.is_up(8, 15 * kSecond));  // other links unaffected
}

TEST(FailureTimeline, OverlappingIntervalsMerge) {
    FailureTimeline t;
    t.add_down(1, DownInterval{0, 10});
    t.add_down(1, DownInterval{5, 20});
    t.add_down(1, DownInterval{30, 40});
    t.finalize();
    ASSERT_EQ(t.intervals(1).size(), 2u);
    EXPECT_EQ(t.intervals(1)[0].start, 0);
    EXPECT_EQ(t.intervals(1)[0].end, 20);
}

TEST(FailureTimeline, QueriesBeforeFinalizeThrow) {
    FailureTimeline t;
    t.add_down(1, DownInterval{0, 10});
    EXPECT_THROW((void)t.is_up(1, 5), std::logic_error);
}

TEST(FailureTimeline, EmptyIntervalIgnored) {
    FailureTimeline t;
    t.add_down(1, DownInterval{10, 10});
    t.add_down(1, DownInterval{10, 5});
    t.finalize();
    EXPECT_TRUE(t.intervals(1).empty());
}

TEST(FailureTimeline, AnyDownAndDownCount) {
    FailureTimeline t;
    t.add_down(2, DownInterval{0, 100});
    t.add_down(4, DownInterval{0, 100});
    t.finalize();
    const std::vector<LinkId> links{1, 2, 3};
    EXPECT_TRUE(t.any_down(links, 50));
    EXPECT_EQ(t.down_count(links, 50), 1u);
    const std::vector<LinkId> up_links{1, 3, 5};
    EXPECT_FALSE(t.any_down(up_links, 50));
    EXPECT_TRUE(t.any_down(links, 0));
    EXPECT_FALSE(t.any_down(links, 100));
}

TEST(FailureTimeline, DownFraction) {
    FailureTimeline t;
    t.add_down(3, DownInterval{10, 20});
    t.finalize();
    EXPECT_DOUBLE_EQ(t.down_fraction(3, 0, 40), 0.25);
    EXPECT_DOUBLE_EQ(t.down_fraction(3, 10, 20), 1.0);
    EXPECT_DOUBLE_EQ(t.down_fraction(3, 20, 40), 0.0);
    EXPECT_DOUBLE_EQ(t.down_fraction(99, 0, 40), 0.0);
}

class GeneratedTimelineTest : public ::testing::Test {
  protected:
    void SetUp() override {
        util::Rng rng(11);
        topo_ = generate_topology(small_params(), rng);
        const PathOracle oracle(topo_);
        const auto hosts = topo_.end_hosts();
        // Paths between random host pairs play the (host, peer) role.
        for (std::size_t i = 0; i + 1 < hosts.size() && i < 60; i += 2) {
            const RouterId dst = hosts[i + 1];
            paths_.push_back(
                oracle.paths_into(hosts[i], {&dst, 1}, arena_).front());
        }
    }

    Topology topo_;
    util::Arena arena_;
    std::vector<PathView> paths_;
};

TEST_F(GeneratedTimelineTest, SteadyStateFractionNearTarget) {
    util::Rng rng(12);
    FailureModelParams params;
    params.fraction_bad = 0.05;
    const util::SimTime duration = 2 * util::kHour;
    const FailureTimeline timeline =
        generate_failure_timeline(params, duration, paths_, rng);

    std::vector<LinkId> universe;
    {
        std::unordered_set<LinkId> seen;
        for (const PathView& p : paths_) {
            for (const LinkId l : p.links) {
                if (seen.insert(l).second) universe.push_back(l);
            }
        }
    }
    // Average the instantaneous down fraction over many probes.
    double sum = 0.0;
    const int probes = 48;
    for (int i = 0; i < probes; ++i) {
        const util::SimTime t = duration * i / probes;
        sum += static_cast<double>(timeline.down_count(universe, t)) /
               static_cast<double>(universe.size());
    }
    EXPECT_NEAR(sum / probes, 0.05, 0.035);
}

TEST_F(GeneratedTimelineTest, DowntimesHavePaperScale) {
    util::Rng rng(13);
    FailureModelParams params;
    const FailureTimeline timeline = generate_failure_timeline(
        params, 2 * util::kHour, paths_, rng);
    util::OnlineMoments durations;
    std::unordered_set<LinkId> seen;
    for (const PathView& p : paths_) {
        for (const LinkId l : p.links) {
            if (!seen.insert(l).second) continue;
            for (const DownInterval& iv : timeline.intervals(l)) {
                // Skip intervals clipped by the horizon.
                if (iv.start == 0 || iv.end == 2 * util::kHour) continue;
                durations.add(util::to_seconds(iv.end - iv.start));
            }
        }
    }
    ASSERT_GT(durations.count(), 10);
    // Mean downtime ~15 min (clipping and merging perturb it slightly).
    EXPECT_NEAR(durations.mean(), 15.0 * 60.0, 6.0 * 60.0);
}

TEST_F(GeneratedTimelineTest, NoPathsMeansNoFailures) {
    util::Rng rng(14);
    const FailureTimeline timeline = generate_failure_timeline(
        FailureModelParams{}, util::kHour, {}, rng);
    EXPECT_TRUE(timeline.is_up(0, 0));
}

TEST(Transport, PassProbabilityReflectsLinkState) {
    FailureTimeline timeline;
    timeline.add_down(0, DownInterval{0, 10 * kSecond});
    timeline.finalize();
    Transport transport(timeline, util::Rng(1),
                        TransportParams{.healthy_link_loss = 0.25});
    EXPECT_DOUBLE_EQ(transport.pass_probability(0, 5 * kSecond), 0.0);
    EXPECT_DOUBLE_EQ(transport.pass_probability(0, 15 * kSecond), 0.75);
}

TEST(Transport, TraversalSucceedsOverHealthyPath) {
    Topology topo;
    topo.add_router(RouterTier::kEndHost);
    topo.add_router(RouterTier::kCore);
    topo.add_router(RouterTier::kEndHost);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    util::Arena arena;
    const std::vector<RouterId> dst{2};
    const PathView path = PathOracle(topo).paths_into(0, dst, arena)[0];

    FailureTimeline timeline;
    timeline.finalize();
    Transport transport(timeline, util::Rng(2));
    EXPECT_TRUE(transport.sample_traversal(path.links, 0));
    EXPECT_EQ(transport.latency(path.hops()), 2 * kPerHopLatency);
}

TEST(Transport, TraversalFailsWhenLinkDown) {
    Topology topo;
    topo.add_router(RouterTier::kEndHost);
    topo.add_router(RouterTier::kEndHost);
    const LinkId l = topo.add_link(0, 1);
    util::Arena arena;
    const std::vector<RouterId> dst{1};
    const PathView path = PathOracle(topo).paths_into(0, dst, arena)[0];

    FailureTimeline timeline;
    timeline.add_down(l, DownInterval{0, util::kHour});
    timeline.finalize();
    Transport transport(timeline, util::Rng(3));
    EXPECT_FALSE(transport.sample_traversal(path.links, 0));
    EXPECT_TRUE(transport.sample_traversal(path.links, 2 * util::kHour));
}

TEST(Transport, ResidualLossDropsSomePackets) {
    Topology topo;
    topo.add_router(RouterTier::kEndHost);
    topo.add_router(RouterTier::kEndHost);
    topo.add_link(0, 1);
    util::Arena arena;
    const std::vector<RouterId> dst{1};
    const PathView path = PathOracle(topo).paths_into(0, dst, arena)[0];

    FailureTimeline timeline;
    timeline.finalize();
    Transport transport(timeline, util::Rng(4),
                        TransportParams{.healthy_link_loss = 0.5});
    int delivered = 0;
    for (int i = 0; i < 400; ++i) {
        if (transport.sample_traversal(path.links, 0)) ++delivered;
    }
    EXPECT_NEAR(delivered, 200, 45);
}

}  // namespace
}  // namespace concilium::net
