#include <gtest/gtest.h>

#include <unordered_set>

#include "overlay/advertisement.h"
#include "overlay/network.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace concilium::overlay {
namespace {

class OverlayNetworkTest : public ::testing::Test {
  protected:
    OverlayNetworkTest() : net_(concilium::testing::make_overlay(200)) {}
    OverlayNetwork net_;
};

TEST_F(OverlayNetworkTest, MembersIndexable) {
    EXPECT_EQ(net_.size(), 200u);
    for (MemberIndex i = 0; i < net_.size(); ++i) {
        const auto idx = net_.index_of(net_.member(i).id());
        ASSERT_TRUE(idx.has_value());
        EXPECT_EQ(*idx, i);
    }
    EXPECT_FALSE(net_.index_of(util::NodeId::from_hex("00")).has_value());
}

TEST_F(OverlayNetworkTest, LeafSetsAreNearestNeighbors) {
    // For every member, its successors must be the nodes with the smallest
    // clockwise distances among all members.
    for (MemberIndex i = 0; i < 20; ++i) {
        const auto& self = net_.member(i).id();
        const auto succ = net_.leaf_set(i).successors();
        ASSERT_EQ(succ.size(), 8u);
        // Successor 0 must be the global clockwise-nearest member.
        util::NodeId best_dist = util::clockwise_distance(
            self, net_.member(succ[0]).id());
        for (MemberIndex j = 0; j < net_.size(); ++j) {
            if (j == i) continue;
            const auto d =
                util::clockwise_distance(self, net_.member(j).id());
            EXPECT_FALSE(d < best_dist)
                << "member " << j << " is closer than leaf successor";
        }
    }
}

TEST_F(OverlayNetworkTest, SecureTableEntriesSatisfyConstraints) {
    for (MemberIndex i = 0; i < net_.size(); ++i) {
        const JumpTable& table = net_.secure_table(i);
        for (const JumpTable::Entry& e : table.entries()) {
            const auto& peer = net_.member(e.member).id();
            EXPECT_TRUE(
                table.satisfies_standard_constraint(e.row, e.col, peer))
                << "member " << i << " slot (" << e.row << "," << e.col << ")";
        }
    }
}

TEST_F(OverlayNetworkTest, SecureEntryIsClosestToConstraintPoint) {
    // Spot-check: the chosen entry must be at least as close to p as any
    // other qualifying member (Castro's constrained table).
    for (MemberIndex i = 0; i < 10; ++i) {
        const JumpTable& table = net_.secure_table(i);
        for (const JumpTable::Entry& e : table.entries()) {
            const util::NodeId p = table.constraint_point(e.row, e.col);
            const util::NodeId chosen_dist =
                net_.member(e.member).id().ring_distance(p);
            for (MemberIndex j = 0; j < net_.size(); ++j) {
                if (j == i) continue;
                if (!table.satisfies_standard_constraint(
                        e.row, e.col, net_.member(j).id())) {
                    continue;
                }
                const auto d = net_.member(j).id().ring_distance(p);
                EXPECT_FALSE(d < chosen_dist)
                    << "slot (" << e.row << "," << e.col << ") of member "
                    << i;
            }
        }
    }
}

TEST_F(OverlayNetworkTest, RoutingPeersAreDeduplicated) {
    for (MemberIndex i = 0; i < net_.size(); ++i) {
        const auto& peers = net_.routing_peers(i);
        std::unordered_set<MemberIndex> set(peers.begin(), peers.end());
        EXPECT_EQ(set.size(), peers.size());
        EXPECT_FALSE(set.contains(i));
        EXPECT_GE(peers.size(), 16u);  // at least the leaf set
    }
}

TEST_F(OverlayNetworkTest, RootOfIsNearestMember) {
    util::Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        const util::NodeId key = util::NodeId::random(rng);
        const MemberIndex root = net_.root_of(key);
        const auto root_dist = net_.member(root).id().ring_distance(key);
        for (MemberIndex j = 0; j < net_.size(); ++j) {
            EXPECT_FALSE(net_.member(j).id().ring_distance(key) < root_dist);
        }
    }
}

TEST_F(OverlayNetworkTest, RoutesConvergeAndMakePrefixProgress) {
    util::Rng rng(10);
    for (int trial = 0; trial < 100; ++trial) {
        const util::NodeId key = util::NodeId::random(rng);
        const auto start = static_cast<MemberIndex>(
            rng.uniform_index(net_.size()));
        const auto route = net_.route(start, key);
        ASSERT_FALSE(route.empty());
        EXPECT_EQ(route.front(), start);
        EXPECT_EQ(route.back(), net_.root_of(key));
        // Pastry bound: O(log N) hops; generous cap for n=200.
        EXPECT_LE(route.size(), 8u);
        // No node repeats.
        std::unordered_set<MemberIndex> seen(route.begin(), route.end());
        EXPECT_EQ(seen.size(), route.size());
    }
}

TEST_F(OverlayNetworkTest, RouteToOwnIdIsTrivial) {
    const auto route = net_.route(5, net_.member(5).id());
    ASSERT_EQ(route.size(), 1u);
    EXPECT_EQ(route.front(), 5u);
}

TEST_F(OverlayNetworkTest, NextHopUsesJumpTableSlot) {
    util::Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        const util::NodeId key = util::NodeId::random(rng);
        const auto start = static_cast<MemberIndex>(
            rng.uniform_index(net_.size()));
        if (net_.root_of(key) == start) continue;
        const auto hop = net_.next_hop(start, key);
        ASSERT_TRUE(hop.has_value());
        const auto& self = net_.member(start).id();
        const auto& next = net_.member(*hop).id();
        // The next hop either gains prefix digits or closes ring distance.
        const bool prefix_progress =
            next.shared_prefix_digits(key) > self.shared_prefix_digits(key);
        const bool distance_progress =
            next.ring_distance(key) < self.ring_distance(key);
        EXPECT_TRUE(prefix_progress || distance_progress);
    }
}

TEST_F(OverlayNetworkTest, PopulationEstimateIsSane) {
    util::OnlineMoments estimates;
    for (MemberIndex i = 0; i < net_.size(); ++i) {
        estimates.add(net_.estimate_population(i));
    }
    // The mean estimate should be within a factor ~2 of the truth.
    EXPECT_GT(estimates.mean(), 100.0);
    EXPECT_LT(estimates.mean(), 420.0);
}

TEST(OverlayNetworkConstruction, RejectsEmptyAndDuplicates) {
    util::Rng rng(1);
    EXPECT_THROW(OverlayNetwork({}, rng),
                 std::invalid_argument);

    crypto::CertificateAuthority ca(5);
    auto members = concilium::testing::make_members(ca, 2);
    members[1].certificate.node_id = members[0].certificate.node_id;
    EXPECT_THROW(OverlayNetwork(std::move(members), rng),
                 std::invalid_argument);
}

TEST(OverlayNetworkConstruction, TinyOverlayWorks) {
    const auto net = concilium::testing::make_overlay(3);
    EXPECT_EQ(net.size(), 3u);
    for (MemberIndex i = 0; i < 3; ++i) {
        EXPECT_LE(net.leaf_set(i).successors().size(), 2u);
        const auto route = net.route(i, net.member((i + 1) % 3).id());
        EXPECT_EQ(route.back(), (i + 1) % 3);
    }
}

TEST(Advertisement, CarriesSecureTableWithFreshTimestamps) {
    const auto net = concilium::testing::make_overlay(100, 7);
    const util::SimTime now = 10 * util::kMinute;
    const auto ad = make_advertisement(net, 3, now, [&](MemberIndex) {
        return now - 30 * util::kSecond;
    });
    EXPECT_EQ(ad.owner, net.member(3).id());
    EXPECT_EQ(ad.entries.size(),
              static_cast<std::size_t>(net.secure_table(3).occupancy()));
    for (const AdvertisedEntry& e : ad.entries) {
        EXPECT_EQ(e.freshness.signer, e.peer);
        EXPECT_EQ(e.freshness.at, now - 30 * util::kSecond);
    }
    EXPECT_NEAR(ad.density(OverlayNetwork::kGeometry),
                net.secure_table(3).density(), 1e-12);
    // Wire size: 144 bytes per entry plus envelope.
    EXPECT_GE(ad.wire_bytes(), ad.entries.size() * 144);
}

}  // namespace
}  // namespace concilium::overlay
