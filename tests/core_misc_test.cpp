#include <gtest/gtest.h>

#include "core/bandwidth.h"
#include "core/reputation.h"

namespace concilium::core {
namespace {

const util::NodeId kAlice = util::NodeId::from_hex("0a");
const util::NodeId kBob = util::NodeId::from_hex("0b");
const util::NodeId kCarol = util::NodeId::from_hex("0c");

TEST(ReputationBook, CountsDistinctVoters) {
    ReputationBook book;
    EXPECT_EQ(book.votes_against(kBob), 0);
    book.cast_vote(kAlice, kBob);
    book.cast_vote(kAlice, kBob);  // re-vote does not double count
    EXPECT_EQ(book.votes_against(kBob), 1);
    book.cast_vote(kCarol, kBob);
    EXPECT_EQ(book.votes_against(kBob), 2);
    EXPECT_EQ(book.votes_against(kAlice), 0);
}

TEST(ReputationBook, PoorPeerThreshold) {
    ReputationBook book;
    book.cast_vote(kAlice, kBob);
    EXPECT_FALSE(book.poor_peer(kBob, 2));
    book.cast_vote(kCarol, kBob);
    EXPECT_TRUE(book.poor_peer(kBob, 2));
}

TEST(Sanctions, NoAccusationsNoSanctions) {
    for (const auto policy :
         {SanctionPolicy::kNone, SanctionPolicy::kDistrustSensitive,
          SanctionPolicy::kUniversalBlacklist}) {
        const auto d = evaluate_sanction(policy, 0, 3);
        EXPECT_TRUE(d.allow_peering);
        EXPECT_TRUE(d.allow_sensitive_messages);
        EXPECT_TRUE(d.keep_in_leaf_set);
    }
}

TEST(Sanctions, DistrustWithholdsSensitiveOnly) {
    const auto d =
        evaluate_sanction(SanctionPolicy::kDistrustSensitive, 1, 3);
    EXPECT_TRUE(d.allow_peering);
    EXPECT_FALSE(d.allow_sensitive_messages);
}

TEST(Sanctions, BlacklistRequiresThreshold) {
    const auto below =
        evaluate_sanction(SanctionPolicy::kUniversalBlacklist, 2, 3);
    EXPECT_TRUE(below.allow_peering);
    const auto at =
        evaluate_sanction(SanctionPolicy::kUniversalBlacklist, 3, 3);
    EXPECT_FALSE(at.allow_peering);
}

TEST(Sanctions, LeafSetMembershipNeverRevokedLocally) {
    // Section 3.7: local leaf-set eviction causes inconsistent routing.
    const auto d =
        evaluate_sanction(SanctionPolicy::kUniversalBlacklist, 10, 3);
    EXPECT_TRUE(d.keep_in_leaf_set);
}

TEST(BandwidthModel, RoutingPeersNearPaperValue) {
    // Section 4.4: "In a 100,000 node overlay, the average node has 77
    // entries in its local routing state" (mu_phi + 16).
    const BandwidthModel model;
    EXPECT_NEAR(model.expected_routing_peers(100000), 77.0, 3.0);
}

TEST(BandwidthModel, AdvertisementNearElevenAndAHalfKilobytes) {
    // "an entire advertised routing table is about 11.5 kilobytes"
    const BandwidthModel model;
    const double bytes = model.advertisement_bytes(100000);
    EXPECT_GT(bytes, 10000.0);
    EXPECT_LT(bytes, 12500.0);
}

TEST(BandwidthModel, HeavyweightProbeNearPaperValue) {
    // C(77, 2) * 100 stripes * 2 probes * 30 bytes = 17,556,000 bytes
    // ~= 16.7 MiB ("16.7 MB of outgoing network traffic").
    const double bytes = BandwidthModel::heavyweight_probe_bytes(77);
    EXPECT_DOUBLE_EQ(bytes, 2926.0 * 100 * 2 * 30);
    EXPECT_NEAR(bytes / (1024.0 * 1024.0), 16.7, 0.1);
}

TEST(BandwidthModel, ProbeCostScalesQuadratically) {
    const double small = BandwidthModel::heavyweight_probe_bytes(10);
    const double big = BandwidthModel::heavyweight_probe_bytes(20);
    EXPECT_NEAR(big / small, 190.0 / 45.0, 1e-9);
}

TEST(BandwidthModel, JumpEntriesGrowWithPopulation) {
    const BandwidthModel model;
    EXPECT_LT(model.expected_jump_entries(1000),
              model.expected_jump_entries(100000));
}

}  // namespace
}  // namespace concilium::core
