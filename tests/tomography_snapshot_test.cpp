#include <gtest/gtest.h>

#include "crypto/certificates.h"
#include "net/paths.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

TEST(LossBucket, QuantizationBoundaries) {
    EXPECT_EQ(quantize_loss(0.0), LossBucket::kClean);
    EXPECT_EQ(quantize_loss(0.009), LossBucket::kClean);
    EXPECT_EQ(quantize_loss(0.01), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(0.049), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(0.05), LossBucket::kModerate);
    EXPECT_EQ(quantize_loss(0.2), LossBucket::kHigh);
    EXPECT_EQ(quantize_loss(0.8), LossBucket::kDown);
    EXPECT_EQ(quantize_loss(1.0), LossBucket::kDown);
}

TEST(LossBucket, RepresentativeLossIsInsideBucket) {
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kLow)), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kModerate)),
              LossBucket::kModerate);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kHigh)),
              LossBucket::kHigh);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kDown)),
              LossBucket::kDown);
}

struct SnapshotFixture : ::testing::Test {
    SnapshotFixture() : ca(7) {
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
        origin = ca.admit(0);
        util::Rng rng(5);
        for (int i = 0; i < 3; ++i) {
            leaf_ids.push_back(util::NodeId::random(rng));
        }
    }

    TomographicSnapshot snap(std::unordered_map<net::LinkId, double> loss) {
        util::Rng rng(3);
        const auto pass = [&loss](net::LinkId l, util::SimTime) {
            const auto it = loss.find(l);
            return it == loss.end() ? 1.0 : 1.0 - it->second;
        };
        const auto session = run_heavyweight_session(
            *tree, pass, 0, HeavyweightParams{.probe_count = 2000}, {}, rng);
        const auto inference = infer_link_loss(*tree, session.probes);
        return make_snapshot(origin->certificate.node_id, origin->keys,
                             42 * util::kSecond, *tree, inference,
                             SnapshotParams{}, leaf_ids);
    }

    net::Topology topo;
    net::LinkId links[6];
    std::optional<ProbeTree> tree;
    crypto::CertificateAuthority ca;
    std::optional<crypto::CertificateAuthority::Admission> origin;
    std::vector<util::NodeId> leaf_ids;
};

TEST_F(SnapshotFixture, CleanNetworkSnapshotsAllUp) {
    const auto s = snap({});
    EXPECT_EQ(s.paths.size(), 3u);
    EXPECT_EQ(s.links.size(), 6u);
    for (const auto& p : s.paths) EXPECT_EQ(p.bucket, LossBucket::kClean);
    for (const auto& l : s.links) EXPECT_TRUE(l.up);
}

TEST_F(SnapshotFixture, DownLinkReportedDownOnCorrectPath) {
    const auto s = snap({{links[3], 1.0}});
    // The path to leaf 0 (router 4) is dead; others clean.
    EXPECT_EQ(s.paths[0].bucket, LossBucket::kDown);
    EXPECT_EQ(s.paths[1].bucket, LossBucket::kClean);
    EXPECT_EQ(s.paths[2].bucket, LossBucket::kClean);
    for (const auto& l : s.links) {
        if (l.link == links[3]) {
            EXPECT_FALSE(l.up);
        } else {
            EXPECT_TRUE(l.up) << "link " << l.link;
        }
    }
}

TEST_F(SnapshotFixture, ModerateLossIsUpButBucketed) {
    const auto s = snap({{links[5], 0.10}});
    EXPECT_EQ(s.paths[2].bucket, LossBucket::kModerate);
    for (const auto& l : s.links) {
        if (l.link == links[5]) {
            EXPECT_TRUE(l.up);  // below down threshold
        }
    }
}

TEST_F(SnapshotFixture, SignatureVerifiesAndTamperFails) {
    auto s = snap({});
    EXPECT_TRUE(
        verify_snapshot(s, origin->keys.public_key(), ca.registry()));
    s.links[0].up = !s.links[0].up;  // flip a probe result after signing
    EXPECT_FALSE(
        verify_snapshot(s, origin->keys.public_key(), ca.registry()));
}

TEST_F(SnapshotFixture, WrongOriginKeyFails) {
    const auto s = snap({});
    const auto other = ca.admit(99);
    EXPECT_FALSE(verify_snapshot(s, other.keys.public_key(), ca.registry()));
}

TEST_F(SnapshotFixture, WireBytesUseOneBytePerPath) {
    const auto s = snap({});
    EXPECT_EQ(s.wire_bytes(),
              s.paths.size() + util::NodeId::kBytes + 8 + 8 +
                  crypto::Signature::kWireBytes);
}

TEST_F(SnapshotFixture, LeafIdCountMismatchThrows) {
    util::Rng rng(3);
    const auto session = run_heavyweight_session(
        *tree, [](net::LinkId, util::SimTime) { return 1.0; }, 0,
        HeavyweightParams{.probe_count = 10}, {}, rng);
    const auto inference = infer_link_loss(*tree, session.probes);
    std::vector<util::NodeId> wrong(2);
    EXPECT_THROW(make_snapshot(origin->certificate.node_id, origin->keys, 0,
                               *tree, inference, SnapshotParams{}, wrong),
                 std::invalid_argument);
}

}  // namespace
}  // namespace concilium::tomography
