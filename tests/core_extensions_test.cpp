#include "core/extensions.h"

#include <gtest/gtest.h>

#include "net/topology_gen.h"
#include "util/rng.h"

namespace concilium::core {
namespace {

TEST(ProbeSharing, GroupsCoLocatedMembersByDomain) {
    util::Rng rng(3);
    net::TopologyParams tp = net::small_params();
    tp.stub_domains = 4;       // few domains => guaranteed co-location
    tp.end_hosts = 200;
    const net::Topology topo = net::generate_topology(tp, rng);
    crypto::CertificateAuthority ca(4);
    const auto net = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 40, ca, rng);
    const tomography::OverlayTrees trees(net, topo);

    const auto plan = plan_probe_sharing(net, topo, trees);
    ASSERT_FALSE(plan.groups.empty());
    std::size_t grouped = plan.solo_members;
    for (const auto& g : plan.groups) {
        EXPECT_GE(g.members.size(), 2u);
        grouped += g.members.size();
        // Every member of a group really lives in the group's domain.
        for (const auto m : g.members) {
            EXPECT_EQ(topo.domain(net.member(m).ip()), g.domain);
        }
        EXPECT_GT(g.individual_bytes, 0.0);
        EXPECT_GT(g.shared_bytes_per_member, 0.0);
    }
    EXPECT_EQ(grouped, net.size());
}

TEST(ProbeSharing, SharingAmortizesBandwidth) {
    // With heavily co-located members, rotating one multi-forest probe must
    // beat everyone probing alone ("the bandwidth cost for probing shared
    // links could be amortized across multiple nodes").
    util::Rng rng(5);
    net::TopologyParams tp = net::small_params();
    tp.stub_domains = 3;
    tp.end_hosts = 200;
    const net::Topology topo = net::generate_topology(tp, rng);
    crypto::CertificateAuthority ca(6);
    const auto net = overlay::build_overlay_from_hosts(
        topo.end_hosts(), 45, ca, rng);
    const tomography::OverlayTrees trees(net, topo);

    const auto plan = plan_probe_sharing(net, topo, trees);
    ASSERT_FALSE(plan.groups.empty());
    // Co-located members' trees share the stub and core links, so the group
    // covers each distinct forest link more than once when probing alone --
    // that duplicate coverage is what consolidation eliminates.
    EXPECT_GT(plan.mean_link_redundancy(), 1.2);
    // With only three stub domains the groups are large and their peer sets
    // overlap heavily, so even the all-pairs byte cost amortizes: sharing
    // pays off.  (With tiny groups of disjoint peers it does not -- the
    // bench surfaces that regime.)
    EXPECT_GT(plan.mean_savings(), 1.0);
}

TEST(AckBatch, CounterEncodingForContiguousIds) {
    const auto keys = crypto::KeyPair::from_seed(1);
    AckBatcher batcher(util::NodeId::from_hex("0a"),
                       util::NodeId::from_hex("0b"));
    for (std::uint64_t id = 100; id < 140; ++id) batcher.record(id);
    EXPECT_EQ(batcher.pending(), 40u);
    const auto ack = batcher.flush(5 * util::kSecond, keys);
    EXPECT_EQ(batcher.pending(), 0u);
    EXPECT_EQ(ack.encoding, AckEncoding::kCounter);
    EXPECT_TRUE(ack.covers(100));
    EXPECT_TRUE(ack.covers(139));
    EXPECT_FALSE(ack.covers(99));
    EXPECT_FALSE(ack.covers(140));
}

TEST(AckBatch, HashListEncodingForGappyIds) {
    const auto keys = crypto::KeyPair::from_seed(2);
    AckBatcher batcher(util::NodeId::from_hex("0a"),
                       util::NodeId::from_hex("0b"));
    for (const std::uint64_t id : {5u, 7u, 11u, 12u}) batcher.record(id);
    const auto ack = batcher.flush(0, keys);
    EXPECT_EQ(ack.encoding, AckEncoding::kHashList);
    EXPECT_TRUE(ack.covers(5));
    EXPECT_TRUE(ack.covers(12));
    EXPECT_FALSE(ack.covers(6));   // the gap is NOT acknowledged
    EXPECT_FALSE(ack.covers(10));
}

TEST(AckBatch, DuplicateRecordsCollapse) {
    const auto keys = crypto::KeyPair::from_seed(3);
    AckBatcher batcher(util::NodeId::from_hex("0a"),
                       util::NodeId::from_hex("0b"));
    batcher.record(1);
    batcher.record(1);
    batcher.record(2);
    EXPECT_EQ(batcher.pending(), 2u);
    const auto ack = batcher.flush(0, keys);
    EXPECT_EQ(ack.encoding, AckEncoding::kCounter);
    EXPECT_EQ(ack.count, 2u);
}

TEST(AckBatch, SignatureBindsContent) {
    const auto keys = crypto::KeyPair::from_seed(4);
    crypto::KeyRegistry registry;
    registry.register_key(keys);
    AckBatcher batcher(util::NodeId::from_hex("0a"),
                       util::NodeId::from_hex("0b"));
    for (std::uint64_t id = 0; id < 10; ++id) batcher.record(id);
    auto ack = batcher.flush(0, keys);
    EXPECT_TRUE(verify_batched_ack(ack, keys.public_key(), registry));
    ack.count += 5;  // claim more packets arrived than actually did
    EXPECT_FALSE(verify_batched_ack(ack, keys.public_key(), registry));
}

TEST(AckBatch, BatchingBeatsPerMessageAcks) {
    const auto keys = crypto::KeyPair::from_seed(5);
    AckBatcher contiguous(util::NodeId::from_hex("0a"),
                          util::NodeId::from_hex("0b"));
    AckBatcher gappy(util::NodeId::from_hex("0a"),
                     util::NodeId::from_hex("0b"));
    for (std::uint64_t id = 0; id < 100; ++id) {
        contiguous.record(id);
        if (id % 3 != 0) gappy.record(id);
    }
    const auto counter = contiguous.flush(0, keys);
    const auto hashes = gappy.flush(0, keys);
    const auto per_message = BatchedAck::per_message_wire_bytes(100);
    EXPECT_LT(counter.wire_bytes(), hashes.wire_bytes());
    EXPECT_LT(hashes.wire_bytes(), per_message);
    // The counter encoding is constant-size regardless of batch length.
    AckBatcher big(util::NodeId::from_hex("0a"),
                   util::NodeId::from_hex("0b"));
    for (std::uint64_t id = 0; id < 10000; ++id) big.record(id);
    EXPECT_EQ(big.flush(0, keys).wire_bytes(), counter.wire_bytes());
}

TEST(AdvertisementDiff, DiffsBeatFullTablesForSmallChanges) {
    // A full 100k-overlay advertisement is ~11.3 kB; a 3-entry diff must be
    // far cheaper.
    const BandwidthModel model;
    const double full = model.advertisement_bytes(100000);
    const double diff = advertisement_diff_bytes(3);
    EXPECT_LT(diff, full / 10.0);
    // Diffs grow linearly in changed entries.
    EXPECT_NEAR(advertisement_diff_bytes(10) - advertisement_diff_bytes(5),
                5 * 145.0, 1e-9);
}

}  // namespace
}  // namespace concilium::core
