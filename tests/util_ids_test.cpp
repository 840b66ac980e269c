#include "util/ids.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.h"

namespace concilium::util {
namespace {

TEST(NodeId, DefaultIsZero) {
    const NodeId id;
    for (int i = 0; i < NodeId::kDigits; ++i) {
        EXPECT_EQ(id.digit(i), 0);
    }
    EXPECT_EQ(id.to_hex(), std::string(40, '0'));
}

TEST(NodeId, FromHexRoundTrips) {
    const std::string hex = "0123456789abcdef0123456789abcdef01234567";
    const NodeId id = NodeId::from_hex(hex);
    EXPECT_EQ(id.to_hex(), hex);
}

TEST(NodeId, FromHexAcceptsUppercase) {
    EXPECT_EQ(NodeId::from_hex("ABCDEF").to_hex().substr(0, 6), "abcdef");
}

TEST(NodeId, FromHexPadsShortStrings) {
    const NodeId id = NodeId::from_hex("ff");
    EXPECT_EQ(id.digit(0), 15);
    EXPECT_EQ(id.digit(1), 15);
    EXPECT_EQ(id.digit(2), 0);
}

TEST(NodeId, FromHexRejectsBadInput) {
    EXPECT_THROW(NodeId::from_hex("xyz"), std::invalid_argument);
    EXPECT_THROW(NodeId::from_hex(std::string(41, 'a')),
                 std::invalid_argument);
}

TEST(NodeId, DigitAccessMatchesHex) {
    const NodeId id = NodeId::from_hex("f0a5");
    EXPECT_EQ(id.digit(0), 0xf);
    EXPECT_EQ(id.digit(1), 0x0);
    EXPECT_EQ(id.digit(2), 0xa);
    EXPECT_EQ(id.digit(3), 0x5);
    EXPECT_THROW((void)id.digit(-1), std::out_of_range);
    EXPECT_THROW((void)id.digit(NodeId::kDigits), std::out_of_range);
}

TEST(NodeId, WithDigitReplacesExactlyOneDigit) {
    const NodeId id = NodeId::from_hex("aaaaaaaaaa");
    const NodeId mod = id.with_digit(3, 0x7);
    EXPECT_EQ(mod.digit(3), 0x7);
    for (int i = 0; i < NodeId::kDigits; ++i) {
        if (i == 3) continue;
        EXPECT_EQ(mod.digit(i), id.digit(i)) << "digit " << i;
    }
    EXPECT_THROW((void)id.with_digit(0, 16), std::out_of_range);
}

TEST(NodeId, SharedPrefixDigits) {
    const NodeId a = NodeId::from_hex("abcd00");
    EXPECT_EQ(a.shared_prefix_digits(NodeId::from_hex("abcd00")), 40);
    EXPECT_EQ(a.shared_prefix_digits(NodeId::from_hex("abce00")), 3);
    EXPECT_EQ(a.shared_prefix_digits(NodeId::from_hex("bbcd00")), 0);
    // First differing digit in the low nibble of a byte.
    EXPECT_EQ(a.shared_prefix_digits(NodeId::from_hex("abcd01")), 5);
}

TEST(NodeId, ClockwiseDistanceWraps) {
    const NodeId zero;
    const NodeId one = NodeId::from_hex(std::string(39, '0') + "1");
    EXPECT_EQ(clockwise_distance(zero, one), one);
    // Wrapping: distance from 1 to 0 is 2^160 - 1 (all f's).
    EXPECT_EQ(clockwise_distance(one, zero).to_hex(), std::string(40, 'f'));
}

TEST(NodeId, RingDistanceIsSymmetricAndPicksShortSide) {
    const NodeId lo = NodeId::from_hex("00");
    const NodeId hi = NodeId::from_hex("ff");  // very close going backwards
    EXPECT_EQ(lo.ring_distance(hi), hi.ring_distance(lo));
    // hi -> lo clockwise is 0x01 0...0, much shorter than lo -> hi.
    EXPECT_EQ(lo.ring_distance(hi), clockwise_distance(hi, lo));
}

TEST(NodeId, AsFractionSpansTheRing) {
    EXPECT_DOUBLE_EQ(NodeId().as_fraction(), 0.0);
    EXPECT_NEAR(NodeId::from_hex("80").as_fraction(), 0.5, 1e-12);
    EXPECT_LT(NodeId::from_hex(std::string(40, 'f')).as_fraction(), 1.0);
    EXPECT_GT(NodeId::from_hex(std::string(40, 'f')).as_fraction(), 0.999);
}

TEST(NodeId, RandomIdsAreDistinctAndDeterministic) {
    Rng rng1(42);
    Rng rng2(42);
    std::unordered_set<NodeId, NodeIdHash> seen;
    for (int i = 0; i < 1000; ++i) {
        const NodeId a = NodeId::random(rng1);
        const NodeId b = NodeId::random(rng2);
        EXPECT_EQ(a, b);
        EXPECT_TRUE(seen.insert(a).second) << "collision at " << i;
    }
}

TEST(NodeId, HashOfIsStableAndSpreads) {
    const NodeId a = NodeId::hash_of("some public key");
    EXPECT_EQ(a, NodeId::hash_of("some public key"));
    EXPECT_NE(a, NodeId::hash_of("some public kez"));
    std::unordered_set<NodeId, NodeIdHash> seen;
    for (int i = 0; i < 500; ++i) {
        EXPECT_TRUE(seen.insert(NodeId::hash_of("key" + std::to_string(i))).second);
    }
}

TEST(NodeId, OrderingIsLexicographicOnBytes) {
    EXPECT_LT(NodeId::from_hex("00ff"), NodeId::from_hex("01"));
    EXPECT_LT(NodeId::from_hex("7f"), NodeId::from_hex("80"));
}

TEST(OverlayGeometry, SlotCounts) {
    const OverlayGeometry g{.digits = 32};
    EXPECT_EQ(g.rows(), 32);
    EXPECT_EQ(g.columns(), 16);
    EXPECT_EQ(g.table_slots(), 512);
}

TEST(NodeId, ShortHexIsPrefix) {
    const NodeId id = NodeId::from_hex("deadbeef12345678");
    EXPECT_EQ(id.short_hex(), "deadbeef");
}

}  // namespace
}  // namespace concilium::util
