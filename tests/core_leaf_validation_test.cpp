// Castro's leaf-set density test, wired end to end (Section 2 / 3.1).

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/validation.h"
#include "test_helpers.h"

namespace concilium::core {
namespace {

struct LeafValidationFixture : ::testing::Test {
    LeafValidationFixture() : ca(41), rng(42) {
        net.emplace(overlay::OverlayNetwork(
            concilium::testing::make_members(ca, 200), rng));
        for (overlay::MemberIndex i = 0; i < net->size(); ++i) {
            keys_by_id.emplace(net->member(i).id(),
                               net->member(i).keys.public_key());
        }
    }

    overlay::LeafSetAdvertisement advertise(overlay::MemberIndex who,
                                            util::SimTime now,
                                            util::SimTime probe_age) {
        return overlay::make_leaf_advertisement(
            *net, who, now,
            [&](overlay::MemberIndex) { return now - probe_age; });
    }

    std::function<std::optional<crypto::PublicKey>(const util::NodeId&)>
    key_of() {
        return [this](const util::NodeId& id)
                   -> std::optional<crypto::PublicKey> {
            const auto it = keys_by_id.find(id);
            if (it == keys_by_id.end()) return std::nullopt;
            return it->second;
        };
    }

    double local_spacing() {
        return net->leaf_set(0).mean_spacing(
            [&](overlay::MemberIndex m) { return net->member(m).id(); });
    }

    ValidationParams params_with(double gamma = 3.0) {
        ValidationParams p;
        p.gamma = gamma;  // spacing is noisy at n=200; generous default
        return p;
    }

    crypto::CertificateAuthority ca;
    util::Rng rng;
    std::optional<overlay::OverlayNetwork> net;
    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash>
        keys_by_id;
};

TEST_F(LeafValidationFixture, HonestLeafSetPasses) {
    const util::SimTime now = 20 * util::kMinute;
    const auto ad = advertise(7, now, 30 * util::kSecond);
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kOk);
    EXPECT_GT(ad.wire_bytes(), 16u * 144u);  // 16 signed entries + envelope
}

TEST_F(LeafValidationFixture, AdvertisedSpacingApproximatesLocalView) {
    const auto ad = advertise(7, 0, 0);
    const double direct = net->leaf_set(7).mean_spacing(
        [&](overlay::MemberIndex m) { return net->member(m).id(); });
    EXPECT_NEAR(ad.mean_spacing(), direct, 1e-12);
}

TEST_F(LeafValidationFixture, SuppressedLeafSetFailsDensityTest) {
    // The classic suppression attack: hide every other neighbour so routing
    // detours through attacker-controlled space.  The survivors' spacing
    // roughly doubles.
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(7, now, 30 * util::kSecond);
    const auto thin = [](std::vector<overlay::LeafEntry>& side) {
        std::vector<overlay::LeafEntry> kept;
        for (std::size_t i = 1; i < side.size(); i += 2) {
            kept.push_back(side[i]);
        }
        side = std::move(kept);
    };
    thin(ad.successors);
    thin(ad.predecessors);
    ad.signature = net->member(7).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(1.5), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kTooSparse);
}

TEST_F(LeafValidationFixture, TamperedOwnerSignatureRejected) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(7, now, 30 * util::kSecond);
    ad.issued_at += 1;
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kBadOwnerSignature);
}

TEST_F(LeafValidationFixture, StaleNeighboursRejected) {
    const util::SimTime now = 30 * util::kMinute;
    const auto ad = advertise(7, now, 10 * util::kMinute);
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kStaleEntry);
}

TEST_F(LeafValidationFixture, MisorderedEntriesRejected) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(7, now, 30 * util::kSecond);
    ASSERT_GE(ad.successors.size(), 2u);
    std::swap(ad.successors[0], ad.successors[1]);
    ad.signature = net->member(7).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kMalformedEntry);
}

TEST_F(LeafValidationFixture, OwnerListedAsNeighbourRejected) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(7, now, 30 * util::kSecond);
    ad.successors[0].peer = ad.owner;
    ad.successors[0].freshness = crypto::make_signed_timestamp(
        ad.owner, now, net->member(7).keys);
    ad.signature = net->member(7).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_leaf_advertisement(ad, local_spacing(), now,
                                          params_with(), key_of(),
                                          ca.registry()),
              AdvertisementCheck::kMalformedEntry);
}

}  // namespace
}  // namespace concilium::core
