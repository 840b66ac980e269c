#include "core/validation.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "test_helpers.h"

namespace concilium::core {
namespace {

struct ValidationFixture : ::testing::Test {
    ValidationFixture() : ca(31), rng(32) {
        net.emplace(overlay::OverlayNetwork(
            concilium::testing::make_members(ca, 150), rng));
        for (overlay::MemberIndex i = 0; i < net->size(); ++i) {
            keys_by_id.emplace(net->member(i).id(),
                               net->member(i).keys.public_key());
        }
    }

    overlay::JumpTableAdvertisement advertise(overlay::MemberIndex who,
                                              util::SimTime now,
                                              util::SimTime probe_age) {
        return overlay::make_advertisement(
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

    ValidationParams params_with(double gamma = 1.5) {
        ValidationParams p;
        p.gamma = gamma;
        return p;
    }

    double local_density() { return net->secure_table(0).density(); }

    crypto::CertificateAuthority ca;
    util::Rng rng;
    std::optional<overlay::OverlayNetwork> net;
    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash>
        keys_by_id;
};

TEST_F(ValidationFixture, HonestAdvertisementPasses) {
    const util::SimTime now = 20 * util::kMinute;
    const auto ad = advertise(5, now, 40 * util::kSecond);
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     key_of(), ca.registry()),
              AdvertisementCheck::kOk);
}

TEST_F(ValidationFixture, TamperedAdvertisementFailsOwnerSignature) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(5, now, 40 * util::kSecond);
    ad.population_estimate *= 2.0;
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     key_of(), ca.registry()),
              AdvertisementCheck::kBadOwnerSignature);
}

TEST_F(ValidationFixture, StaleFreshnessTimestampsRejected) {
    // Entries last vouched for 10 minutes ago exceed the 5-minute bound:
    // exactly the inflation attack with identifiers of departed peers.
    const util::SimTime now = 30 * util::kMinute;
    const auto ad = advertise(5, now, 10 * util::kMinute);
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     key_of(), ca.registry()),
              AdvertisementCheck::kStaleEntry);
}

TEST_F(ValidationFixture, ForgedFreshnessTimestampRejected) {
    const util::SimTime now = 30 * util::kMinute;
    auto ad = advertise(5, now, 10 * util::kMinute);
    // The owner "freshens" its stale entries itself and re-signs the
    // advertisement -- but the per-entry timestamps are signed by the
    // referenced peers, so the forgery shows.
    for (auto& e : ad.entries) e.freshness.at = now;
    ad.signature = net->member(5).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     key_of(), ca.registry()),
              AdvertisementCheck::kBadEntryTimestamp);
}

TEST_F(ValidationFixture, ConstraintViolationRejected) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(5, now, 40 * util::kSecond);
    ASSERT_FALSE(ad.entries.empty());
    // Move a legitimate entry into a slot it does not belong to.
    ad.entries[0].row = (ad.entries[0].row + 5) % 32;
    ad.signature = net->member(5).keys.sign(ad.signed_payload());
    const auto verdict = validate_advertisement(
        ad, local_density(), now, params_with(), key_of(), ca.registry());
    EXPECT_EQ(verdict, AdvertisementCheck::kConstraintViolation);
}

TEST_F(ValidationFixture, DuplicateSlotRejected) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(5, now, 40 * util::kSecond);
    ASSERT_GE(ad.entries.size(), 2u);
    ad.entries.push_back(ad.entries[0]);
    ad.signature = net->member(5).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     key_of(), ca.registry()),
              AdvertisementCheck::kMalformedEntry);
}

TEST_F(ValidationFixture, SuppressedTableFailsDensityTest) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(5, now, 40 * util::kSecond);
    // The peer advertises only a third of its real table, hiding honest
    // nodes it does not control.
    ad.entries.resize(ad.entries.size() / 3);
    ad.signature = net->member(5).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_advertisement(ad, local_density(), now,
                                     params_with(1.5), key_of(),
                                     ca.registry()),
              AdvertisementCheck::kTooSparse);
}

TEST_F(ValidationFixture, LargeGammaToleratesSparseTables) {
    const util::SimTime now = 20 * util::kMinute;
    auto ad = advertise(5, now, 40 * util::kSecond);
    ad.entries.resize(ad.entries.size() / 3);
    ad.signature = net->member(5).keys.sign(ad.signed_payload());
    EXPECT_EQ(validate_advertisement(ad, local_density(), now,
                                     params_with(20.0), key_of(),
                                     ca.registry()),
              AdvertisementCheck::kOk);
}

TEST_F(ValidationFixture, UnknownOwnerRejected) {
    const util::SimTime now = 20 * util::kMinute;
    const auto ad = advertise(5, now, 40 * util::kSecond);
    const auto no_keys = [](const util::NodeId&)
        -> std::optional<crypto::PublicKey> { return std::nullopt; };
    EXPECT_EQ(validate_advertisement(ad, local_density(), now, params_with(),
                                     no_keys, ca.registry()),
              AdvertisementCheck::kBadOwnerSignature);
}

TEST_F(ValidationFixture, CheckNamesAreHuman) {
    EXPECT_STREQ(to_string(AdvertisementCheck::kOk), "ok");
    EXPECT_STREQ(to_string(AdvertisementCheck::kTooSparse), "too sparse");
}

}  // namespace
}  // namespace concilium::core
