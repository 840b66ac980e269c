// Routing-state auditing (Section 3.1): validating a peer's advertised jump
// table before trusting it.  Shows the full pipeline catching each attack:
//
//   * an honest advertisement passes,
//   * a *suppressed* table (hiding honest entries) fails the density test,
//   * an *inflation* attack (re-advertising departed peers) fails the
//     signed-freshness check,
//   * a misplaced entry fails the structural constraint.
//
// Run: ./routing_audit [seed]

#include <cstdio>
#include <unordered_map>

#include "core/validation.h"
#include "crypto/certificates.h"
#include "overlay/advertisement.h"
#include "overlay/density.h"
#include "seed_arg.h"
#include "util/rng.h"

using namespace concilium;

int main(int argc, char** argv) {
    const std::uint64_t seed = examples::seed_arg(argc, argv, 5);

    // A 300-node overlay admitted through one CA.
    crypto::CertificateAuthority ca(seed);
    util::Rng rng(seed + 1);
    std::vector<overlay::Member> members;
    for (int i = 0; i < 300; ++i) {
        auto adm = ca.admit(static_cast<crypto::IpAddress>(i));
        members.push_back(
            overlay::Member{std::move(adm.certificate), std::move(adm.keys)});
    }
    const overlay::OverlayNetwork net(std::move(members), rng);

    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash> keys;
    crypto::KeyRegistry registry;
    for (overlay::MemberIndex i = 0; i < net.size(); ++i) {
        keys.emplace(net.member(i).id(), net.member(i).keys.public_key());
        registry.register_key(net.member(i).keys);
    }
    const auto key_of = [&](const util::NodeId& id)
        -> std::optional<crypto::PublicKey> {
        const auto it = keys.find(id);
        if (it == keys.end()) return std::nullopt;
        return it->second;
    };

    // The analytic occupancy model guides the gamma choice (Section 4.1).
    const double n_est = net.estimate_population(0);
    const auto model =
        overlay::occupancy_model(n_est, overlay::OverlayNetwork::kGeometry);
    std::printf("population estimate from leaf spacing: %.0f (truth: %zu)\n",
                n_est, net.size());
    std::printf("expected occupied jump slots mu_phi = %.1f (sd %.1f)\n",
                model.mean_count(), model.stddev_count());
    const auto gamma_choice =
        overlay::optimal_gamma(n_est, n_est, 0.2 * n_est,
                               overlay::OverlayNetwork::kGeometry, 1.0, 4.0,
                               151);
    std::printf("gamma* for c = 20%%: %.2f (analytic FP %.4f, FN %.4f)\n\n",
                gamma_choice.gamma, gamma_choice.false_positive,
                gamma_choice.false_negative);

    core::ValidationParams params;
    params.gamma = std::max(1.8, gamma_choice.gamma);  // headroom at small N
    const util::SimTime now = 30 * util::kMinute;
    const double local_density = net.secure_table(0).density();

    const auto check = [&](const char* label,
                           const overlay::JumpTableAdvertisement& ad) {
        std::printf("%-38s -> %s\n", label,
                    core::to_string(core::validate_advertisement(
                        ad, local_density, now, params, key_of, registry)));
    };

    // 1. Honest advertisement.
    const auto honest = overlay::make_advertisement(
        net, 7, now, [&](overlay::MemberIndex) {
            return now - 30 * util::kSecond;
        });
    check("honest advertisement", honest);

    // 2. Suppression: hide two thirds of the table.
    auto suppressed = honest;
    suppressed.entries.resize(suppressed.entries.size() / 3);
    suppressed.signature =
        net.member(7).keys.sign(suppressed.signed_payload());
    check("suppressed table (2/3 hidden)", suppressed);

    // 3. Inflation: re-advertise entries whose owners stopped answering
    // probes ten minutes ago.
    const auto stale = overlay::make_advertisement(
        net, 7, now,
        [&](overlay::MemberIndex) { return now - 10 * util::kMinute; });
    check("inflated table (stale timestamps)", stale);

    // 4. Forged freshness: the advertiser rewrites the timestamps itself.
    auto forged = stale;
    for (auto& e : forged.entries) e.freshness.at = now;
    forged.signature = net.member(7).keys.sign(forged.signed_payload());
    check("inflated table (forged timestamps)", forged);

    // 5. Structural violation: an entry moved to the wrong slot.
    auto misplaced = honest;
    if (!misplaced.entries.empty()) {
        misplaced.entries[0].row = (misplaced.entries[0].row + 7) % 32;
        misplaced.signature =
            net.member(7).keys.sign(misplaced.signed_payload());
        check("entry in the wrong slot", misplaced);
    }
    return 0;
}
