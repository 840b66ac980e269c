#include "core/validation.h"

#include <unordered_set>

#include "crypto/tokens.h"
#include "overlay/network.h"
#include "util/metrics.h"

namespace concilium::core {

namespace {

/// Availability probes run at least once a minute or two; an entry's
/// freshness timestamp much older than a probe period plus dissemination
/// slack is stale.
constexpr util::SimTime kMaxEntryAge = 5 * util::kMinute;
/// Advertisements are judged in the overlay's own table geometry.
constexpr util::OverlayGeometry kGeometry = overlay::OverlayNetwork::kGeometry;

// Validation outcomes live in the `overlay.` namespace: they describe the
// overlay's routing-state exchange, regardless of which layer runs the check.
void record_validation_outcome(AdvertisementCheck check) {
    using util::metrics::Counter;
    using util::metrics::Registry;
    static auto& validated = Registry::global().counter("overlay.ads_validated");
    static auto& accepted = Registry::global().counter("overlay.ads_accepted");
    static auto& rejected = Registry::global().counter("overlay.ads_rejected");
    validated.add(1);
    if (check == AdvertisementCheck::kOk) {
        accepted.add(1);
        return;
    }
    rejected.add(1);
    Counter* reason = nullptr;
    switch (check) {
        case AdvertisementCheck::kOk: break;
        case AdvertisementCheck::kBadOwnerSignature: {
            static auto& c = Registry::global().counter(
                "overlay.ad_reject.bad_owner_signature");
            reason = &c;
            break;
        }
        case AdvertisementCheck::kMalformedEntry: {
            static auto& c =
                Registry::global().counter("overlay.ad_reject.malformed_entry");
            reason = &c;
            break;
        }
        case AdvertisementCheck::kConstraintViolation: {
            static auto& c = Registry::global().counter(
                "overlay.ad_reject.constraint_violation");
            reason = &c;
            break;
        }
        case AdvertisementCheck::kBadEntryTimestamp: {
            static auto& c = Registry::global().counter(
                "overlay.ad_reject.bad_entry_timestamp");
            reason = &c;
            break;
        }
        case AdvertisementCheck::kStaleEntry: {
            static auto& c =
                Registry::global().counter("overlay.ad_reject.stale_entry");
            reason = &c;
            break;
        }
        case AdvertisementCheck::kTooSparse: {
            static auto& c =
                Registry::global().counter("overlay.ad_reject.too_sparse");
            reason = &c;
            break;
        }
    }
    if (reason != nullptr) reason->add(1);
}

}  // namespace

const char* to_string(AdvertisementCheck check) {
    switch (check) {
        case AdvertisementCheck::kOk: return "ok";
        case AdvertisementCheck::kBadOwnerSignature:
            return "bad owner signature";
        case AdvertisementCheck::kMalformedEntry: return "malformed entry";
        case AdvertisementCheck::kConstraintViolation:
            return "constraint violation";
        case AdvertisementCheck::kBadEntryTimestamp:
            return "bad entry timestamp";
        case AdvertisementCheck::kStaleEntry: return "stale entry";
        case AdvertisementCheck::kTooSparse: return "too sparse";
    }
    return "?";
}

AdvertisementCheck validate_advertisement(
    const overlay::JumpTableAdvertisement& ad, double local_density,
    util::SimTime now, const ValidationParams& params,
    const std::function<std::optional<crypto::PublicKey>(const util::NodeId&)>&
        key_of,
    const crypto::KeyRegistry& registry) {
    const AdvertisementCheck result = [&]() -> AdvertisementCheck {
    const auto owner_key = key_of(ad.owner);
    if (!owner_key.has_value() ||
        !registry.verify(*owner_key, ad.signed_payload(), ad.signature)) {
        return AdvertisementCheck::kBadOwnerSignature;
    }

    std::unordered_set<int> seen_slots;
    for (const overlay::AdvertisedEntry& e : ad.entries) {
        if (e.row < 0 || e.row >= kGeometry.rows() || e.col < 0 ||
            e.col >= kGeometry.columns()) {
            return AdvertisementCheck::kMalformedEntry;
        }
        const int slot = e.row * kGeometry.columns() + e.col;
        if (!seen_slots.insert(slot).second) {
            return AdvertisementCheck::kMalformedEntry;
        }
        // Structural constraint: shares a row-digit prefix with the owner
        // and has digit col at position row.
        if (e.peer.shared_prefix_digits(ad.owner) < e.row ||
            e.peer.digit(e.row) != e.col || e.peer == ad.owner) {
            return AdvertisementCheck::kConstraintViolation;
        }
        // Freshness: the referenced peer recently vouched for itself.
        const auto peer_key = key_of(e.peer);
        if (!peer_key.has_value() || !(e.freshness.signer == e.peer) ||
            !crypto::verify_signed_timestamp(e.freshness, *peer_key,
                                             registry)) {
            return AdvertisementCheck::kBadEntryTimestamp;
        }
        if (now - e.freshness.at > kMaxEntryAge) {
            return AdvertisementCheck::kStaleEntry;
        }
    }

    if (overlay::jump_table_too_sparse(
            local_density, ad.density(kGeometry), params.gamma)) {
        return AdvertisementCheck::kTooSparse;
    }
    return AdvertisementCheck::kOk;
    }();
    record_validation_outcome(result);
    return result;
}

AdvertisementCheck validate_leaf_advertisement(
    const overlay::LeafSetAdvertisement& ad, double local_mean_spacing,
    util::SimTime now, const ValidationParams& params,
    const std::function<std::optional<crypto::PublicKey>(const util::NodeId&)>&
        key_of,
    const crypto::KeyRegistry& registry) {
    const AdvertisementCheck result = [&]() -> AdvertisementCheck {
    const auto owner_key = key_of(ad.owner);
    if (!owner_key.has_value() ||
        !registry.verify(*owner_key, ad.signed_payload(), ad.signature)) {
        return AdvertisementCheck::kBadOwnerSignature;
    }

    const auto check_side = [&](const std::vector<overlay::LeafEntry>& side,
                                bool clockwise) -> AdvertisementCheck {
        util::NodeId prev_distance;  // zero
        bool first = true;
        for (const overlay::LeafEntry& e : side) {
            if (e.peer == ad.owner) {
                return AdvertisementCheck::kMalformedEntry;
            }
            // Entries must march strictly outward from the owner on their
            // side of the ring.
            const util::NodeId d =
                clockwise ? util::clockwise_distance(ad.owner, e.peer)
                          : util::clockwise_distance(e.peer, ad.owner);
            if (!first && !(prev_distance < d)) {
                return AdvertisementCheck::kMalformedEntry;
            }
            prev_distance = d;
            first = false;

            const auto peer_key = key_of(e.peer);
            if (!peer_key.has_value() || !(e.freshness.signer == e.peer) ||
                !crypto::verify_signed_timestamp(e.freshness, *peer_key,
                                                 registry)) {
                return AdvertisementCheck::kBadEntryTimestamp;
            }
            if (now - e.freshness.at > kMaxEntryAge) {
                return AdvertisementCheck::kStaleEntry;
            }
        }
        return AdvertisementCheck::kOk;
    };
    if (const auto c = check_side(ad.successors, true);
        c != AdvertisementCheck::kOk) {
        return c;
    }
    if (const auto c = check_side(ad.predecessors, false);
        c != AdvertisementCheck::kOk) {
        return c;
    }

    if (overlay::leaf_set_too_sparse(local_mean_spacing, ad.mean_spacing(),
                                     params.gamma)) {
        return AdvertisementCheck::kTooSparse;
    }
    return AdvertisementCheck::kOk;
    }();
    record_validation_outcome(result);
    return result;
}

}  // namespace concilium::core
