// Routing-state validation (Section 3.1).
//
// Before a peer's advertised jump table is trusted -- and Concilium's whole
// blame pipeline keys off knowing the next hops a forwarder will use -- the
// advertisement must pass:
//   1. the owner's signature,
//   2. per-entry structural constraints (the entry belongs in its slot),
//   3. per-entry freshness (each referenced peer's signed timestamp is
//      recent; defeats inflation with identifiers of departed nodes),
//   4. the occupancy density test (gamma * d_peer >= d_local; defeats
//      suppression of honest entries).

#pragma once

#include <functional>
#include <optional>

#include "crypto/keys.h"
#include "overlay/advertisement.h"
#include "overlay/density.h"
#include "util/ids.h"
#include "util/time.h"

namespace concilium::core {

enum class AdvertisementCheck {
    kOk,
    kBadOwnerSignature,
    kMalformedEntry,        ///< slot indices out of range or duplicated
    kConstraintViolation,   ///< entry id does not belong in its slot
    kBadEntryTimestamp,     ///< freshness timestamp missing/forged
    kStaleEntry,            ///< freshness timestamp too old
    kTooSparse,             ///< fails the density test
};

const char* to_string(AdvertisementCheck check);

struct ValidationParams {
    /// Density-test threshold; Section 4.1 chooses it from the analytic
    /// error model.
    double gamma = 1.5;
};

/// Full validation pipeline for one advertisement, judged against the local
/// node's own table density.  `key_of` resolves identifiers to certified
/// public keys (from the CA's certificates).
AdvertisementCheck validate_advertisement(
    const overlay::JumpTableAdvertisement& ad, double local_density,
    util::SimTime now, const ValidationParams& params,
    const std::function<std::optional<crypto::PublicKey>(const util::NodeId&)>&
        key_of,
    const crypto::KeyRegistry& registry);

/// Castro's leaf-set pipeline (Section 2 / 3.1): owner signature, per-entry
/// freshness, ring-ordering sanity (successors strictly clockwise-ordered,
/// predecessors strictly counter-clockwise-ordered, owner excluded), and the
/// spacing density test against the local leaf set's mean spacing.
AdvertisementCheck validate_leaf_advertisement(
    const overlay::LeafSetAdvertisement& ad, double local_mean_spacing,
    util::SimTime now, const ValidationParams& params,
    const std::function<std::optional<crypto::PublicKey>(const util::NodeId&)>&
        key_of,
    const crypto::KeyRegistry& registry);

}  // namespace concilium::core
