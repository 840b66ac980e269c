// Shared fixtures: small deterministic overlays and worlds for tests.

#pragma once

#include <vector>

#include "crypto/certificates.h"
#include "net/paths.h"
#include "net/topology_gen.h"
#include "overlay/network.h"
#include "util/rng.h"

namespace concilium::testing {

struct SmallWorld {
    util::Rng rng{1};
    net::Topology topology;
    crypto::CertificateAuthority ca{42};
    std::vector<overlay::Member> members;
};

/// An overlay of `count` members admitted through a CA; members get ips
/// 0..count-1 unless a topology's end hosts are supplied.
inline std::vector<overlay::Member> make_members(
    crypto::CertificateAuthority& ca, std::size_t count) {
    std::vector<overlay::Member> members;
    members.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto admission = ca.admit(static_cast<crypto::IpAddress>(i));
        members.push_back(overlay::Member{std::move(admission.certificate),
                                          std::move(admission.keys)});
    }
    return members;
}

inline overlay::OverlayNetwork make_overlay(std::size_t count,
                                            std::uint64_t seed = 42) {
    crypto::CertificateAuthority ca(seed);
    util::Rng rng(seed + 1);
    return overlay::OverlayNetwork(make_members(ca, count), rng);
}

}  // namespace concilium::testing
