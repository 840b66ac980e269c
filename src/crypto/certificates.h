// Certificate authority and node certificates.
//
// "Before a host can join a secure overlay, it must acquire a certificate
// from a central authority.  The certificate binds the host's IP address to a
// public key and an overlay identifier.  Since identifiers are static and
// randomly assigned, adversaries cannot deliberately move their hosts to
// advantageous regions of the identifier space." (Section 2)

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/keys.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace concilium::crypto {

/// An IPv4-style end-host address; in the simulation this is the end-host's
/// router index in the IP topology.
using IpAddress = std::uint32_t;

struct NodeCertificate {
    IpAddress ip = 0;
    PublicKey public_key;
    util::NodeId node_id;
    Signature ca_signature;

    /// Canonical byte encoding (the signed payload excludes ca_signature).
    [[nodiscard]] std::vector<std::uint8_t> signed_payload() const;

    /// Wire size: payload + CA signature at modelled PSS-R width.
    [[nodiscard]] std::size_t wire_bytes() const;
};

/// The central authority of Section 2.  Issues certificates with *randomly
/// assigned* identifiers; nodes cannot choose their position in the ring.
class CertificateAuthority {
  public:
    explicit CertificateAuthority(std::uint64_t seed);

    /// Admits a host: generates its key pair, assigns a random identifier,
    /// registers the key for verification, and returns the certificate plus
    /// the key pair (which only the admitted host retains).
    struct Admission {
        NodeCertificate certificate;
        KeyPair keys;
    };
    Admission admit(IpAddress ip);

    /// Checks a certificate's CA signature and that the key is registered.
    [[nodiscard]] bool validate(const NodeCertificate& cert) const;

    [[nodiscard]] const KeyRegistry& registry() const noexcept {
        return registry_;
    }

  private:
    util::Rng rng_;
    KeyPair ca_keys_;
    KeyRegistry registry_;
    std::uint64_t admissions_ = 0;
};

}  // namespace concilium::crypto
