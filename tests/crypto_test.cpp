#include <gtest/gtest.h>

#include "crypto/certificates.h"
#include "crypto/keys.h"
#include "crypto/tokens.h"
#include "util/time.h"

namespace concilium::crypto {
namespace {

TEST(Keys, SignaturesVerifyForOwner) {
    const KeyPair keys = KeyPair::from_seed(1);
    KeyRegistry registry;
    registry.register_key(keys);
    const Signature sig = keys.sign("hello");
    EXPECT_TRUE(registry.verify(keys.public_key(), "hello", sig));
}

TEST(Keys, VerificationRejectsTamperedMessage) {
    const KeyPair keys = KeyPair::from_seed(2);
    KeyRegistry registry;
    registry.register_key(keys);
    const Signature sig = keys.sign("hello");
    EXPECT_FALSE(registry.verify(keys.public_key(), "hellp", sig));
    EXPECT_FALSE(registry.verify(keys.public_key(), "", sig));
}

TEST(Keys, VerificationRejectsWrongKey) {
    const KeyPair a = KeyPair::from_seed(3);
    const KeyPair b = KeyPair::from_seed(4);
    KeyRegistry registry;
    registry.register_key(a);
    registry.register_key(b);
    const Signature sig = a.sign("msg");
    EXPECT_FALSE(registry.verify(b.public_key(), "msg", sig));
}

TEST(Keys, UnknownKeyNeverVerifies) {
    const KeyPair keys = KeyPair::from_seed(5);
    KeyRegistry registry;  // key never registered
    EXPECT_FALSE(registry.knows(keys.public_key()));
    EXPECT_FALSE(
        registry.verify(keys.public_key(), "msg", keys.sign("msg")));
}

TEST(Keys, DistinctSeedsDistinctKeys) {
    const KeyPair a = KeyPair::from_seed(10);
    const KeyPair b = KeyPair::from_seed(11);
    EXPECT_NE(a.public_key(), b.public_key());
    EXPECT_NE(a.sign("x"), b.sign("x"));
}

TEST(Keys, SigningIsDeterministic) {
    const KeyPair a = KeyPair::from_seed(12);
    EXPECT_EQ(a.sign("x"), a.sign("x"));
    EXPECT_NE(a.sign("x"), a.sign("y"));
}

TEST(Keys, PublicKeyToStringIsHex) {
    const KeyPair a = KeyPair::from_seed(13);
    const std::string s = a.public_key().to_string();
    EXPECT_EQ(s.size(), 2u * PublicKey::kBytes);
    for (const char c : s) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
    }
}

TEST(CertificateAuthority, AdmissionProducesValidCertificate) {
    CertificateAuthority ca(123);
    const auto admission = ca.admit(42);
    EXPECT_EQ(admission.certificate.ip, 42u);
    EXPECT_EQ(admission.certificate.public_key,
              admission.keys.public_key());
    EXPECT_TRUE(ca.validate(admission.certificate));
}

TEST(CertificateAuthority, TamperedCertificateFailsValidation) {
    CertificateAuthority ca(124);
    auto admission = ca.admit(1);
    admission.certificate.ip = 2;  // rebind to a different host
    EXPECT_FALSE(ca.validate(admission.certificate));
}

TEST(CertificateAuthority, IdentifiersAreRandomlyAssigned) {
    // "Since identifiers are static and randomly assigned, adversaries
    // cannot deliberately move their hosts to advantageous regions."
    CertificateAuthority ca(125);
    const auto a = ca.admit(1);
    const auto b = ca.admit(2);
    EXPECT_NE(a.certificate.node_id, b.certificate.node_id);
    // The admitted host cannot pick the id: two CAs with different seeds
    // assign different ids to the same ip.
    CertificateAuthority other(126);
    EXPECT_NE(other.admit(1).certificate.node_id, a.certificate.node_id);
}

TEST(CertificateAuthority, WireBytesAccountForModeledSizes) {
    CertificateAuthority ca(127);
    const auto admission = ca.admit(9);
    EXPECT_EQ(admission.certificate.wire_bytes(),
              4u + PublicKey::kWireBytes + util::NodeId::kBytes +
                  Signature::kWireBytes);
}

TEST(SignedTimestamp, RoundTripVerifies) {
    CertificateAuthority ca(128);
    const auto admission = ca.admit(3);
    const auto ts = make_signed_timestamp(admission.certificate.node_id,
                                          90 * util::kSecond, admission.keys);
    EXPECT_TRUE(verify_signed_timestamp(ts, admission.keys.public_key(),
                                        ca.registry()));
}

TEST(SignedTimestamp, ForgedTimeFailsVerification) {
    CertificateAuthority ca(129);
    const auto admission = ca.admit(3);
    auto ts = make_signed_timestamp(admission.certificate.node_id,
                                    90 * util::kSecond, admission.keys);
    ts.at = 900 * util::kSecond;  // "freshen" a stale timestamp
    EXPECT_FALSE(verify_signed_timestamp(ts, admission.keys.public_key(),
                                         ca.registry()));
}

TEST(SignedTimestamp, CannotBeSignedByAnotherNode) {
    CertificateAuthority ca(130);
    const auto victim = ca.admit(1);
    const auto attacker = ca.admit(2);
    // The attacker tries to fabricate a fresh timestamp for the victim's
    // identifier using its own keys (inflation attack).
    const auto forged = make_signed_timestamp(victim.certificate.node_id,
                                              120 * util::kSecond,
                                              attacker.keys);
    EXPECT_FALSE(verify_signed_timestamp(forged, victim.keys.public_key(),
                                         ca.registry()));
}

}  // namespace
}  // namespace concilium::crypto
