#include "core/accusation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "crypto/certificates.h"

namespace concilium::core {
namespace {

using Admission = crypto::CertificateAuthority::Admission;

/// World: A sends through B (next hop C, then D); reporter R supplies
/// tomographic snapshots.
struct AccusationFixture : ::testing::Test {
    AccusationFixture() : ca(21) {
        for (const char* name : {"a", "b", "c", "d", "r"}) {
            auto adm = std::make_unique<Admission>(
                ca.admit(static_cast<crypto::IpAddress>(nodes.size())));
            keys_by_id.emplace(adm->certificate.node_id,
                               adm->keys.public_key());
            nodes.emplace(name, std::move(adm));
        }
    }

    const Admission& node(const std::string& name) { return *nodes.at(name); }
    const util::NodeId& id(const std::string& name) {
        return node(name).certificate.node_id;
    }

    /// A snapshot from `origin` reporting the given link states.
    tomography::TomographicSnapshot snapshot(
        const std::string& origin,
        std::vector<std::pair<net::LinkId, bool>> links,
        util::SimTime probed_at = 100 * util::kSecond) {
        tomography::TomographicSnapshot s;
        s.origin = id(origin);
        s.probed_at = probed_at;
        for (const auto& [link, up] : links) {
            s.links.push_back(tomography::LinkObservation{link, up});
        }
        s.signature = node(origin).keys.sign(s.signed_payload());
        return s;
    }

    /// Evidence: `judge` blames `suspect` for message 7 at t=100s over
    /// path {1, 2}, using the given snapshots.
    BlameEvidence evidence(const std::string& judge,
                           const std::string& suspect,
                           std::vector<tomography::TomographicSnapshot> snaps) {
        BlameEvidence ev;
        ev.judge = id(judge);
        ev.suspect = id(suspect);
        ev.message_id = 7;
        ev.message_time = 100 * util::kSecond;
        ev.path_links = {1, 2};
        ev.snapshots = std::move(snaps);
        ev.commitment = make_forwarding_commitment(
            ev.judge, ev.suspect, id("d"), ev.message_id, ev.message_time,
            node(suspect).keys);
        ev.claimed_blame =
            compute_blame(ev.path_links, probes_from_snapshots(ev.snapshots),
                          ev.message_time, ev.suspect, BlameParams{})
                .blame;
        ev.judge_signature = node(judge).keys.sign(ev.signed_payload());
        return ev;
    }

    FaultAccusation accusation(
        std::vector<tomography::TomographicSnapshot> snaps) {
        FaultAccusation acc;
        acc.accuser = id("a");
        acc.evidence.push_back(evidence("a", "b", std::move(snaps)));
        acc.signature = node("a").keys.sign(acc.signed_payload());
        return acc;
    }

    AccusationVerifier verifier() {
        return AccusationVerifier(
            ca.registry(),
            [this](const util::NodeId& who)
                -> std::optional<crypto::PublicKey> {
                const auto it = keys_by_id.find(who);
                if (it == keys_by_id.end()) return std::nullopt;
                return it->second;
            },
            BlameParams{}, VerdictParams{});
    }

    crypto::CertificateAuthority ca;
    std::unordered_map<std::string, std::unique_ptr<Admission>> nodes;
    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash>
        keys_by_id;
};

TEST_F(AccusationFixture, ProbesFromSnapshotsFlattenWithProvenance) {
    const auto s1 = snapshot("r", {{1, true}, {2, false}});
    const auto s2 = snapshot("c", {{2, true}}, 130 * util::kSecond);
    const auto probes = probes_from_snapshots(
        std::vector<tomography::TomographicSnapshot>{s1, s2});
    ASSERT_EQ(probes.size(), 3u);
    EXPECT_EQ(probes[0].reporter, id("r"));
    EXPECT_EQ(probes[0].link, 1u);
    EXPECT_TRUE(probes[0].link_up);
    EXPECT_EQ(probes[2].reporter, id("c"));
    EXPECT_EQ(probes[2].at, 130 * util::kSecond);
}

TEST_F(AccusationFixture, WellFormedAccusationVerifies) {
    // Reporter says both path links were up: full blame on B.
    const auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    EXPECT_GT(acc.evidence[0].claimed_blame, 0.4);
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kOk);
    EXPECT_EQ(acc.accused(), id("b"));
    EXPECT_EQ(acc.original_accused(), id("b"));
}

TEST_F(AccusationFixture, SerializationRoundTrips) {
    const auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    const auto bytes = acc.serialize();
    const auto back = FaultAccusation::deserialize(bytes);
    EXPECT_EQ(back.serialize(), bytes);
    EXPECT_EQ(verifier().verify(back), AccusationCheck::kOk);
    // Trailing garbage is rejected.
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_THROW(FaultAccusation::deserialize(longer),
                 std::invalid_argument);
    // A forged evidence count is a truncated message, not a request to
    // reserve four billion records.
    auto inflated = bytes;
    std::fill_n(inflated.begin() + util::NodeId::kBytes, 4, 0xff);
    EXPECT_THROW(FaultAccusation::deserialize(inflated), std::out_of_range);
}

TEST_F(AccusationFixture, DhtKeyIsStablePerPublicKey) {
    const auto k1 = FaultAccusation::dht_key(node("b").keys.public_key());
    const auto k2 = FaultAccusation::dht_key(node("b").keys.public_key());
    const auto k3 = FaultAccusation::dht_key(node("c").keys.public_key());
    EXPECT_EQ(k1, k2);
    EXPECT_NE(k1, k3);
}

TEST_F(AccusationFixture, RevisionChainRetargetsBlame) {
    // B pushes its verdict against C upstream; then C pushes against D.
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    amend_accusation(acc, evidence("b", "c", {snapshot("r", {{1, true}, {2, true}})}),
                     node("a").keys);
    EXPECT_EQ(acc.accused(), id("c"));
    amend_accusation(acc, evidence("c", "d", {snapshot("r", {{1, true}, {2, true}})}),
                     node("a").keys);
    EXPECT_EQ(acc.accused(), id("d"));
    EXPECT_EQ(acc.original_accused(), id("b"));
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kOk);
}

TEST_F(AccusationFixture, RevisionMustComeFromCurrentAccused) {
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    // D (not the accused B) tries to push a revision.
    EXPECT_THROW(
        amend_accusation(acc, evidence("d", "c", {snapshot("r", {{1, true}}) }),
                         node("a").keys),
        std::invalid_argument);
}

TEST_F(AccusationFixture, BrokenChainDetected) {
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    // Splice in a revision with a non-chaining judge and re-sign.
    acc.evidence.push_back(
        evidence("c", "d", {snapshot("r", {{1, true}, {2, true}})}));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBrokenChain);
}

TEST_F(AccusationFixture, TamperedAccuserSignatureDetected) {
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    acc.evidence[0].message_id = 8;  // mutate after signing
    EXPECT_EQ(verifier().verify(acc),
              AccusationCheck::kBadAccuserSignature);
}

TEST_F(AccusationFixture, EmptyEvidenceRejected) {
    FaultAccusation acc;
    acc.accuser = id("a");
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kEmptyEvidence);
    EXPECT_THROW((void)acc.accused(), std::logic_error);
}

TEST_F(AccusationFixture, MissingCommitmentDetected) {
    // B never issued a commitment; A forges one with its own keys.
    auto ev = evidence("a", "b", {snapshot("r", {{1, true}, {2, true}})});
    ev.commitment = make_forwarding_commitment(
        ev.judge, ev.suspect, id("d"), ev.message_id, ev.message_time,
        node("a").keys);  // signed by A, not B
    ev.judge_signature = node("a").keys.sign(ev.signed_payload());
    FaultAccusation acc;
    acc.accuser = id("a");
    acc.evidence.push_back(std::move(ev));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBadCommitment);
}

TEST_F(AccusationFixture, CommitmentForDifferentMessageDetected) {
    auto ev = evidence("a", "b", {snapshot("r", {{1, true}, {2, true}})});
    ev.commitment = make_forwarding_commitment(
        ev.judge, ev.suspect, id("d"), 999, ev.message_time,
        node("b").keys);  // valid signature, wrong message
    ev.judge_signature = node("a").keys.sign(ev.signed_payload());
    FaultAccusation acc;
    acc.accuser = id("a");
    acc.evidence.push_back(std::move(ev));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBadCommitment);
}

TEST_F(AccusationFixture, TamperedSnapshotDetected) {
    auto ev = evidence("a", "b", {snapshot("r", {{1, true}, {2, true}})});
    ev.snapshots[0].links[0].up = false;  // flip a probe after signing
    // Recompute claimed blame so only the snapshot signature is at fault.
    ev.claimed_blame =
        compute_blame(ev.path_links, probes_from_snapshots(ev.snapshots),
                      ev.message_time, ev.suspect, BlameParams{})
            .blame;
    ev.judge_signature = node("a").keys.sign(ev.signed_payload());
    FaultAccusation acc;
    acc.accuser = id("a");
    acc.evidence.push_back(std::move(ev));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc),
              AccusationCheck::kBadSnapshotSignature);
}

TEST_F(AccusationFixture, InflatedBlameClaimDetected) {
    auto ev = evidence("a", "b", {snapshot("r", {{1, false}, {2, false}})});
    ev.claimed_blame = 0.95;  // claims more blame than the evidence supports
    ev.judge_signature = node("a").keys.sign(ev.signed_payload());
    FaultAccusation acc;
    acc.accuser = id("a");
    acc.evidence.push_back(std::move(ev));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBlameMismatch);
}

TEST_F(AccusationFixture, ExculpatoryEvidenceRejectsAccusation) {
    // The reporter saw link 2 down: blame = 0.1 < 0.4, so no honest node
    // would have filed this accusation.
    const auto acc = accusation({snapshot("r", {{1, true}, {2, false}})});
    EXPECT_EQ(verifier().verify(acc),
              AccusationCheck::kBlameBelowThreshold);
}

TEST_F(AccusationFixture, SuspectsOwnSnapshotCannotExonerate) {
    // B bundles its own snapshot claiming link 2 was down; the verifier's
    // blame computation ignores B's probes, so blame stays at 1.0 -- but a
    // bundle with no admissible third-party probe no longer convicts either:
    // presumed-guilt from an empty record is exactly the loophole slanderers
    // exploited, so the verifier now demands covering evidence.
    const auto acc = accusation({snapshot("b", {{1, true}, {2, false}})});
    EXPECT_DOUBLE_EQ(acc.evidence[0].claimed_blame, 1.0);
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kInsufficientEvidence);
}

TEST_F(AccusationFixture, StaleSnapshotRejectedOutright) {
    // A cherry-picked bundle: one admissible snapshot plus one probed well
    // outside the Delta window around the message.  compute_blame would
    // discard the stale probes silently; the verifier must instead reject
    // the bundle, or a slanderer could pad accusations with old favorable
    // history.
    const auto acc = accusation(
        {snapshot("r", {{1, true}, {2, true}}),
         snapshot("r", {{1, true}, {2, true}},
                  100 * util::kSecond + BlameParams{}.delta +
                      10 * util::kSecond)});
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kStaleEvidence);
}

TEST_F(AccusationFixture, TamperedClaimedBlameDetected) {
    // The accuser inflates claimed_blame after the judge signature was made
    // and re-signs only the outer chain: the inner judge signature no longer
    // matches.
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    acc.evidence[0].claimed_blame = 1.0;
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBadJudgeSignature);
}

TEST_F(AccusationFixture, SnapshotSignedByForeignKeyDetected) {
    // A snapshot that names R as origin but carries C's signature: the
    // slanderer fabricated the probe results and signed with the only key
    // it holds.
    auto forged = snapshot("r", {{1, true}, {2, true}});
    forged.signature = node("c").keys.sign(forged.signed_payload());
    const auto acc = accusation({forged});
    EXPECT_EQ(verifier().verify(acc),
              AccusationCheck::kBadSnapshotSignature);
}

TEST_F(AccusationFixture, CommitmentTimeSkewDetected) {
    // A genuine commitment for an *old* message (outside the Delta window of
    // the claimed send time) must not anchor an accusation about a new one.
    auto ev = evidence("a", "b", {snapshot("r", {{1, true}, {2, true}})});
    ev.commitment = make_forwarding_commitment(
        ev.judge, ev.suspect, id("d"), ev.message_id,
        ev.message_time + BlameParams{}.delta + 10 * util::kSecond,
        node("b").keys);
    ev.judge_signature = node("a").keys.sign(ev.signed_payload());
    FaultAccusation acc;
    acc.accuser = id("a");
    acc.evidence.push_back(std::move(ev));
    acc.signature = node("a").keys.sign(acc.signed_payload());
    EXPECT_EQ(verifier().verify(acc), AccusationCheck::kBadCommitment);
}

TEST_F(AccusationFixture, UnknownIdentityFailsVerification) {
    auto acc = accusation({snapshot("r", {{1, true}, {2, true}})});
    crypto::CertificateAuthority other_ca(99);
    AccusationVerifier strict(
        other_ca.registry(),
        [](const util::NodeId&) -> std::optional<crypto::PublicKey> {
            return std::nullopt;
        },
        BlameParams{}, VerdictParams{});
    EXPECT_EQ(strict.verify(acc), AccusationCheck::kBadAccuserSignature);
}

TEST_F(AccusationFixture, CheckNamesAreHuman) {
    EXPECT_STREQ(to_string(AccusationCheck::kOk), "ok");
    EXPECT_STREQ(to_string(AccusationCheck::kBlameMismatch),
                 "blame mismatch");
}

}  // namespace
}  // namespace concilium::core
