// Durable node state for crash recovery (runtime/journal.h): the journal's
// on-arrival fold and digest, and the two signed recovery artifacts.

#include "runtime/journal.h"

#include <gtest/gtest.h>

#include "crypto/keys.h"
#include "util/fnv.h"
#include "util/time.h"

namespace concilium::runtime {
namespace {

using util::kMinute;
using util::kSecond;

const util::NodeId kPeerA = util::NodeId::from_hex("aa");
const util::NodeId kPeerB = util::NodeId::from_hex("bb");
const util::NodeId kSelf = util::NodeId::from_hex("0f");

TEST(NodeJournal, EmptyJournalRecoversTheInitialState) {
    const NodeJournal journal(100);
    const auto& state = journal.state();
    EXPECT_EQ(state.next_epoch, 1u);
    EXPECT_EQ(state.incarnations, 0u);
    EXPECT_TRUE(state.windows.empty());
    EXPECT_TRUE(state.open_stewardships.empty());
    EXPECT_TRUE(state.collected.empty());
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_EQ(journal.fnv(), util::kFnvOffset);
}

TEST(NodeJournal, EpochCheckpointIsTheHighestRecorded) {
    NodeJournal journal(100);
    journal.record_epoch(2);
    journal.record_epoch(3);
    journal.record_epoch(4);
    // The fold keeps the maximum, so an out-of-order record (which the
    // runtime never writes, but the fold must not trust) cannot roll the
    // epoch counter backwards into equivocation territory.
    journal.record_epoch(3);
    EXPECT_EQ(journal.state().next_epoch, 4u);
}

TEST(NodeJournal, VerdictWindowsFoldInFirstVerdictOrderAndTrim) {
    NodeJournal journal(100);
    NodeJournal narrow(2);
    for (NodeJournal* j : {&journal, &narrow}) {
        j->record_verdict(kPeerB, true, 1 * kSecond);
        j->record_verdict(kPeerA, false, 2 * kSecond);
        j->record_verdict(kPeerB, false, 3 * kSecond);
        j->record_verdict(kPeerB, true, 4 * kSecond);
    }

    const auto& state = journal.state();
    ASSERT_EQ(state.windows.size(), 2u);
    EXPECT_EQ(state.windows[0].suspect, kPeerB);  // first seen first
    EXPECT_EQ(state.windows[1].suspect, kPeerA);
    ASSERT_EQ(state.windows[0].entries.size(), 3u);
    EXPECT_TRUE(state.windows[0].entries[0].guilty);
    EXPECT_FALSE(state.windows[0].entries[1].guilty);
    EXPECT_TRUE(state.windows[0].entries[2].guilty);

    // A window of 2 keeps only the newest two verdicts per suspect.
    const auto& trimmed = narrow.state();
    ASSERT_EQ(trimmed.windows[0].entries.size(), 2u);
    EXPECT_EQ(trimmed.windows[0].entries[0].at, 3 * kSecond);
    EXPECT_EQ(trimmed.windows[0].entries[1].at, 4 * kSecond);
    // The window trims the state, not the digest.
    EXPECT_EQ(narrow.size(), journal.size());
    EXPECT_EQ(narrow.fnv(), journal.fnv());
}

TEST(NodeJournal, RetractionEntriesClearGuiltInsideTheInterval) {
    NodeJournal journal(100);
    journal.record_verdict(kPeerA, true, 10 * kSecond);
    journal.record_verdict(kPeerA, true, 20 * kSecond);
    journal.record_verdict(kPeerA, true, 30 * kSecond);
    journal.record_retraction(kPeerA, 15 * kSecond, 25 * kSecond);

    const auto& state = journal.state();
    ASSERT_EQ(state.windows.size(), 1u);
    ASSERT_EQ(state.windows[0].entries.size(), 3u);
    EXPECT_TRUE(state.windows[0].entries[0].guilty);   // before interval
    EXPECT_FALSE(state.windows[0].entries[1].guilty);  // retracted
    EXPECT_TRUE(state.windows[0].entries[2].guilty);   // after interval
}

TEST(NodeJournal, OpenStewardshipsAreOpensWithoutACloses) {
    NodeJournal journal(100);
    journal.record_steward_open(7, 1, 1 * kMinute, std::nullopt);
    journal.record_steward_open(8, 0, 2 * kMinute, std::nullopt);
    journal.record_steward_open(9, 2, 3 * kMinute, std::nullopt);
    journal.record_steward_close(8, 0);

    const auto& state = journal.state();
    ASSERT_EQ(state.open_stewardships.size(), 2u);
    EXPECT_EQ(state.open_stewardships[0].message_id, 7u);
    EXPECT_EQ(state.open_stewardships[0].hop, 1u);
    EXPECT_EQ(state.open_stewardships[0].forwarded_at, 1 * kMinute);
    EXPECT_EQ(state.open_stewardships[1].message_id, 9u);
}

TEST(NodeJournal, StewardCommitmentSurvivesReplay) {
    const crypto::KeyPair forwarder_keys = crypto::KeyPair::from_seed(40);
    const auto commitment = core::make_forwarding_commitment(
        kSelf, kPeerA, kPeerB, 11, 5 * kSecond, forwarder_keys);

    NodeJournal journal(100);
    journal.record_steward_open(11, 1, 5 * kSecond, commitment);
    const auto& state = journal.state();
    ASSERT_EQ(state.open_stewardships.size(), 1u);
    ASSERT_TRUE(state.open_stewardships[0].commitment.has_value());
    EXPECT_EQ(state.open_stewardships[0].commitment->message_id, 11u);
    EXPECT_EQ(state.open_stewardships[0].commitment->signature,
              commitment.signature);
}

TEST(NodeJournal, IncarnationsCountRestartEntries) {
    NodeJournal journal(100);
    EXPECT_EQ(journal.state().incarnations, 0u);
    journal.record_restart(4 * kMinute);
    journal.record_restart(9 * kMinute);
    EXPECT_EQ(journal.state().incarnations, 2u);
}

TEST(NodeJournal, VotesCountInTheDigestButChangeNoState) {
    NodeJournal journal(100);
    journal.record_epoch(3);
    const std::uint64_t before = journal.fnv();
    journal.record_vote(kPeerB, 1 * kSecond);
    journal.record_vote(kPeerA, 2 * kSecond);
    EXPECT_EQ(journal.size(), 3u);
    EXPECT_NE(journal.fnv(), before);
    const auto& state = journal.state();
    EXPECT_EQ(state.next_epoch, 3u);
    EXPECT_TRUE(state.windows.empty());
    EXPECT_TRUE(state.open_stewardships.empty());
    EXPECT_TRUE(state.collected.empty());
}

// One journal receives every record kind.  Checkpoints carry size() and
// fnv(), and a resumed run verifies against a checkpoint an earlier build
// may have written, so neither value may move.  The constants were
// recorded before the digest became a running value.
TEST(NodeJournal, DigestMatchesTheEntryWalk) {
    const crypto::KeyPair forwarder_keys = crypto::KeyPair::from_seed(41);
    const auto commitment = core::make_forwarding_commitment(
        kSelf, kPeerA, kPeerB, 11, 5 * kSecond, forwarder_keys);

    NodeJournal journal(100);
    journal.record_epoch(2);
    journal.record_epoch(5);
    journal.record_epoch(3);  // below the maximum
    journal.record_verdict(kPeerA, true, 1 * kSecond);
    journal.record_verdict(kPeerB, false, 2 * kSecond);
    journal.record_verdict(kPeerA, false, 3 * kSecond);
    journal.record_verdict(kPeerB, true, 4 * kSecond);
    journal.record_retraction(kPeerA, 0, 2 * kSecond);
    journal.record_steward_open(11, 1, 5 * kSecond, commitment);
    journal.record_steward_open(12, 0, 6 * kSecond, std::nullopt);
    journal.record_steward_close(12, 0);
    journal.record_vote(kPeerB, 7 * kSecond);
    journal.record_restart(8 * kMinute);

    EXPECT_EQ(journal.size(), 13u);
    EXPECT_EQ(journal.fnv(), 0xebb30a45b6b827f6ULL) << std::hex
                                                    << journal.fnv();

    const auto& state = journal.state();
    EXPECT_EQ(state.next_epoch, 5u);
    EXPECT_EQ(state.incarnations, 1u);
    ASSERT_EQ(state.windows.size(), 2u);
    EXPECT_FALSE(state.windows[0].entries[0].guilty);  // retracted
    EXPECT_TRUE(state.windows[1].entries[1].guilty);
    ASSERT_EQ(state.open_stewardships.size(), 1u);
    EXPECT_EQ(state.open_stewardships[0].message_id, 11u);
    ASSERT_EQ(state.collected.size(), 1u);
    EXPECT_EQ(state.collected[0].first, kPeerA);
}

// --------------------------------------------- signed recovery artifacts

TEST(RecoveryAnnouncement, SignsAndVerifies) {
    const crypto::KeyPair keys = crypto::KeyPair::from_seed(50);
    crypto::KeyRegistry registry;
    registry.register_key(keys);

    const auto ann = make_recovery_announcement(kSelf, 1, 2 * kMinute,
                                                5 * kMinute, keys);
    EXPECT_TRUE(verify_recovery_announcement(ann, keys.public_key(),
                                             registry));
    EXPECT_EQ(ann.incarnation, 1u);
}

TEST(RecoveryAnnouncement, TamperedFieldsFailVerification) {
    const crypto::KeyPair keys = crypto::KeyPair::from_seed(51);
    crypto::KeyRegistry registry;
    registry.register_key(keys);
    const auto ann = make_recovery_announcement(kSelf, 1, 2 * kMinute,
                                                5 * kMinute, keys);

    // A node cannot stretch its announced outage to cover extra verdicts.
    RecoveryAnnouncement stretched = ann;
    stretched.crashed_at = 0;
    EXPECT_FALSE(verify_recovery_announcement(stretched, keys.public_key(),
                                              registry));
    RecoveryAnnouncement replayed = ann;
    replayed.incarnation = 2;
    EXPECT_FALSE(verify_recovery_announcement(replayed, keys.public_key(),
                                              registry));
    // Nor can another node claim the announcement as its own.
    const crypto::KeyPair other = crypto::KeyPair::from_seed(52);
    registry.register_key(other);
    EXPECT_FALSE(verify_recovery_announcement(ann, other.public_key(),
                                              registry));
}

TEST(RecoveryAnnouncement, CoversIsTheClosedOutageInterval) {
    const crypto::KeyPair keys = crypto::KeyPair::from_seed(53);
    const auto ann = make_recovery_announcement(kSelf, 1, 2 * kMinute,
                                                5 * kMinute, keys);
    EXPECT_FALSE(ann.covers(2 * kMinute - 1));
    EXPECT_TRUE(ann.covers(2 * kMinute));
    EXPECT_TRUE(ann.covers(3 * kMinute));
    EXPECT_TRUE(ann.covers(5 * kMinute));
    EXPECT_FALSE(ann.covers(5 * kMinute + 1));
}

TEST(StewardHandoff, SignsVerifiesAndRejectsTampering) {
    const crypto::KeyPair keys = crypto::KeyPair::from_seed(54);
    crypto::KeyRegistry registry;
    registry.register_key(keys);

    const auto handoff =
        make_steward_handoff(kSelf, 42, 1, 2 * kMinute, 6 * kMinute, keys);
    EXPECT_TRUE(verify_steward_handoff(handoff, keys.public_key(), registry));

    // An abandonment for message 42 cannot be replayed against message 43.
    StewardHandoff moved = handoff;
    moved.message_id = 43;
    EXPECT_FALSE(verify_steward_handoff(moved, keys.public_key(), registry));
    StewardHandoff rehopped = handoff;
    rehopped.hop = 2;
    EXPECT_FALSE(
        verify_steward_handoff(rehopped, keys.public_key(), registry));
}

}  // namespace
}  // namespace concilium::runtime
