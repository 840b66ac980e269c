// Durable node state for crash recovery (RECOVERY.md).
//
// The paper's protocol machinery -- strictly increasing snapshot epochs,
// sliding verdict windows, forwarding commitments, reputation votes -- all
// assumes a node's memory survives.  A crash-stop breaks that: a node that
// restarts from nothing would re-issue epoch 1 (and look like an
// equivocator to every peer holding its older signed snapshots), forget
// m-1 of the m guilty verdicts it had already issued, and silently orphan
// every message it had committed to steward.
//
// NodeJournal is the deterministic in-memory "disk" that prevents all
// three: it keeps exactly the state a restarted node resumes from, folding
// each durable state transition into it as the transition happens.
// Alongside it live the two signed recovery artifacts: the
// RecoveryAnnouncement a restarted node disseminates ("I was provably down
// in [crashed_at, restarted_at]" -- the statement that turns degraded-mode
// guilty presumptions into retractions), and the StewardHandoff it pushes
// upstream when an in-flight stewardship is too stale to resume.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/commitments.h"
#include "core/verdicts.h"
#include "crypto/keys.h"
#include "util/ids.h"
#include "util/time.h"

namespace concilium::runtime {

/// Signed by a restarted node and sent to its routing peers: the node was
/// crashed for the stated interval.  A judge that verified one retracts
/// guilty verdicts issued against the announcer inside that interval, and
/// a sender abstains from filing accusations covered by it.
struct RecoveryAnnouncement {
    util::NodeId node;
    /// Completed crash/restart cycles, 1 for the first restart; strictly
    /// increasing, so replayed announcements are recognizable.
    std::uint64_t incarnation = 0;
    util::SimTime crashed_at = 0;
    util::SimTime restarted_at = 0;
    crypto::Signature signature;  ///< by the restarted node

    [[nodiscard]] std::vector<std::uint8_t> signed_payload() const;

    /// True when `t` falls inside the announced outage.
    [[nodiscard]] bool covers(util::SimTime t) const noexcept {
        return t >= crashed_at && t <= restarted_at;
    }
};

RecoveryAnnouncement make_recovery_announcement(
    const util::NodeId& node, std::uint64_t incarnation,
    util::SimTime crashed_at, util::SimTime restarted_at,
    const crypto::KeyPair& node_keys);

bool verify_recovery_announcement(const RecoveryAnnouncement& announcement,
                                  const crypto::PublicKey& node_key,
                                  const crypto::KeyRegistry& registry);

/// Signed by a restarted steward that abandons an in-flight message
/// instead of resuming it: "I held the stewardship for message_id at hop,
/// crashed, and will never judge my next hop."  The upstream steward's
/// pending judgment of the abandoner resolves as insufficient evidence,
/// not guilt.
struct StewardHandoff {
    util::NodeId steward;
    std::uint64_t message_id = 0;
    std::uint64_t hop = 0;
    util::SimTime crashed_at = 0;
    util::SimTime restarted_at = 0;
    crypto::Signature signature;  ///< by the abandoning steward

    [[nodiscard]] std::vector<std::uint8_t> signed_payload() const;
};

StewardHandoff make_steward_handoff(const util::NodeId& steward,
                                    std::uint64_t message_id,
                                    std::uint64_t hop,
                                    util::SimTime crashed_at,
                                    util::SimTime restarted_at,
                                    const crypto::KeyPair& steward_keys);

bool verify_steward_handoff(const StewardHandoff& handoff,
                            const crypto::PublicKey& steward_key,
                            const crypto::KeyRegistry& registry);

/// One in-flight stewardship as recovered from the journal.
struct JournaledStewardship {
    std::uint64_t message_id = 0;
    std::uint64_t hop = 0;
    util::SimTime forwarded_at = 0;
    /// The commitment collected from the next hop, when one was issued.
    std::optional<core::ForwardingCommitment> commitment;
};

/// Deterministic and in-memory: the node's "disk".  The runtime records
/// each durable state transition, and the journal folds it into the
/// RecoveredState at once; it keeps no record.  A restarted node resumes
/// from state().  size() and fnv() digest every record received, in
/// order, for the daemon's checkpoints.
class NodeJournal {
  public:
    /// Everything a restarted node gets back.
    struct RecoveredState {
        /// Highest journaled epoch counter (1 when never advanced): the
        /// critical checkpoint -- restarting below it would re-issue
        /// epochs peers already archived, indistinguishable from
        /// equivocation.
        std::uint64_t next_epoch = 1;
        /// Completed crash/restart cycles so far.
        std::uint64_t incarnations = 0;
        /// Verdict windows, trimmed to the journal's verdict window,
        /// suspects in first-verdict order with retractions applied.
        std::vector<core::VerdictLedger::WindowSnapshot> windows;
        /// Stewardships opened but never closed, in open order: the
        /// restarted node resumes or abandons each.
        std::vector<JournaledStewardship> open_stewardships;
        /// Latest commitment collected per issuing forwarder, in
        /// first-seen order.
        std::vector<std::pair<util::NodeId, core::ForwardingCommitment>>
            collected;
    };

    /// `verdict_window` is how many verdicts per suspect state() keeps
    /// (at least one).
    explicit NodeJournal(int verdict_window);

    /// The snapshot epoch advanced; `next_epoch` is the next unused one.
    void record_epoch(std::uint64_t next_epoch);
    void record_verdict(const util::NodeId& suspect, bool guilty,
                        util::SimTime at);
    /// Guilty verdicts against `suspect` issued in [from, to] withdrawn.
    void record_retraction(const util::NodeId& suspect, util::SimTime from,
                           util::SimTime to);
    /// A forwarding stewardship went in flight.
    void record_steward_open(std::uint64_t message_id, std::uint64_t hop,
                             util::SimTime at,
                             std::optional<core::ForwardingCommitment>
                                 commitment);
    /// Acked or judged: the stewardship is retired.
    void record_steward_close(std::uint64_t message_id, std::uint64_t hop);
    /// A no-confidence vote: it counts in size() and fnv() but changes no
    /// state (the reputation book already holds it, so a restarted node
    /// must not cast it again).
    void record_vote(const util::NodeId& subject, util::SimTime at);
    /// One crash/restart cycle completed.
    void record_restart(util::SimTime at);

    [[nodiscard]] const RecoveredState& state() const noexcept {
        return state_;
    }
    /// Records received so far, votes included.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// FNV-1a over each record's canonical encoding, in arrival order.
    [[nodiscard]] std::uint64_t fnv() const noexcept { return fnv_; }

  private:
    struct Encoding;
    void digest(const Encoding& record);
    core::VerdictLedger::WindowSnapshot& window_of(
        const util::NodeId& suspect);

    std::size_t verdict_window_;
    RecoveredState state_;
    std::size_t size_ = 0;
    std::uint64_t fnv_;
};

}  // namespace concilium::runtime
