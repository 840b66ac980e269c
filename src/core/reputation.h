// Reputation votes and sanction policies (Sections 3.6-3.7).
//
// Two misbehaviours fall outside the accusation protocol's reach: a
// forwarder that refuses to issue forwarding commitments at all, and the
// response policy once a node *is* credibly accused.  For the former the
// paper defers to a decentralized reputation system (Creedence-style votes
// of no confidence); for the latter it leaves the sanction policy to the
// deployment, with the caveat that leaf-set eviction must be globally
// consistent or higher-level services break (Section 3.7).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/ids.h"

namespace concilium::core {

/// A minimal vote-of-no-confidence ledger: cast and tally, all Section 3.6
/// needs.  One vote per (voter, subject) pair counts.
class ReputationBook {
  public:
    void cast_vote(const util::NodeId& voter, const util::NodeId& subject);

    /// Number of distinct voters against the subject.
    [[nodiscard]] int votes_against(const util::NodeId& subject) const;

    /// True once at least `vote_threshold` distinct voters voted against
    /// the subject.
    [[nodiscard]] bool poor_peer(const util::NodeId& subject,
                                 int vote_threshold) const;

  private:
    struct Entry {
        util::NodeId subject;
        /// Distinct voters.  A subject accumulates at most one row per
        /// routing peer, so a scanned vector beats a hash map on both
        /// speed and determinism.
        std::vector<util::NodeId> voters;
    };
    [[nodiscard]] const Entry* entry_of(const util::NodeId& subject) const;

    /// Dense per-subject entries in first-vote order; subjects resolve to
    /// slots once at the call boundary.
    std::vector<Entry> entries_;
    std::unordered_map<util::NodeId, std::uint32_t, util::NodeIdHash>
        slot_of_;  // hot-path-lint: boundary
};

/// Deployment-chosen response to verified accusations (Section 3.7).
enum class SanctionPolicy {
    kNone,                ///< diagnose only; route around failures
    kDistrustSensitive,   ///< keep peering, withhold sensitive messages
    kUniversalBlacklist,  ///< refuse to peer once the accusation rate is met
};

struct SanctionDecision {
    bool allow_peering = true;
    bool allow_sensitive_messages = true;
    /// Leaf-set membership must NOT be revoked locally even when blacklisted
    /// ("honest nodes must not make local decisions to evict accused nodes
    /// from leaf sets.  Otherwise, inconsistent routing will arise").
    bool keep_in_leaf_set = true;
};

/// Applies a policy given the number of *independently verified* accusations
/// against a prospective peer and the policy's accusation threshold.
SanctionDecision evaluate_sanction(SanctionPolicy policy,
                                   int verified_accusations,
                                   int blacklist_threshold);

}  // namespace concilium::core
