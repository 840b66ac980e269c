#include "runtime/journal.h"

#include <algorithm>

#include "util/fnv.h"
#include "util/serialize.h"

namespace concilium::runtime {

namespace {

// Domain-separation tags: announcement and handoff payloads must never be
// valid signatures for each other (or for any other signed artifact).
constexpr std::string_view kAnnouncementTag = "concilium.recovery.announce";
constexpr std::string_view kHandoffTag = "concilium.recovery.handoff";

}  // namespace

std::vector<std::uint8_t> RecoveryAnnouncement::signed_payload() const {
    util::ByteWriter w;
    w.str(kAnnouncementTag);
    w.node_id(node);
    w.u64(incarnation);
    w.i64(crashed_at);
    w.i64(restarted_at);
    return w.data();
}

RecoveryAnnouncement make_recovery_announcement(
    const util::NodeId& node, std::uint64_t incarnation,
    util::SimTime crashed_at, util::SimTime restarted_at,
    const crypto::KeyPair& node_keys) {
    RecoveryAnnouncement a;
    a.node = node;
    a.incarnation = incarnation;
    a.crashed_at = crashed_at;
    a.restarted_at = restarted_at;
    a.signature = node_keys.sign(a.signed_payload());
    return a;
}

bool verify_recovery_announcement(const RecoveryAnnouncement& announcement,
                                  const crypto::PublicKey& node_key,
                                  const crypto::KeyRegistry& registry) {
    return announcement.crashed_at <= announcement.restarted_at &&
           registry.verify(node_key, announcement.signed_payload(),
                           announcement.signature);
}

std::vector<std::uint8_t> StewardHandoff::signed_payload() const {
    util::ByteWriter w;
    w.str(kHandoffTag);
    w.node_id(steward);
    w.u64(message_id);
    w.u64(hop);
    w.i64(crashed_at);
    w.i64(restarted_at);
    return w.data();
}

StewardHandoff make_steward_handoff(const util::NodeId& steward,
                                    std::uint64_t message_id,
                                    std::uint64_t hop,
                                    util::SimTime crashed_at,
                                    util::SimTime restarted_at,
                                    const crypto::KeyPair& steward_keys) {
    StewardHandoff h;
    h.steward = steward;
    h.message_id = message_id;
    h.hop = hop;
    h.crashed_at = crashed_at;
    h.restarted_at = restarted_at;
    h.signature = steward_keys.sign(h.signed_payload());
    return h;
}

bool verify_steward_handoff(const StewardHandoff& handoff,
                            const crypto::PublicKey& steward_key,
                            const crypto::KeyRegistry& registry) {
    return handoff.crashed_at <= handoff.restarted_at &&
           registry.verify(steward_key, handoff.signed_payload(),
                           handoff.signature);
}

// The canonical encoding fnv() folds, one per record: every field, in this
// order, whatever the kind (fields a kind does not use stay zero).
// Checkpoints carry the digest, so neither the fields nor the kind codes
// may change.
struct NodeJournal::Encoding {
    enum Kind : std::uint64_t {
        kEpoch, kVerdict, kRetraction, kStewardOpen, kStewardClose, kVote,
        kRestart
    };
    Kind kind;
    std::uint64_t value = 0;  ///< epoch / message id
    std::uint64_t hop = 0;
    util::NodeId peer{};  ///< suspect / vote subject
    bool guilty = false;
    util::SimTime at = 0;
    util::SimTime until = 0;  ///< retraction interval end
    const core::ForwardingCommitment* commitment = nullptr;
};

namespace {

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    return util::fnv1a(h, bytes, sizeof bytes);
}

}  // namespace

NodeJournal::NodeJournal(int verdict_window)
    : verdict_window_(static_cast<std::size_t>(std::max(verdict_window, 1))),
      fnv_(util::kFnvOffset) {}

void NodeJournal::digest(const Encoding& r) {
    ++size_;
    std::uint64_t h = fnv_;
    h = fold_u64(h, r.kind);
    h = fold_u64(h, r.value);
    h = fold_u64(h, r.hop);
    h = util::fnv1a(h, r.peer.bytes().data(), r.peer.bytes().size());
    h = fold_u64(h, r.guilty ? 1 : 0);
    h = fold_u64(h, static_cast<std::uint64_t>(r.at));
    h = fold_u64(h, static_cast<std::uint64_t>(r.until));
    h = fold_u64(h, r.commitment != nullptr ? 1 : 0);
    if (r.commitment != nullptr) {
        h = fold_u64(h, r.commitment->message_id);
        h = fold_u64(h, static_cast<std::uint64_t>(r.commitment->at));
        h = util::fnv1a(h, r.commitment->forwarder.bytes().data(),
                        r.commitment->forwarder.bytes().size());
    }
    fnv_ = h;
}

// Suspects and commitment issuers stay in first-seen order: the state
// never depends on a hash map's iteration order, so two journals fed the
// same records -- in any process, at any worker count -- agree bytewise.
core::VerdictLedger::WindowSnapshot& NodeJournal::window_of(
    const util::NodeId& suspect) {
    for (auto& w : state_.windows) {
        if (w.suspect == suspect) return w;
    }
    state_.windows.push_back({suspect, {}});
    return state_.windows.back();
}

void NodeJournal::record_epoch(std::uint64_t next_epoch) {
    digest({.kind = Encoding::kEpoch, .value = next_epoch});
    state_.next_epoch = std::max(state_.next_epoch, next_epoch);
}

void NodeJournal::record_verdict(const util::NodeId& suspect, bool guilty,
                                 util::SimTime at) {
    digest({.kind = Encoding::kVerdict, .peer = suspect, .guilty = guilty,
            .at = at});
    auto& entries = window_of(suspect).entries;
    entries.push_back({guilty, at});
    if (entries.size() > verdict_window_) entries.erase(entries.begin());
}

void NodeJournal::record_retraction(const util::NodeId& suspect,
                                    util::SimTime from, util::SimTime to) {
    digest({.kind = Encoding::kRetraction, .peer = suspect, .at = from,
            .until = to});
    for (auto& v : window_of(suspect).entries) {
        if (v.guilty && v.at >= from && v.at <= to) v.guilty = false;
    }
}

void NodeJournal::record_steward_open(
    std::uint64_t message_id, std::uint64_t hop, util::SimTime at,
    std::optional<core::ForwardingCommitment> commitment) {
    digest({.kind = Encoding::kStewardOpen, .value = message_id, .hop = hop,
            .at = at, .commitment = commitment ? &*commitment : nullptr});
    if (commitment.has_value()) {
        const auto it = std::find_if(
            state_.collected.begin(), state_.collected.end(),
            [&](const auto& c) { return c.first == commitment->forwarder; });
        if (it != state_.collected.end()) {
            it->second = *commitment;
        } else {
            state_.collected.emplace_back(commitment->forwarder, *commitment);
        }
    }
    state_.open_stewardships.push_back(
        {message_id, hop, at, std::move(commitment)});
}

void NodeJournal::record_steward_close(std::uint64_t message_id,
                                       std::uint64_t hop) {
    digest({.kind = Encoding::kStewardClose, .value = message_id, .hop = hop});
    std::erase_if(state_.open_stewardships,
                  [&](const JournaledStewardship& s) {
                      return s.message_id == message_id && s.hop == hop;
                  });
}

void NodeJournal::record_vote(const util::NodeId& subject, util::SimTime at) {
    digest({.kind = Encoding::kVote, .peer = subject, .at = at});
}

void NodeJournal::record_restart(util::SimTime at) {
    digest({.kind = Encoding::kRestart, .at = at});
    ++state_.incarnations;
}

}  // namespace concilium::runtime
