// What runtime::Cluster (cluster.h) is made of: the Shared context, and
// the five owners that each keep one concern's per-node state and run the
// event ops that write it.  No owner holds the Cluster; an owner reaches
// another through the reference it was built with.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/accusation.h"
#include "core/blame.h"
#include "core/equivocation.h"
#include "core/reputation.h"
#include "core/trace.h"
#include "core/validation.h"
#include "core/verdicts.h"
#include "dht/dht.h"
#include "net/chaos.h"
#include "net/event_sim.h"
#include "net/link_state.h"
#include "net/transport.h"
#include "overlay/network.h"
#include "runtime/archive.h"
#include "runtime/attack.h"
#include "runtime/journal.h"
#include "runtime/retry.h"
#include "tomography/overlay_trees.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace concilium::runtime {

struct RuntimeParams {
    /// Routing-state validation applied to the advertisements exchanged at
    /// start() (Section 3.1).
    core::ValidationParams validation;
    /// Lightweight probe inter-arrival: uniform in [0, this] (Section 3.2).
    util::SimTime probe_interval_max = 120 * util::kSecond;
    /// Per-node floor between *periodic* heavyweight sessions.
    util::SimTime heavyweight_min_gap = 1 * util::kMinute;
    /// Per-writer quota on DHT values stored under one key (0 = unlimited);
    /// contains accusation spam without touching honest accusers.
    int dht_per_writer_quota = 8;
    net::TransportParams transport;
    /// Steward retransmission of an unacknowledged message before judging:
    /// attempts beyond the first re-send over the same IP path with
    /// exponential backoff + jitter.  The default (1) preserves the
    /// paper's judge-on-first-timeout behavior; chaos runs raise it so
    /// transient IP loss does not masquerade as a malicious drop.
    RetryPolicy forward_retry{};
};

// The protocol's fixed values read here or by two or more owners (DESIGN.md,
// "Config surface"); a value that one .cpp file reads is a constant there.

/// Blame (Section 4.3): probe accuracy a = 0.9, admission window
/// Delta = 60 s, the fuzzy OR taken as max.
inline constexpr core::BlameParams kBlame{};
/// Verdicts (Section 4.3): guilty at 40% blame or more; an accusation once
/// m = 6 of the last w = 100 verdicts against a suspect are guilty.
inline constexpr core::VerdictParams kVerdicts{};
/// Control-plane (snapshot / revision) dissemination latency.
inline constexpr util::SimTime kControlLatency = 200 * util::kMillisecond;
/// A snapshot delivered more than this after its probed_at is rejected by
/// the receiving archive as a replay/stale advertisement.
inline constexpr util::SimTime kSnapshotMaxTransit = util::kMinute;
/// Newest-wins cap on archived snapshots per origin.
inline constexpr std::size_t kArchiveMaxPerOrigin = 64;

/// Cluster::Stats: one counter per protocol event, in checkpoint order.
struct Stats {
    std::size_t messages = 0;
    std::size_t delivered = 0;
    std::size_t dropped_by_forwarder = 0;  ///< ground truth
    std::size_t dropped_by_network = 0;    ///< ground truth (incl. acks)
    std::size_t guilty_verdicts = 0;
    std::size_t innocent_verdicts = 0;
    std::size_t accusations_filed = 0;
    std::size_t revisions_pushed = 0;
    std::size_t revisions_applied = 0;
    std::size_t snapshots_published = 0;
    std::size_t snapshots_rejected = 0;  ///< bad signature on receipt
    std::size_t lightweight_rounds = 0;
    std::size_t heavyweight_sessions = 0;
    std::size_t commitments_issued = 0;
    std::size_t commitments_refused = 0;
    std::size_t reputation_votes = 0;
    std::size_t advertisements_accepted = 0;
    std::size_t advertisements_rejected = 0;
    std::size_t forward_retransmissions = 0;
    std::size_t snapshot_retries = 0;
    std::size_t snapshot_deliveries_failed = 0;  ///< retry budget spent
    std::size_t duplicates_suppressed = 0;
    std::size_t churn_leaves = 0;
    std::size_t churn_rejoins = 0;
    // --- crash recovery + partitions (RECOVERY.md) ------------------------
    std::size_t crashes = 0;
    std::size_t restarts = 0;
    std::size_t journal_replays = 0;
    std::size_t recovery_announcements = 0;
    std::size_t recovery_repairs_accepted = 0;
    std::size_t recovery_repairs_rejected = 0;
    std::size_t stewardships_resumed = 0;
    std::size_t stewardships_abandoned = 0;
    std::size_t insufficient_verdicts = 0;  ///< degraded-mode abstentions
    std::size_t verdicts_retracted = 0;     ///< after announcements
    std::size_t partition_activations = 0;
    std::size_t partition_heals = 0;
    std::size_t partition_blocked_packets = 0;
    std::size_t resync_rounds = 0;  ///< heal-time anti-entropy probes
    // --- attack-campaign activity (what the adversary did) ---------------
    std::size_t equivocations_published = 0;  ///< publications with a twin
    std::size_t replays_published = 0;        ///< stale re-advertisements
    std::size_t slanders_filed = 0;           ///< forged accusations
    std::size_t spam_puts = 0;                ///< junk DHT insertions
    std::size_t collusions_pushed = 0;        ///< fabricated revisions
    // --- defense outcomes (what the protocol caught) ---------------------
    std::size_t snapshots_rejected_stale = 0;  ///< archive transit check
    std::size_t snapshots_rejected_epoch = 0;  ///< archive replay floor
    std::size_t equivocation_proofs_filed = 0;
    std::size_t revisions_rejected = 0;  ///< failed re-verification
    std::size_t dht_puts_rejected = 0;   ///< writer quota exhausted
};

/// One Stats field: its checkpoint name, and the process metrics it
/// mirrors (each count adds to one of them; most stats have one or none).
struct StatRow {
    const char* name;
    std::size_t Stats::*field;
    std::array<const char*, 2> mirrors;
};

#define STAT_ROW(field, ...) \
    StatRow { #field, &Stats::field, { __VA_ARGS__ } }
/// Every Stats field in declaration order: the checkpoint's stat section
/// enumerates it, and Shared::count adds to a row's mirror.
inline constexpr StatRow kStatTable[] = {
    STAT_ROW(messages, "runtime.messages_sent"),
    STAT_ROW(delivered, "runtime.messages_delivered"),
    STAT_ROW(dropped_by_forwarder, "runtime.messages_dropped_by_forwarder"),
    STAT_ROW(dropped_by_network, "runtime.messages_dropped_by_network"),
    STAT_ROW(guilty_verdicts),
    STAT_ROW(innocent_verdicts),
    STAT_ROW(accusations_filed, "runtime.accusations_filed"),
    STAT_ROW(revisions_pushed, "runtime.revisions_pushed"),
    STAT_ROW(revisions_applied, "runtime.revisions_applied"),
    STAT_ROW(snapshots_published, "runtime.snapshots_published"),
    STAT_ROW(snapshots_rejected, "runtime.snapshots_rejected"),
    STAT_ROW(lightweight_rounds),
    STAT_ROW(heavyweight_sessions),
    STAT_ROW(commitments_issued, "runtime.commitments_issued"),
    STAT_ROW(commitments_refused, "runtime.commitments_refused"),
    STAT_ROW(reputation_votes),
    STAT_ROW(advertisements_accepted),
    STAT_ROW(advertisements_rejected),
    STAT_ROW(forward_retransmissions, "runtime.retry.forward_attempts"),
    STAT_ROW(snapshot_retries, "runtime.retry.snapshot_retries"),
    STAT_ROW(snapshot_deliveries_failed, "runtime.retry.snapshot_exhausted"),
    STAT_ROW(duplicates_suppressed, "chaos.duplicates_suppressed"),
    STAT_ROW(churn_leaves, "runtime.churn_leaves"),
    STAT_ROW(churn_rejoins, "runtime.churn_rejoins"),
    STAT_ROW(crashes, "recovery.crashes"),
    STAT_ROW(restarts, "recovery.restarts"),
    STAT_ROW(journal_replays, "recovery.journal_replays"),
    STAT_ROW(recovery_announcements, "recovery.announcements_sent"),
    STAT_ROW(recovery_repairs_accepted, "recovery.repairs_accepted"),
    STAT_ROW(recovery_repairs_rejected, "recovery.repairs_rejected"),
    STAT_ROW(stewardships_resumed, "recovery.stewardships_resumed"),
    STAT_ROW(stewardships_abandoned, "recovery.stewardships_abandoned"),
    STAT_ROW(insufficient_verdicts, "recovery.insufficient_evidence_verdicts"),
    STAT_ROW(verdicts_retracted),
    STAT_ROW(partition_activations, "partition.activations"),
    STAT_ROW(partition_heals, "partition.heals"),
    STAT_ROW(partition_blocked_packets, "partition.messages_blocked",
                   "partition.acks_blocked"),
    STAT_ROW(resync_rounds, "partition.resync_rounds"),
    STAT_ROW(equivocations_published, "attack.equivocations_published"),
    STAT_ROW(replays_published, "attack.replays_published"),
    STAT_ROW(slanders_filed, "attack.slanders_filed"),
    STAT_ROW(spam_puts, "attack.spam_puts"),
    STAT_ROW(collusions_pushed, "attack.collusions_pushed"),
    STAT_ROW(snapshots_rejected_stale, "defense.snapshots_rejected_stale"),
    STAT_ROW(snapshots_rejected_epoch, "defense.snapshots_rejected_epoch"),
    STAT_ROW(equivocation_proofs_filed, "defense.equivocation_proofs_filed"),
    STAT_ROW(revisions_rejected, "defense.revisions_rejected"),
    STAT_ROW(dht_puts_rejected, "defense.dht_puts_rejected"),
};
#undef STAT_ROW
static_assert(std::size(kStatTable) == sizeof(Stats) / sizeof(std::size_t),
              "kStatTable must list every Stats field");

consteval const StatRow& stat_row(std::size_t Stats::*field) {
    for (const StatRow& row : kStatTable) {
        if (row.field == field) return row;
    }
    throw "not a Stats field";
}

struct MessageOutcome {
    bool delivered = false;
    bool network_blamed = false;
    /// Degraded mode (RECOVERY.md): the diagnosis closed with no verdict
    /// at all because the evidence covering the judged hop was hollowed
    /// out by a crash or partition.  Nobody is blamed.
    bool insufficient_evidence = false;
    /// Final accused node (after revisions), when a node is blamed.
    std::optional<util::NodeId> blamed{};
    /// Route positions, for ground-truth scoring by callers.
    std::vector<overlay::MemberIndex> route{};
    /// Simulation-only ground truth (never visible to protocol logic):
    /// which hop actually dropped the message, or whether the IP network
    /// ate the message / its acknowledgment (and on which route segment).
    std::optional<std::size_t> true_drop_hop{};
    bool true_network_drop = false;
    std::optional<std::size_t> true_network_segment{};
};
/// The caller-facing completion callback: the one closure the cluster
/// stores, per message, never per event.
using CompletionFn =
    std::function<void(const MessageOutcome&)>;  // hot-path-lint: boundary

/// A snapshot sealed for dissemination: serialized, signed and digested
/// once, and shared by every delivery, retry and archive that admits it
/// (DESIGN.md, "Shared archives, digest record").  The first receipt checks
/// the signature and records the verdict here for every later one.
struct PublishedSnapshot {
    tomography::TomographicSnapshot snapshot;
    /// Publisher's member index (snapshots are always self-originated, so
    /// it is also the sender of every delivery attempt); receivers resolve
    /// the origin key through it without a NodeId map lookup per delivery.
    overlay::MemberIndex origin_m = 0;
    std::vector<std::uint8_t> payload;  ///< signed_payload(), serialized once
    util::DigestInterner::Id digest_id = util::DigestInterner::kInvalidId;
    /// The signature verdict; empty until the first receipt checks it.
    mutable std::optional<bool> signature_ok;
};
using SnapshotRef = std::shared_ptr<const PublishedSnapshot>;
/// One publication on its way to the origin's routing peers: the seal, and
/// an equivocator's twin (null for everyone else).
struct FanOut {
    SnapshotRef seal;
    SnapshotRef twin;
    /// The copy for the peer at this rank of routing_peers: odd ranks get
    /// the twin when there is one.
    [[nodiscard]] const SnapshotRef& copy_for(std::size_t rank) const {
        return twin != nullptr && rank % 2 == 1 ? twin : seal;
    }
};

/// Every cluster event rides EventSim's POD queue: an op code plus two
/// integer operands, fanned out by Cluster's one registered handler.  An op
/// that carries a parked payload keeps its slot in c's low 32 bits.
enum class Op : std::uint32_t {
    kProbeRound,          ///< Prober: b = member
    kSlanderRound,        ///< Adversary: b = member
    kSpamRound,           ///< Adversary: b = member
    kPeerRefresh,         ///< Prober: b = member (periodic gap)
    kDeliverToHop,        ///< Stewardship: b = message, c = hop
    kDeliverAck,          ///< Stewardship: b = message, c = hop
    kAckTimeout,          ///< Stewardship: b = message, c = hop
    kJudge,               ///< Stewardship: b = message, c = hop
    kForwardRetry,        ///< Stewardship: b = message, c = hop << 32 | try
    kMaybeComplete,       ///< Stewardship: b = message
    kFabricatedRevision,  ///< Stewardship: b = message, c = hop
    kRelayRevision,       ///< Stewardship: b = message, c = hop << 32 | slot
    kHandoff,             ///< Stewardship: b = message, c = hop << 32 | slot
    kFanOutSnapshot,      ///< EvidenceGossip: b = origin, c = slot
    kDeliverSnapshot,     ///< EvidenceGossip: b = peer, c = slot
    kSnapshotRetry,       ///< EvidenceGossip: b = peer, c = try << 32 | slot
    kAnnouncement,        ///< Stewardship: b = peer, c = slot
    kResync,              ///< Prober: b = member (heal-time anti-entropy)
    kChurnLeave,          ///< FaultDriver: b = member
    kChurnRejoin,         ///< FaultDriver: b = member
    kCrash,               ///< FaultDriver: b = member
    kRestart,             ///< FaultDriver: b = member
    kPartitionStart,      ///< FaultDriver
    kPartitionHeal,       ///< FaultDriver
};

/// What two or more owners touch -- plus the slot table, where payloads too
/// big for an event's operands wait between post and dispatch (freed slots
/// are reused, so a warmed-up run parks without allocating).
struct Shared {
    Shared(net::EventSim& sim, const net::FailureTimeline& timeline,
           const overlay::OverlayNetwork& net,
           const tomography::OverlayTrees& trees, RuntimeParams params,
           std::vector<NodeBehavior> behaviors, util::Rng rng);

    net::EventSim* sim;
    const overlay::OverlayNetwork* net;
    const tomography::OverlayTrees* trees;
    RuntimeParams params;
    std::vector<NodeBehavior> behaviors;
    util::Rng rng;
    net::Transport transport;
    crypto::KeyRegistry registry;
    std::vector<bool> online;
    std::vector<NodeJournal> journals;
    dht::Dht dht;
    Stats stats;
    const net::FaultPlan* chaos = nullptr;
    net::EventSim::HandlerId handler = 0;
    using Parked = std::variant<SnapshotRef, FanOut, core::BlameEvidence,
                                RecoveryAnnouncement, StewardHandoff>;
    std::vector<Parked> parked;
    std::vector<std::uint32_t> free_parked;

    /// Counts n events of one stat: its Stats field, and the metric its
    /// kStatTable row mirrors (Mirror = 1 picks the row's second name).
    template <std::size_t Stats::*Field, int Mirror = 0>
    void count(std::size_t n = 1) {
        stats.*Field += n;
        static constexpr const char* kName = stat_row(Field).mirrors[Mirror];
        if constexpr (kName != nullptr) {
            static auto& mirror =
                util::metrics::Registry::global().counter(kName);
            mirror.add(static_cast<std::int64_t>(n));
        }
    }
    void post(util::SimTime delay, Op op, std::uint64_t b,
              std::uint64_t c = 0) {
        sim->post_after(delay, handler, static_cast<std::uint32_t>(op), b, c);
    }
    void post_at(util::SimTime t, Op op, std::uint64_t b = 0) {
        sim->post_at(t, handler, static_cast<std::uint32_t>(op), b);
    }
    /// Posts op with `payload` parked: c = hi << 32 | slot.
    void post_parked(util::SimTime delay, Op op, std::uint64_t b,
                     Parked payload, std::uint64_t hi = 0);
    /// Takes the payload out of c's slot (its low 32 bits) and frees it.
    template <class T>
    [[nodiscard]] T unpark(std::uint64_t c) {
        const auto slot = static_cast<std::uint32_t>(c);
        free_parked.push_back(slot);
        return std::get<T>(std::move(parked[slot]));
    }
    /// Posts m's next probe, slander or spam round uniformly within
    /// probe_interval_max.
    void schedule_round(Op op, overlay::MemberIndex m);
    [[nodiscard]] const NodeBehavior& behavior(overlay::MemberIndex m) const;
    [[nodiscard]] std::optional<crypto::PublicKey> key_of(
        const util::NodeId& id) const;
    /// True when the active partition separates members a and b right now.
    [[nodiscard]] bool partition_blocks(overlay::MemberIndex a,
                                        overlay::MemberIndex b) const;
    /// The IP links from a to b, a span into the trees' arena (empty when b
    /// is not in a's tree): no allocation per packet or judgment.
    [[nodiscard]] std::span<const net::LinkId> ip_path(
        overlay::MemberIndex a, overlay::MemberIndex b) const;
    /// Blame evidence from judge against suspect about one message: ids,
    /// message binding and IP path, then what `fill` adds (snapshots,
    /// commitment, claimed blame), then the judge's signature.
    template <class Fill>
    [[nodiscard]] core::BlameEvidence evidence(
        overlay::MemberIndex judge, overlay::MemberIndex suspect,
        std::uint64_t message_id, util::SimTime message_time,
        Fill&& fill) const {
        core::BlameEvidence ev;
        ev.judge = net->member(judge).id();
        ev.suspect = net->member(suspect).id();
        ev.message_id = message_id;
        ev.message_time = message_time;
        const auto links = ip_path(judge, suspect);
        ev.path_links.assign(links.begin(), links.end());
        fill(ev);
        ev.judge_signature = net->member(judge).keys.sign(ev.signed_payload());
        return ev;
    }
};

/// Snapshot gossip (Section 3.2): seals, sends and archives publications.
/// Owns each node's archive, epoch counter and replay stash, the interner,
/// and the digest record that gates the cross-peer equivocation scan.
class EvidenceGossip {
  public:
    explicit EvidenceGossip(Shared& s)
        : s_(s),
          blank_{.archive = SnapshotArchive(
                     kBlame.delta + 5 * util::kMinute, kSnapshotMaxTransit,
                     kArchiveMaxPerOrigin)},
          nodes_(s.net->size(), blank_), admitted_digests_(s.net->size()) {}

    /// Seals m's snapshot and sends it to m's routing peers.  A replayer
    /// re-sends its stash instead, a flipper inverts the report first, and
    /// an equivocator adds a twin for its odd-ranked peers.
    void publish(overlay::MemberIndex m,
                 tomography::TomographicSnapshot snapshot);
    /// kFanOutSnapshot: a lossless publication reaches its origin's routing
    /// peers in routing_peers order, as separate same-time posts would.
    void deliver_fan_out(overlay::MemberIndex origin, const FanOut& fan);
    /// kSnapshotRetry: one delivery attempt over a lossy control plane.
    void send(overlay::MemberIndex peer, SnapshotRef snapshot, int attempt);
    /// kDeliverSnapshot: signature check, archive, equivocation scan.
    void deliver(overlay::MemberIndex peer, const SnapshotRef& published);

    [[nodiscard]] const SnapshotArchive& archive(overlay::MemberIndex m) const {
        return nodes_.at(m).archive;
    }
    /// Crash amnesia: m's archive, epoch counter and stash.
    void forget(overlay::MemberIndex m) { nodes_[m] = blank_; }
    /// Restart: m's epochs resume from the journaled counter.
    void resume_epochs(overlay::MemberIndex m, std::uint64_t next_epoch) {
        nodes_[m].next_epoch = std::max<std::uint64_t>(1, next_epoch);
    }

  private:
    struct Node {
        SnapshotArchive archive;
        /// Next snapshot publication counter (epoch 0 = unversioned).
        std::uint64_t next_epoch = 1;
        /// Replayer state: the first favorable snapshot (sealed),
        /// re-advertised verbatim every later round.
        SnapshotRef replay_stash{};
    };
    /// Signs `snapshot` with m's key and seals it: the one place a
    /// published snapshot is signed.
    [[nodiscard]] SnapshotRef seal(overlay::MemberIndex m,
                                   tomography::TomographicSnapshot snapshot);
    /// One kFanOutSnapshot event on a lossless control plane, one send per
    /// routing peer of m under chaos.
    void fan_out(overlay::MemberIndex m, FanOut fan);
    /// Updates the digest record after some archive admitted `published`.
    void note_admitted(const PublishedSnapshot& published);
    /// Cross-peer digest exchange after `holder` archived `published`.
    void detect_equivocation(overlay::MemberIndex holder,
                             const PublishedSnapshot& published);

    Shared& s_;
    const Node blank_;
    std::vector<Node> nodes_;
    /// Snapshot payload digests interned to dense ids, shared across every
    /// node's archive so cross-archive digest comparison is an integer test.
    util::DigestInterner interner_;
    /// (origin member, epoch) pairs already covered by a filed equivocation
    /// proof, so repeated digest conflicts do not re-file.
    std::set<std::pair<overlay::MemberIndex, std::uint64_t>> proofs_filed_;
    /// The digest record, per origin and then by (dense) epoch: the digest
    /// id of the first copy any archive admitted, kMixedDigests once another
    /// digest was admitted too, kInvalidId while none was.  digest_of ignores
    /// age, so the record is never pruned, not even by a crash.
    std::vector<std::vector<util::DigestInterner::Id>> admitted_digests_;
    static constexpr util::DigestInterner::Id kMixedDigests =
        util::DigestInterner::kInvalidId - 1;
};

/// Probing (Section 3.2): lightweight rounds escalating to heavyweight
/// sessions with feedback verification and MINC inference, published
/// through EvidenceGossip.  Owns each node's last heavyweight session time.
class Prober {
  public:
    Prober(Shared& s, EvidenceGossip& gossip)
        : s_(s), gossip_(gossip), last_heavyweight_(s.net->size(), kNever) {}

    /// kProbeRound: a round (none while m is offline), then the next one.
    void probe_round(overlay::MemberIndex m) {
        probe_once(m);
        s_.schedule_round(Op::kProbeRound, m);
    }
    /// One round without scheduling the next (a no-op while m is offline):
    /// the post-restart refresh path.
    void probe_once(overlay::MemberIndex m);
    /// kPeerRefresh: a heavyweight session unless one ran within the floor.
    void refresh(overlay::MemberIndex m) {
        run_heavyweight(m, s_.params.heavyweight_min_gap);
    }
    /// kResync: the heal-time anti-entropy round.
    void resync(overlay::MemberIndex m) {
        if (!s_.online[m]) return;
        s_.count<&Stats::resync_rounds>();
        probe_once(m);
    }
    /// A steward's unacknowledged message: m refreshes its own view under
    /// the reactive floor and asks its routing peers to do the same.
    void react(overlay::MemberIndex m);
    /// Crash amnesia: m forgets its last session time.
    void forget(overlay::MemberIndex m) { last_heavyweight_[m] = kNever; }

  private:
    static constexpr util::SimTime kNever = -(1LL << 60);
    /// A heavyweight session of m's tree, unless one ran within `gap`.
    void run_heavyweight(overlay::MemberIndex m, util::SimTime gap);
    [[nodiscard]] std::vector<tomography::LeafBehavior> leaf_behaviors(
        overlay::MemberIndex m) const;

    Shared& s_;
    EvidenceGossip& gossip_;
    std::vector<util::SimTime> last_heavyweight_;
};

class FaultDriver;

/// Messages hop by hop under recursive stewardship (Sections 3.3-3.6):
/// commitments, acks, timeouts, judgment, revisions, accusations, recovery
/// announcements and handoffs.  Owns every message, each node's ledger,
/// collected commitments and announcements, the reputation book and trace.
class Stewardship {
  public:
    using Collected =
        std::unordered_map<overlay::MemberIndex, core::ForwardingCommitment>;

    Stewardship(Shared& s, Prober& prober, const EvidenceGossip& gossip,
                const FaultDriver& faults)
        : s_(s), prober_(prober), gossip_(gossip), faults_(faults),
          blank_{.ledger = core::VerdictLedger(kVerdicts)},
          nodes_(s.net->size(), blank_) {}

    std::uint64_t send(overlay::MemberIndex from, const util::NodeId& dest_key,
                       CompletionFn on_complete);
    void deliver_to_hop(std::uint64_t msg_id, std::size_t hop);
    void deliver_ack_to_hop(std::uint64_t msg_id, std::size_t hop);
    void on_ack_timeout(std::uint64_t msg_id, std::size_t hop);
    void judge_next_hop(std::uint64_t msg_id, std::size_t hop);
    /// Retry-timer body: re-send unless the ack landed in the meantime.
    void forward_retry(std::uint64_t msg_id, std::size_t hop, int attempt);
    void maybe_complete(std::uint64_t msg_id);
    /// Colluder reaction to its own drop: push a fabricated guilty revision
    /// against the hop it framed, upstream toward the sender.
    void push_fabricated_revision(std::uint64_t msg_id, std::size_t hop);
    void relay_revision(std::uint64_t msg_id, core::BlameEvidence evidence,
                        std::size_t to_hop);
    void deliver_handoff(std::uint64_t msg_id, std::size_t to_hop,
                         const StewardHandoff& handoff);
    void accept_recovery_announcement(overlay::MemberIndex peer,
                                      const RecoveryAnnouncement& announcement);

    /// Crash amnesia: m's ledger, collected commitments and announcements.
    void forget(overlay::MemberIndex m) { nodes_[m] = blank_; }
    /// Restart: m's journaled verdict windows and collected commitments.
    void restore(overlay::MemberIndex m,
                 const NodeJournal::RecoveredState& recovered);
    /// Restart: resume or abandon each stewardship m had in flight.
    void resume(overlay::MemberIndex m,
                const std::vector<JournaledStewardship>& open,
                util::SimTime crashed_at);

    [[nodiscard]] const Collected& collected(overlay::MemberIndex m) const {
        return nodes_[m].collected;
    }
    [[nodiscard]] const core::ReputationBook& reputation() const noexcept {
        return reputation_;
    }
    /// The third-party verification context every node shares: the key
    /// registry, blame/verdict parameters, and link map.
    [[nodiscard]] core::AccusationVerifier verifier() const;
    void set_trace(core::DiagnosisTrace* trace) noexcept { trace_ = trace; }

  private:
    struct StewardRecord {
        bool forwarded = false;
        bool acked = false;
        /// Message copy seen at this hop (dedupes retransmissions and
        /// chaos-duplicated packets).
        bool received = false;
        std::optional<core::ForwardingCommitment> commitment;  ///< from next
        std::optional<core::BlameEvidence> judgment;  ///< own verdict vs next
        /// The Equation 2-3 terms behind `judgment` (kept for the trace).
        std::optional<core::BlameBreakdown> breakdown;
        util::SimTime judged_at = 0;
        bool judgment_guilty = false;
        bool judged = false;
        /// Degraded mode: the judgment abstained (insufficient evidence)
        /// instead of convicting.
        bool judgment_insufficient = false;
        /// Signed abandonment received from the next hop after it
        /// restarted: proof the "drop" was a crash.
        std::optional<StewardHandoff> handoff;
    };

    struct MessageContext {
        std::uint64_t id = 0;
        std::vector<overlay::MemberIndex> route;
        util::SimTime sent_at = 0;
        std::vector<StewardRecord> stewards;
        /// Revision evidence relayed up to the sender, in arrival order.
        std::vector<core::BlameEvidence> revisions;
        CompletionFn on_complete;
        bool completed = false;
        // Ground truth for stats.
        std::optional<std::size_t> dropped_by_hop;
        bool dropped_by_network = false;
        std::optional<std::size_t> network_drop_segment;
        /// Ground truth: the IP network ate a copy, on segment `seg` if
        /// known; an ack's marker (`first`) keeps the first segment seen.
        void network_drop(std::optional<std::size_t> seg, bool first = false) {
            dropped_by_network = true;
            if (seg && !(first && network_drop_segment)) {
                network_drop_segment = seg;
            }
        }
    };

    struct Node {
        core::VerdictLedger ledger;
        /// Commitments collected as a steward, by issuing member: a
        /// colluder's or slanderer's raw material for forged evidence.
        Collected collected{};
        /// Verified recovery announcements received, by announcing member:
        /// the basis for verdict retraction and accusation abstention.
        std::unordered_map<overlay::MemberIndex,
                           std::vector<RecoveryAnnouncement>>
            recovery_seen{};
    };

    void forward_from_hop(std::uint64_t msg_id, std::size_t hop);
    /// One physical transmission of the message from `hop` toward hop + 1;
    /// schedules bounded backoff retransmissions while the ack is missing.
    void transmit_to_next(std::uint64_t msg_id, std::size_t hop, int attempt);
    void push_revision_upstream(std::uint64_t msg_id, std::size_t hop);
    /// The one completion path: stats, trace and the caller's callback.
    void complete(MessageContext& ctx, MessageOutcome outcome);
    core::BlameEvidence build_evidence(const MessageContext& ctx,
                                       std::size_t judge_hop,
                                       core::BlameBreakdown& breakdown) const;
    void record_trace(const MessageContext& ctx,
                      const MessageOutcome& outcome);
    /// Extra delivery delay when the chaos plan's per-packet effect at
    /// `rate` fires (0 when no plan is attached or the draw misses); counts
    /// each firing in `fired`.
    util::SimTime chaos_extra_delay(double net::FaultPlan::*rate,
                                    util::metrics::Counter& fired);
    /// Degraded-mode conviction bar: every link of the judged segment
    /// carries an admitted probe observation from on-or-after the message
    /// time by a reporter other than the suspect.
    [[nodiscard]] bool post_incident_coverage(
        const core::BlameEvidence& evidence, util::SimTime message_time) const;
    /// True when any verified announcement from `suspect` (as seen by
    /// `observer`) covers time t.
    [[nodiscard]] bool announced_down(overlay::MemberIndex observer,
                                      overlay::MemberIndex suspect,
                                      util::SimTime t) const;
    /// True when `accused` is a route steward whose own judgment abstained
    /// as insufficient: a blame chain cannot end on an abstainer.
    [[nodiscard]] bool accused_abstained(const MessageContext& ctx,
                                         const util::NodeId& accused) const;

    Shared& s_;
    Prober& prober_;
    const EvidenceGossip& gossip_;
    const FaultDriver& faults_;
    const Node blank_;
    std::vector<Node> nodes_;
    core::ReputationBook reputation_;
    std::unordered_map<std::uint64_t, MessageContext> messages_;
    std::uint64_t next_message_id_ = 1;
    core::DiagnosisTrace* trace_ = nullptr;
};

/// Faults and recovery (RECOVERY.md): the routing-state exchange, which a
/// restart's handshake repeats, and the chaos plan's churn, crashes and
/// partitions.  Owns who is crashed since when, and who rejected whom.
class FaultDriver {
  public:
    FaultDriver(Shared& s, Prober& prober, EvidenceGossip& gossip,
                Stewardship& stewardship)
        : s_(s), prober_(prober), gossip_(gossip), stewardship_(stewardship),
          crashed_(s.net->size(), false), crashed_at_(s.net->size(), 0) {}

    /// The routing-state exchange, then the chaos plan's events posted.
    void start();
    void churn_leave(overlay::MemberIndex m) {
        s_.count<&Stats::churn_leaves>();
        s_.online[m] = false;
    }
    void churn_rejoin(overlay::MemberIndex m) {
        s_.count<&Stats::churn_rejoins>();
        // A crashed node stays down until restart brings it back.
        if (!crashed_[m]) s_.online[m] = true;
    }
    /// Crash-stop: offline plus amnesia -- the owners forget m's volatile
    /// state; only the journal survives.
    void crash(overlay::MemberIndex m);
    /// Journal replay, recovery handshake, stewardship resume/abandon.
    void restart(overlay::MemberIndex m);
    void partition_start() { s_.count<&Stats::partition_activations>(); }
    void heal_partition();

    [[nodiscard]] bool is_crashed(overlay::MemberIndex m) const {
        return crashed_.at(m);
    }
    [[nodiscard]] const std::vector<overlay::MemberIndex>&
    advertisement_rejecters(overlay::MemberIndex m) const {
        return ad_rejecters_.at(m);
    }

  private:
    void exchange_routing_state();
    /// m's signed jump-table advertisement as of now; a suppressor's is
    /// cut down to its advertised fraction and re-signed.
    [[nodiscard]] overlay::JumpTableAdvertisement routing_advertisement(
        overlay::MemberIndex m) const;
    /// peer's full validation pipeline for an advertisement.
    [[nodiscard]] bool accepts(const overlay::JumpTableAdvertisement& ad,
                               overlay::MemberIndex peer) const;
    void recovery_handshake(overlay::MemberIndex m,
                            const NodeJournal::RecoveredState& recovered);

    Shared& s_;
    Prober& prober_;
    EvidenceGossip& gossip_;
    Stewardship& stewardship_;
    std::vector<bool> crashed_;
    std::vector<util::SimTime> crashed_at_;
    std::vector<std::vector<overlay::MemberIndex>> ad_rejecters_;
};

/// The accusation campaign (ADVERSARY.md): slander and spam rounds.  Owns
/// each node's round-robin victim cursors, which survive a crash.
class Adversary {
  public:
    Adversary(Shared& s, const Stewardship& stewardship,
              const EvidenceGossip& gossip)
        : s_(s), stewardship_(stewardship), gossip_(gossip),
          slander_cursor_(s.net->size(), 0), spam_cursor_(s.net->size(), 0) {}

    /// Schedules m's first slander and spam rounds, if it plays either.
    void start(overlay::MemberIndex m) {
        if (s_.behavior(m).slander) s_.schedule_round(Op::kSlanderRound, m);
        if (s_.behavior(m).spam_accusations) {
            s_.schedule_round(Op::kSpamRound, m);
        }
    }
    void slander_round(overlay::MemberIndex m);
    void spam_round(overlay::MemberIndex m);

  private:
    Shared& s_;
    const Stewardship& stewardship_;
    const EvidenceGossip& gossip_;
    std::vector<std::size_t> slander_cursor_;
    std::vector<std::size_t> spam_cursor_;
};

}  // namespace concilium::runtime
