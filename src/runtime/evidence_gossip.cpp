#include "runtime/owners.h"

#include <numeric>

#include "util/spans.h"

namespace concilium::runtime {

namespace {

/// Snapshot-exchange retry, used when a chaos plan makes the control plane
/// lossy (see Cluster::set_chaos).  A peer whose delivery exhausts the
/// budget simply lacks that snapshot -- the judge's evidence degrades
/// gracefully instead of wedging diagnosis.
constexpr RetryPolicy kSnapshotRetryPolicy{
    .max_attempts = 3, .base_delay = 300 * util::kMillisecond};

// Inverts every link observation and path bucket of a snapshot: the
// report of a node lying about its own probes.
void invert_report(tomography::TomographicSnapshot& snapshot) {
    for (auto& obs : snapshot.links) obs.up = !obs.up;
    for (auto& path : snapshot.paths) {
        path.bucket = path.bucket == tomography::LossBucket::kClean
                          ? tomography::LossBucket::kDown
                          : tomography::LossBucket::kClean;
    }
}

// The archive entry for a sealed snapshot: a pointer to its snapshot that
// keeps the whole seal alive.
SnapshotArchive::SnapshotPtr archived(const SnapshotRef& published) {
    return {published, &published->snapshot};
}

}  // namespace

SnapshotRef EvidenceGossip::seal(overlay::MemberIndex m,
                                 tomography::TomographicSnapshot snapshot) {
    auto pub = std::make_shared<PublishedSnapshot>();
    pub->snapshot = std::move(snapshot);
    pub->origin_m = m;
    pub->payload = pub->snapshot.signed_payload();
    pub->snapshot.signature = s_.net->member(m).keys.sign(pub->payload);
    pub->digest_id = interner_.intern(
        util::digest_bytes({pub->payload.data(), pub->payload.size()}));
    return pub;
}

void EvidenceGossip::publish(overlay::MemberIndex m,
                             tomography::TomographicSnapshot snapshot) {
    const NodeBehavior& b = s_.behavior(m);
    Node& node = nodes_[m];
    // Every publication is bound for all of m's routing peers.
    std::vector<std::uint32_t> ranks(s_.net->routing_peers(m).size());
    std::iota(ranks.begin(), ranks.end(), 0u);
    if (b.replay_snapshots && node.replay_stash != nullptr) {
        // Replayer: instead of publishing fresh results (which would reveal
        // the paths it is breaking), re-advertise its first, favorable
        // snapshot verbatim -- signature and epoch included.  Receiving
        // archives reject it on the transit-time check (and, were the
        // timestamp forged, on the epoch floor).
        s_.count<&Stats::replays_published>();
        send(m, FanOut{node.replay_stash, nullptr, std::move(ranks)}, 1);
        return;
    }
    if (b.flip_probe_reports) {
        // Section 3.3's worst-case leaf: answer others' probes correctly but
        // misreport one's own results.  The liar signs its lie.
        invert_report(snapshot);
    }
    snapshot.epoch = node.next_epoch++;
    // Journal the epoch advance *before* the snapshot leaves: a crash
    // between publish and checkpoint must never let the restarted node
    // re-issue an epoch its peers already archived.
    s_.journals[m].record_epoch(node.next_epoch);
    s_.count<&Stats::snapshots_published>();
    // Publish → expected fan-out delivery on the sim clock; arg carries
    // the epoch so equivocating twins are distinguishable in the trace.
    const util::SimTime now = s_.sim->now();
    util::spans::sim_span(util::spans::SpanType::kSnapshotExchange, now,
                          now + kControlLatency, /*causal=*/m,
                          static_cast<std::int64_t>(snapshot.epoch));
    // Sign, serialize and digest exactly once; every per-peer delivery
    // (and the node's own archive) reuses the sealed slab.
    FanOut fan{seal(m, std::move(snapshot)), nullptr, std::move(ranks)};
    if (b.replay_snapshots) node.replay_stash = fan.seal;
    if (node.archive.add(archived(fan.seal), m, now, fan.seal->digest_id) ==
        ArchiveAdd::kArchived) {
        note_admitted(*fan.seal);
    }
    if (b.equivocate_snapshots) {
        // Equivocator: odd-ranked peers get a fully link-flipped twin signed
        // over the *same* origin+epoch.  Any two peers comparing digests now
        // hold a self-verifying proof.
        s_.count<&Stats::equivocations_published>();
        tomography::TomographicSnapshot twin = fan.seal->snapshot;
        invert_report(twin);
        fan.twin = seal(m, std::move(twin));
    }
    send(m, std::move(fan), 1);
}

void EvidenceGossip::send(overlay::MemberIndex origin, FanOut fan,
                          int attempt) {
    // On a lossless control plane (the paper's assumption) every copy
    // passes.  Under chaos the control plane shares the faulty IP network:
    // each copy is one packet over the member-to-peer path, retried alone
    // with exponential backoff, and abandoned once the budget is spent --
    // the peer then simply lacks this snapshot, so the blame evidence it
    // can contribute degrades instead of the diagnosis wedging on it.
    if (s_.chaos != nullptr) {
        if (!s_.online[origin]) return;  // an offline origin stops retrying
        static auto& snapshot_attempts =
            util::metrics::Registry::global().counter(
                "runtime.retry.snapshot_attempts");
        static auto& snapshots_blocked =
            util::metrics::Registry::global().counter(
                "partition.snapshots_blocked");
        const auto& peers = s_.net->routing_peers(origin);
        std::size_t passed = 0;
        for (const std::uint32_t rank : fan.ranks) {
            const overlay::MemberIndex peer = peers[rank];
            snapshot_attempts.add(1);
            bool crossed = true;
            if (s_.partition_blocks(origin, peer)) {
                // The cut swallows this copy; a retry may land after the heal.
                crossed = false;
                snapshots_blocked.add(1);
            } else if (s_.trees->leaf_slot(origin, peer).has_value()) {
                crossed = s_.transport.sample_traversal(
                    s_.trees->path_links(origin, peer), s_.sim->now());
            }
            if (crossed) {
                fan.ranks[passed++] = rank;
                continue;
            }
            const int next = attempt + 1;
            if (!kSnapshotRetryPolicy.allows(next)) {
                s_.count<&Stats::snapshot_deliveries_failed>();
                continue;
            }
            s_.count<&Stats::snapshot_retries>();
            s_.post_parked(kSnapshotRetryPolicy.delay_before(next, s_.rng),
                           Op::kSnapshotRetry, origin,
                           FanOut{fan.copy_for(rank), nullptr, {rank}},
                           static_cast<std::uint64_t>(next));
        }
        fan.ranks.resize(passed);
    }
    // The copies that pass land together; a retry waits 270 ms or more, so
    // it never lands at their instant.
    if (!fan.ranks.empty()) {
        s_.post_parked(kControlLatency, Op::kFanOutSnapshot, origin,
                       std::move(fan));
    }
}

void EvidenceGossip::deliver_fan_out(overlay::MemberIndex origin,
                                     const FanOut& fan) {
    const auto& peers = s_.net->routing_peers(origin);
    for (const std::uint32_t rank : fan.ranks) {
        deliver(peers[rank], fan.copy_for(rank));
    }
}

void EvidenceGossip::note_admitted(const PublishedSnapshot& published) {
    const std::uint64_t epoch = published.snapshot.epoch;
    auto& digests = admitted_digests_[published.origin_m];
    if (epoch >= digests.size()) {
        digests.resize(epoch + 1, util::DigestInterner::kInvalidId);
    }
    util::DigestInterner::Id& first = digests[epoch];
    if (first == util::DigestInterner::kInvalidId) {
        first = published.digest_id;
    } else if (first != published.digest_id) {
        first = kMixedDigests;
    }
}

void EvidenceGossip::detect_equivocation(overlay::MemberIndex holder,
                                         const PublishedSnapshot& published) {
    const tomography::TomographicSnapshot& snapshot = published.snapshot;
    if (snapshot.epoch == 0) return;  // unversioned: nothing to compare
    const overlay::MemberIndex origin_m = published.origin_m;
    // The digest record has seen every copy of this epoch that any archive
    // admitted, this one included.  Unless two of them differ, every peer
    // holds this digest or none, and the scan below could find no conflict.
    if (admitted_digests_[origin_m][snapshot.epoch] != kMixedDigests) return;
    if (proofs_filed_.contains({origin_m, snapshot.epoch})) return;
    static auto& equivocation_scans = util::metrics::Registry::global().counter(
        "defense.equivocation_scans");
    equivocation_scans.add(1);
    // Digest exchange: compare the interned payload-digest id just archived
    // at `holder` against what the origin's other routing peers hold for the
    // same epoch.  Ids come from the cluster-wide interner, so agreement is
    // a single integer compare; only a mismatch -- an actual payload
    // conflict -- pays for building and verifying the full proof.  Both
    // copies carry the origin's valid signature, so the conflict *is* the
    // proof, no trust in either peer required.
    const crypto::PublicKey& origin_key =
        s_.net->member(origin_m).keys.public_key();
    for (const overlay::MemberIndex peer : s_.net->routing_peers(origin_m)) {
        if (peer == holder || !s_.online[peer]) continue;
        const SnapshotArchive& held = nodes_[peer].archive;
        const SnapshotArchive::DigestId other_digest =
            held.digest_of(snapshot.origin, snapshot.epoch);
        if (other_digest == util::DigestInterner::kInvalidId ||
            other_digest == published.digest_id) {
            continue;  // peer lacks the epoch, or holds the same payload
        }
        const tomography::TomographicSnapshot* other =
            held.find(snapshot.origin, snapshot.epoch);
        if (other == nullptr) continue;
        core::EquivocationProof proof{*other, snapshot};
        if (core::verify_equivocation_proof(proof, origin_key, s_.registry) !=
            core::EquivocationCheck::kOk) {
            continue;  // not a usable proof after all
        }
        proofs_filed_.insert({origin_m, snapshot.epoch});
        s_.dht.put(holder, core::EquivocationProof::dht_key(origin_key),
                   proof.serialize());
        s_.count<&Stats::equivocation_proofs_filed>();
        return;
    }
}

void EvidenceGossip::deliver(overlay::MemberIndex peer,
                             const SnapshotRef& published) {
    // Same check as tomography::verify_snapshot, run once per seal: every
    // copy a peer receives shares the seal and with it the verdict.
    static auto& cache_hit =
        util::metrics::Registry::global().counter("crypto.verify.cache_hit");
    static auto& cache_miss =
        util::metrics::Registry::global().counter("crypto.verify.cache_miss");
    if (published->signature_ok.has_value()) {
        cache_hit.add(1);
    } else {
        cache_miss.add(1);
        published->signature_ok = s_.registry.verify(
            s_.net->member(published->origin_m).keys.public_key(),
            published->payload, published->snapshot.signature);
    }
    if (!*published->signature_ok) {
        s_.count<&Stats::snapshots_rejected>();
        return;
    }
    switch (nodes_[peer].archive.add(archived(published), published->origin_m,
                                     s_.sim->now(), published->digest_id)) {
        case ArchiveAdd::kArchived:
            note_admitted(*published);
            detect_equivocation(peer, *published);
            break;
        case ArchiveAdd::kRejectedStale:
            s_.count<&Stats::snapshots_rejected_stale>();
            break;
        case ArchiveAdd::kRejectedEpoch:
            s_.count<&Stats::snapshots_rejected_epoch>();
            break;
    }
}

}  // namespace concilium::runtime
