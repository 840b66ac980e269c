// Per-node snapshot archive.
//
// "Regardless, the node archives H's snapshot.  As the node receives
// snapshots from other peers, it constructs a distributed view of the
// forwarding paths emanating from its routing peers and the quality of IP
// links in these paths." (Section 3.2)
//
// The archive keeps every snapshot that is still young enough to matter for
// blame evaluation (the Delta admission window plus slack) and answers the
// query the blame engine needs: all probe results covering a set of links
// around a point in time, with provenance.
//
// Admission is the first evidence-integrity defense: a snapshot whose epoch
// regressed against the origin's newest archived epoch is a replay, and one
// that took implausibly long to arrive is stale -- both are rejected before
// they can weigh on any blame computation.  Retention is enforced on the
// query path as well as on insert, and a per-origin cap bounds what any
// single (possibly hostile) origin can pin in memory.
//
// Storage is index-addressed: origins resolve once to a dense slot at the
// admission boundary, and per-origin state lives in parallel
// structure-of-arrays tables.  A compact per-entry Meta row (epoch, interned
// payload digest, probe time) serves the scanning queries -- epoch lookups
// and cross-peer digest comparison never touch the snapshot payloads
// themselves.  Entries are shared and immutable: the cluster archives one
// sealed copy of each published snapshot, and every receiver's entry points
// at it, so admission copies no payload.  Pruning is throttled to a fraction
// of the retention window instead of running a full scan on every insert;
// queries enforce the retention horizon exactly either way.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/blame.h"
#include "tomography/snapshot.h"
#include "util/arena.h"
#include "util/ids.h"
#include "util/time.h"

namespace concilium::runtime {

/// Outcome of SnapshotArchive::add.
enum class ArchiveAdd {
    kArchived,
    kRejectedStale,  ///< probed_at implausibly far behind delivery time
    kRejectedEpoch,  ///< epoch did not advance past the origin's newest
};

class SnapshotArchive {
  public:
    using DigestId = util::DigestInterner::Id;
    using SnapshotPtr = std::shared_ptr<const tomography::TomographicSnapshot>;

    /// retention: snapshots older than now - retention are pruned on insert
    /// and filtered out of queries.
    /// max_transit: a snapshot delivered more than this after its probed_at
    /// is rejected as stale (honest dissemination takes control-latency plus
    /// bounded retries; a replayed snapshot arrives rounds late).
    /// max_per_origin: newest-wins cap on archived snapshots per origin.
    explicit SnapshotArchive(util::SimTime retention = 10 * util::kMinute,
                             util::SimTime max_transit = util::kMinute,
                             std::size_t max_per_origin = 64)
        : retention_(retention), max_transit_(max_transit),
          max_per_origin_(max_per_origin) {}

    /// Archives a snapshot (assumed already signature-checked by the caller;
    /// un-verifiable snapshots never reach the archive).  Epoch-0 snapshots
    /// skip the replay check (unversioned test inputs); the staleness check
    /// always applies.  `digest_id` is the interned id of the snapshot's
    /// signed payload, from an interner shared by every archive whose ids
    /// are compared (the cluster interns once at publication; deliveries
    /// reuse it), or kInvalidId for an entry that carries none.  An
    /// admitted snapshot is shared, not copied: the archive keeps `entry`
    /// alive until the cap or pruning evicts it.
    ArchiveAdd add(SnapshotPtr entry, util::SimTime now,
                   DigestId digest_id = util::DigestInterner::kInvalidId);
    /// Archives a snapshot the caller owns (moved into a fresh entry).
    ArchiveAdd add(tomography::TomographicSnapshot snapshot, util::SimTime now,
                   DigestId digest_id = util::DigestInterner::kInvalidId);

    /// The archived snapshot from `origin` with exactly this (non-zero)
    /// epoch, or nullptr.  The lookup behind cross-peer digest comparison:
    /// two peers holding different payloads for the same (origin, epoch)
    /// have caught an equivocator.
    [[nodiscard]] const tomography::TomographicSnapshot* find(
        const util::NodeId& origin, std::uint64_t epoch) const;

    /// The interned payload-digest id archived for (origin, epoch), or
    /// kInvalidId when absent.  Two peers returning different valid ids for
    /// the same (origin, epoch) hold conflicting payloads -- the cheap
    /// first-pass equivocation test that avoids re-serializing snapshots.
    [[nodiscard]] DigestId digest_of(const util::NodeId& origin,
                                     std::uint64_t epoch) const;

    /// All archived probe results covering any link in `links`, initiated in
    /// [t - delta, t + delta] (and never older than t - retention).  Results
    /// from `exclude` are skipped -- the caller passes the judged node per
    /// Section 3.4's self-probe rule.
    [[nodiscard]] std::vector<core::ProbeResult> probes_for(
        std::span<const net::LinkId> links, util::SimTime t,
        util::SimTime delta, const util::NodeId& exclude) const;

    /// The archived snapshots from one origin, oldest first (used as signed
    /// evidence when building accusations).
    [[nodiscard]] std::vector<const tomography::TomographicSnapshot*>
    snapshots_from(const util::NodeId& origin) const;

    /// Snapshots (from any origin) whose probes fall inside the window and
    /// touch the given links; this is exactly the evidence bundle a formal
    /// accusation must carry.  Like probes_for, the retention horizon is
    /// enforced on this query path too.
    [[nodiscard]] std::vector<tomography::TomographicSnapshot>
    evidence_for(std::span<const net::LinkId> links, util::SimTime t,
                 util::SimTime delta, const util::NodeId& exclude) const;

    [[nodiscard]] std::size_t size() const noexcept { return count_; }

  private:
    /// Compact per-entry row for the scanning queries; parallel to snaps.
    struct Meta {
        std::uint64_t epoch = 0;
        util::SimTime probed_at = 0;
        DigestId digest = util::DigestInterner::kInvalidId;
    };
    /// One origin's dense slot: parallel snapshot/meta queues plus the
    /// replay floor, which survives pruning and eviction.
    struct OriginTable {
        util::NodeId origin;
        std::deque<SnapshotPtr> snaps;
        std::deque<Meta> meta;
        std::uint64_t newest_epoch = 0;
    };

    void prune(util::SimTime now);
    /// The effective lower admission bound for a query anchored at `t`.
    [[nodiscard]] util::SimTime query_horizon(util::SimTime t,
                                              util::SimTime delta) const;
    [[nodiscard]] const OriginTable* table_of(const util::NodeId& origin) const;

    util::SimTime retention_;
    util::SimTime max_transit_;
    std::size_t max_per_origin_;
    std::vector<OriginTable> origins_;  // dense, first-admission order
    /// NodeId -> slot, resolved once at the admission/query boundary.
    std::unordered_map<util::NodeId, std::uint32_t, util::NodeIdHash>
        slot_of_;  // hot-path-lint: boundary
    /// Simulation time starts at zero, so zero means "never pruned".
    util::SimTime last_prune_ = 0;
    std::size_t count_ = 0;
};

}  // namespace concilium::runtime
