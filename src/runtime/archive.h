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
// Storage is index-addressed: the cluster names each origin by its dense
// member index, which reaches the origin's table through a vector; NodeIds
// resolve through a map only at the query boundary and in the NodeId
// overloads of add.  Each origin keeps its entries, oldest first, in one
// ring that grows on demand up to the per-origin cap.  A compact per-entry
// Meta row (epoch, interned payload digest, probe time) serves the scanning
// queries -- epoch lookups and cross-peer digest comparison never touch the
// snapshot payloads themselves.  Entries are shared and immutable: the
// cluster archives one sealed copy of each published snapshot, and every
// receiver's entry points at it, so admission copies no payload.  Pruning
// is throttled to a fraction of the retention window instead of running a
// full scan on every insert; queries enforce the retention horizon exactly
// either way.

#pragma once

#include <cstdint>
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
    /// alive until the cap or pruning evicts it.  `origin_index` is the
    /// origin's dense member index; it must name the same origin on every
    /// call, and `entry->origin` on the first.
    ArchiveAdd add(SnapshotPtr entry, std::uint32_t origin_index,
                   util::SimTime now, DigestId digest_id);
    /// The same, resolving the origin by its NodeId; it reaches the same
    /// table as a member-indexed add for that origin.
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
    /// Compact per-entry row for the scanning queries.
    struct Meta {
        std::uint64_t epoch = 0;
        util::SimTime probed_at = 0;
        DigestId digest = util::DigestInterner::kInvalidId;
    };
    struct Entry {
        Meta meta;
        SnapshotPtr snap;
    };
    /// One origin's entries, oldest first.  The buffer doubles when full,
    /// up to the cap plus the one entry an insert holds before eviction;
    /// most origins never need that much.
    class Ring {
      public:
        [[nodiscard]] std::size_t size() const noexcept { return size_; }
        [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
        [[nodiscard]] const Entry& operator[](std::size_t i) const {
            return buf_[wrap(head_ + i)];
        }
        void push_back(Entry entry, std::size_t limit);
        /// Drops the oldest entry, releasing its snapshot.
        void pop_front();

      private:
        [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
            return i < buf_.size() ? i : i - buf_.size();
        }
        std::vector<Entry> buf_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };
    /// One origin's dense slot: its entries plus the replay floor, which
    /// survives pruning and eviction.
    struct OriginTable {
        util::NodeId origin;
        Ring entries;
        std::uint64_t newest_epoch = 0;
    };
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /// Admission behind both add flavours.  `slot` is the origin's table,
    /// or kNoSlot before its first admission, which then opens the table
    /// and stores its slot there.
    ArchiveAdd admit(SnapshotPtr entry, std::uint32_t& slot, util::SimTime now,
                     DigestId digest_id);
    void prune(util::SimTime now);
    /// The effective lower admission bound for a query anchored at `t`.
    [[nodiscard]] util::SimTime query_horizon(util::SimTime t,
                                              util::SimTime delta) const;
    [[nodiscard]] std::uint32_t slot_of(const util::NodeId& origin) const;
    [[nodiscard]] const OriginTable* table_of(const util::NodeId& origin) const;

    util::SimTime retention_;
    util::SimTime max_transit_;
    std::size_t max_per_origin_;
    std::vector<OriginTable> origins_;  // dense, first-admission order
    /// Origin member index -> slot (kNoSlot until admitted), grown on demand.
    std::vector<std::uint32_t> slot_by_member_;
    /// NodeId -> slot, for the queries and the NodeId overloads of add.
    std::unordered_map<util::NodeId, std::uint32_t, util::NodeIdHash>
        slot_by_id_;  // hot-path-lint: boundary
    /// Simulation time starts at zero, so zero means "never pruned".
    util::SimTime last_prune_ = 0;
    std::size_t count_ = 0;
};

}  // namespace concilium::runtime
