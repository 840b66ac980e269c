#include "runtime/archive.h"

#include <algorithm>

namespace concilium::runtime {

ArchiveAdd SnapshotArchive::add(tomography::TomographicSnapshot snapshot,
                                util::SimTime now, DigestId digest_id) {
    return add(std::make_shared<const tomography::TomographicSnapshot>(
                   std::move(snapshot)),
               now, digest_id);
}

ArchiveAdd SnapshotArchive::add(SnapshotPtr entry, util::SimTime now,
                                DigestId digest_id) {
    const tomography::TomographicSnapshot& snapshot = *entry;
    if (now - snapshot.probed_at > max_transit_) {
        return ArchiveAdd::kRejectedStale;
    }
    OriginTable* table = nullptr;
    const auto it = slot_of_.find(snapshot.origin);
    if (it != slot_of_.end()) table = &origins_[it->second];
    if (snapshot.epoch != 0 && table != nullptr &&
        snapshot.epoch <= table->newest_epoch) {
        return ArchiveAdd::kRejectedEpoch;
    }
    if (table == nullptr) {
        slot_of_.emplace(snapshot.origin,
                         static_cast<std::uint32_t>(origins_.size()));
        origins_.push_back(OriginTable{snapshot.origin, {}, {}, 0});
        table = &origins_.back();
    }
    if (snapshot.epoch != 0) table->newest_epoch = snapshot.epoch;
    table->meta.push_back(
        Meta{snapshot.epoch, snapshot.probed_at, digest_id});
    table->snaps.push_back(std::move(entry));
    ++count_;
    while (table->snaps.size() > max_per_origin_) {
        table->snaps.pop_front();
        table->meta.pop_front();
        --count_;
    }
    // Throttled reclamation: a full prune per insert was a measured hotspot
    // at --full scale, and queries enforce the horizon regardless.
    if (now - last_prune_ >= retention_ / 8) {
        prune(now);
        last_prune_ = now;
    }
    return ArchiveAdd::kArchived;
}

void SnapshotArchive::prune(util::SimTime now) {
    const util::SimTime horizon = now - retention_;
    for (auto& table : origins_) {
        while (!table.meta.empty() && table.meta.front().probed_at < horizon) {
            table.snaps.pop_front();
            table.meta.pop_front();
            --count_;
        }
    }
}

const SnapshotArchive::OriginTable* SnapshotArchive::table_of(
    const util::NodeId& origin) const {
    const auto it = slot_of_.find(origin);
    return it == slot_of_.end() ? nullptr : &origins_[it->second];
}

const tomography::TomographicSnapshot* SnapshotArchive::find(
    const util::NodeId& origin, std::uint64_t epoch) const {
    if (epoch == 0) return nullptr;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return nullptr;
    // Scan newest-first over the compact meta rows; recent epochs are the
    // common probe.
    for (std::size_t i = table->meta.size(); i-- > 0;) {
        if (table->meta[i].epoch == epoch) return table->snaps[i].get();
    }
    return nullptr;
}

SnapshotArchive::DigestId SnapshotArchive::digest_of(
    const util::NodeId& origin, std::uint64_t epoch) const {
    if (epoch == 0) return util::DigestInterner::kInvalidId;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return util::DigestInterner::kInvalidId;
    for (std::size_t i = table->meta.size(); i-- > 0;) {
        if (table->meta[i].epoch == epoch) return table->meta[i].digest;
    }
    return util::DigestInterner::kInvalidId;
}

util::SimTime SnapshotArchive::query_horizon(util::SimTime t,
                                             util::SimTime delta) const {
    // The window is [t - delta, t + delta], but never reaches further back
    // than the retention promise: a caller passing a huge delta must not
    // resurrect evidence that insert-time pruning merely hasn't visited yet.
    return std::max(t - delta, t - retention_);
}

std::vector<core::ProbeResult> SnapshotArchive::probes_for(
    std::span<const net::LinkId> links, util::SimTime t, util::SimTime delta,
    const util::NodeId& exclude) const {
    const util::SimTime lo = query_horizon(t, delta);
    std::vector<core::ProbeResult> out;
    for (const auto& table : origins_) {
        if (table.origin == exclude) continue;
        for (std::size_t i = 0; i < table.meta.size(); ++i) {
            const util::SimTime at = table.meta[i].probed_at;
            if (at < lo || at > t + delta) continue;
            for (const auto& obs : table.snaps[i]->links) {
                if (std::find(links.begin(), links.end(), obs.link) ==
                    links.end()) {
                    continue;
                }
                out.push_back(
                    core::ProbeResult{table.origin, obs.link, obs.up, at});
            }
        }
    }
    return out;
}

std::vector<const tomography::TomographicSnapshot*>
SnapshotArchive::snapshots_from(const util::NodeId& origin) const {
    std::vector<const tomography::TomographicSnapshot*> out;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return out;
    for (const auto& snap : table->snaps) out.push_back(snap.get());
    return out;
}

std::vector<tomography::TomographicSnapshot> SnapshotArchive::evidence_for(
    std::span<const net::LinkId> links, util::SimTime t, util::SimTime delta,
    const util::NodeId& exclude) const {
    const util::SimTime lo = query_horizon(t, delta);
    std::vector<tomography::TomographicSnapshot> out;
    for (const auto& table : origins_) {
        if (table.origin == exclude) continue;
        for (std::size_t i = 0; i < table.meta.size(); ++i) {
            const util::SimTime at = table.meta[i].probed_at;
            if (at < lo || at > t + delta) continue;
            const auto& snap = *table.snaps[i];
            const bool touches = std::any_of(
                snap.links.begin(), snap.links.end(),
                [&](const tomography::LinkObservation& obs) {
                    return std::find(links.begin(), links.end(), obs.link) !=
                           links.end();
                });
            if (touches) out.push_back(snap);
        }
    }
    return out;
}

}  // namespace concilium::runtime
