#include "runtime/archive.h"

#include <algorithm>

namespace concilium::runtime {

ArchiveAdd SnapshotArchive::add(tomography::TomographicSnapshot snapshot,
                                util::SimTime now, DigestId digest_id) {
    return add(std::make_shared<const tomography::TomographicSnapshot>(
                   std::move(snapshot)),
               now, digest_id);
}

ArchiveAdd SnapshotArchive::add(SnapshotPtr entry,
                                std::uint32_t origin_index, util::SimTime now,
                                DigestId digest_id) {
    if (origin_index >= slot_by_member_.size()) {
        slot_by_member_.resize(origin_index + 1, kNoSlot);
    }
    std::uint32_t& slot = slot_by_member_[origin_index];
    // A NodeId add may have opened this origin's table already.
    if (slot == kNoSlot) slot = slot_of(entry->origin);
    return admit(std::move(entry), slot, now, digest_id);
}

ArchiveAdd SnapshotArchive::add(SnapshotPtr entry, util::SimTime now,
                                DigestId digest_id) {
    std::uint32_t slot = slot_of(entry->origin);
    return admit(std::move(entry), slot, now, digest_id);
}

ArchiveAdd SnapshotArchive::admit(SnapshotPtr entry, std::uint32_t& slot,
                                  util::SimTime now, DigestId digest_id) {
    const tomography::TomographicSnapshot& snapshot = *entry;
    if (now - snapshot.probed_at > max_transit_) {
        return ArchiveAdd::kRejectedStale;
    }
    if (slot != kNoSlot && snapshot.epoch != 0 &&
        snapshot.epoch <= origins_[slot].newest_epoch) {
        return ArchiveAdd::kRejectedEpoch;
    }
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(origins_.size());
        slot_by_id_.emplace(snapshot.origin, slot);
        origins_.push_back(OriginTable{snapshot.origin, {}, 0});
    }
    OriginTable& table = origins_[slot];
    if (snapshot.epoch != 0) table.newest_epoch = snapshot.epoch;
    table.entries.push_back(
        Entry{Meta{snapshot.epoch, snapshot.probed_at, digest_id},
              std::move(entry)},
        max_per_origin_ + 1);
    ++count_;
    while (table.entries.size() > max_per_origin_) {
        table.entries.pop_front();
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

void SnapshotArchive::Ring::push_back(Entry entry, std::size_t limit) {
    if (size_ == buf_.size()) {
        std::vector<Entry> grown(std::min(std::max<std::size_t>(4, 2 * size_),
                                          limit));
        for (std::size_t i = 0; i < size_; ++i) {
            grown[i] = std::move(buf_[wrap(head_ + i)]);
        }
        buf_ = std::move(grown);
        head_ = 0;
    }
    buf_[wrap(head_ + size_)] = std::move(entry);
    ++size_;
}

void SnapshotArchive::Ring::pop_front() {
    buf_[head_] = Entry{};
    head_ = wrap(head_ + 1);
    --size_;
}

void SnapshotArchive::prune(util::SimTime now) {
    const util::SimTime horizon = now - retention_;
    for (auto& table : origins_) {
        while (!table.entries.empty() &&
               table.entries[0].meta.probed_at < horizon) {
            table.entries.pop_front();
            --count_;
        }
    }
}

std::uint32_t SnapshotArchive::slot_of(const util::NodeId& origin) const {
    const auto it = slot_by_id_.find(origin);
    return it == slot_by_id_.end() ? kNoSlot : it->second;
}

const SnapshotArchive::OriginTable* SnapshotArchive::table_of(
    const util::NodeId& origin) const {
    const std::uint32_t slot = slot_of(origin);
    return slot == kNoSlot ? nullptr : &origins_[slot];
}

const tomography::TomographicSnapshot* SnapshotArchive::find(
    const util::NodeId& origin, std::uint64_t epoch) const {
    if (epoch == 0) return nullptr;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return nullptr;
    // Scan newest-first over the compact meta rows; recent epochs are the
    // common probe.
    for (std::size_t i = table->entries.size(); i-- > 0;) {
        const Entry& e = table->entries[i];
        if (e.meta.epoch == epoch) return e.snap.get();
    }
    return nullptr;
}

SnapshotArchive::DigestId SnapshotArchive::digest_of(
    const util::NodeId& origin, std::uint64_t epoch) const {
    if (epoch == 0) return util::DigestInterner::kInvalidId;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return util::DigestInterner::kInvalidId;
    for (std::size_t i = table->entries.size(); i-- > 0;) {
        const Meta& meta = table->entries[i].meta;
        if (meta.epoch == epoch) return meta.digest;
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
        for (std::size_t i = 0; i < table.entries.size(); ++i) {
            const Entry& e = table.entries[i];
            const util::SimTime at = e.meta.probed_at;
            if (at < lo || at > t + delta) continue;
            for (const auto& obs : e.snap->links) {
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
    for (std::size_t i = 0; i < table->entries.size(); ++i) {
        out.push_back(table->entries[i].snap.get());
    }
    return out;
}

std::vector<tomography::TomographicSnapshot> SnapshotArchive::evidence_for(
    std::span<const net::LinkId> links, util::SimTime t, util::SimTime delta,
    const util::NodeId& exclude) const {
    const util::SimTime lo = query_horizon(t, delta);
    std::vector<tomography::TomographicSnapshot> out;
    for (const auto& table : origins_) {
        if (table.origin == exclude) continue;
        for (std::size_t i = 0; i < table.entries.size(); ++i) {
            const Entry& e = table.entries[i];
            const util::SimTime at = e.meta.probed_at;
            if (at < lo || at > t + delta) continue;
            const auto& snap = *e.snap;
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
