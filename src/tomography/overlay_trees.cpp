#include "tomography/overlay_trees.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "util/parallel.h"

namespace concilium::tomography {

namespace {

/// Sources per build chunk.  Fixed, so the chunk boundaries -- and with
/// them every arena's contents and every chunk's sweeps -- never depend on
/// the worker count.
constexpr std::size_t kChunkMembers = 64;
/// A chunk of full-SCAN paths fills a few hundred KiB; small blocks keep
/// the unused tail of each chunk's arena small.
constexpr std::size_t kChunkArenaBlockBytes = std::size_t{64} << 10;
/// Sources x routers that pay for one more worker.  Not the routers the
/// sweeps visit (sources sharing an entry router share a core sweep), but
/// it gives 4 workers at full SCAN (1,242 sources, 113k routers) and
/// builds the 90- and 48-member worlds inline.
constexpr std::size_t kVisitsPerWorker = 4'000'000;

/// One chunk's arena, plus each of its members' outputs in chunk order.
struct Chunk {
    util::Arena arena{kChunkArenaBlockBytes};
    std::vector<ProbeTree> trees;
    std::vector<std::vector<std::pair<overlay::MemberIndex, int>>> leaf_slots;
    std::vector<std::vector<net::PathView>> paths;
    std::vector<std::vector<util::NodeId>> leaf_ids;
    std::vector<std::vector<overlay::MemberIndex>> leaf_members;
};

void build_chunk(const overlay::OverlayNetwork& net,
                 const net::PathOracle& oracle,
                 std::span<const overlay::MemberIndex> sources, Chunk& out) {
    out.trees.reserve(sources.size());
    net::PathOracle::Sweep sweep;
    std::vector<net::RouterId> dsts;
    for (const overlay::MemberIndex m : sources) {
        const auto& peers = net.routing_peers(m);
        dsts.clear();
        for (const overlay::MemberIndex p : peers) {
            dsts.push_back(net.member(p).ip());
        }
        const std::vector<net::PathView> paths =
            oracle.paths_into(net.member(m).ip(), dsts, out.arena, sweep);
        out.trees.emplace_back(net.member(m).ip(), paths);
        auto& slots = out.leaf_slots.emplace_back();
        auto& kept = out.paths.emplace_back();
        auto& ids = out.leaf_ids.emplace_back();
        auto& members = out.leaf_members.emplace_back();
        int slot = 0;
        for (std::size_t k = 0; k < peers.size(); ++k) {
            if (paths[k].empty()) continue;
            slots.emplace_back(peers[k], slot++);
            kept.push_back(paths[k]);
            ids.push_back(net.member(peers[k]).id());
            members.push_back(peers[k]);
        }
        std::sort(slots.begin(), slots.end());
    }
}

}  // namespace

OverlayTrees::OverlayTrees(const overlay::OverlayNetwork& net,
                           const net::Topology& topology) {
    const net::PathOracle oracle(topology);
    const std::size_t n = net.size();
    // Sources that enter the core at the same router share its sweep.
    std::vector<net::RouterId> entry(n);
    std::vector<overlay::MemberIndex> order(n);
    for (overlay::MemberIndex m = 0; m < n; ++m) {
        entry[m] = oracle.entry(net.member(m).ip());
        order[m] = m;
    }
    std::ranges::stable_sort(order, {}, [&](overlay::MemberIndex m) {
        return entry[m];
    });

    const std::size_t chunk_count = (n + kChunkMembers - 1) / kChunkMembers;
    std::vector<Chunk> chunks(chunk_count);
    util::parallel_for(
        chunk_count,
        std::min<std::size_t>(std::thread::hardware_concurrency(),
                              n * topology.router_count() / kVisitsPerWorker),
        [&](std::size_t c) {
            const std::size_t begin = c * kChunkMembers;
            build_chunk(net, oracle,
                        std::span(order).subspan(
                            begin, std::min(kChunkMembers, n - begin)),
                        chunks[c]);
        });

    // Every table is member-major, so place each member's outputs by index.
    std::vector<std::size_t> position(n);
    for (std::size_t p = 0; p < n; ++p) position[order[p]] = p;
    trees_.reserve(n);
    leaf_slots_.reserve(n);
    leaf_ids_.reserve(n);
    leaf_members_.reserve(n);
    first_path_.reserve(n + 1);
    first_path_.push_back(0);
    for (std::size_t m = 0; m < n; ++m) {
        Chunk& chunk = chunks[position[m] / kChunkMembers];
        const std::size_t i = position[m] % kChunkMembers;
        trees_.push_back(std::move(chunk.trees[i]));
        leaf_slots_.push_back(std::move(chunk.leaf_slots[i]));
        paths_.insert(paths_.end(), chunk.paths[i].begin(),
                      chunk.paths[i].end());
        first_path_.push_back(paths_.size());
        leaf_ids_.push_back(std::move(chunk.leaf_ids[i]));
        leaf_members_.push_back(std::move(chunk.leaf_members[i]));
    }
    arenas_.reserve(chunk_count);
    for (Chunk& chunk : chunks) arenas_.push_back(std::move(chunk.arena));
}

std::optional<int> OverlayTrees::leaf_slot(overlay::MemberIndex m,
                                           overlay::MemberIndex peer) const {
    const auto& slots = leaf_slots_.at(m);
    const auto it = std::lower_bound(
        slots.begin(), slots.end(), peer,
        [](const auto& entry, overlay::MemberIndex p) {
            return entry.first < p;
        });
    if (it == slots.end() || it->first != peer) return std::nullopt;
    return it->second;
}

std::span<const net::LinkId> OverlayTrees::path_links(
    overlay::MemberIndex m, overlay::MemberIndex peer) const {
    const auto slot = leaf_slot(m, peer);
    if (!slot.has_value()) {
        throw std::invalid_argument("OverlayTrees::path_links: no path");
    }
    return paths_[first_path_[m] + static_cast<std::size_t>(*slot)].links;
}

std::span<const net::LinkId> OverlayTrees::slot_path_links(
    overlay::MemberIndex m, int slot) const {
    const auto s = static_cast<std::size_t>(slot);
    if (slot < 0 || s >= leaf_members_.at(m).size()) {
        throw std::out_of_range("OverlayTrees::slot_path_links: no such slot");
    }
    return paths_[first_path_[m] + s].links;
}

std::size_t OverlayTrees::path_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const util::Arena& arena : arenas_) bytes += arena.bytes_used();
    return bytes;
}

}  // namespace concilium::tomography
