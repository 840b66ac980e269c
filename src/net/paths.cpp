#include "net/paths.h"

#include <stdexcept>
#include <string>

namespace concilium::net {

PathOracle::PathOracle(const Topology& topo) {
    const std::size_t n = topo.router_count();
    offsets_.reserve(n + 1);
    edges_.reserve(2 * topo.link_count());
    expands_.reserve(n);
    offsets_.push_back(0);
    for (RouterId r = 0; r < n; ++r) {
        const auto edges = topo.neighbors(r);
        edges_.insert(edges_.end(), edges.begin(), edges.end());
        offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
        expands_.push_back(edges.size() > 1 ? 1 : 0);
    }
}

std::vector<PathView> PathOracle::paths_into(RouterId src,
                                             std::span<const RouterId> dsts,
                                             util::Arena& arena) const {
    const std::size_t n = offsets_.size() - 1;
    const auto require = [n](RouterId r, const char* role) {
        if (r >= n) {
            throw std::out_of_range("PathOracle::paths_into: " +
                                    std::string(role) + " router " +
                                    std::to_string(r) + " out of range (" +
                                    std::to_string(n) + " routers)");
        }
    };
    require(src, "source");
    for (const RouterId dst : dsts) require(dst, "destination");

    std::vector<RouterId> parent(n, kInvalidRouter);
    std::vector<LinkId> via(n, kInvalidLink);
    std::vector<RouterId> queue;
    queue.reserve(n);
    parent[src] = src;
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const RouterId r = queue[head];
        for (std::uint32_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
            const Topology::Edge& edge = edges_[e];
            if (parent[edge.neighbor] != kInvalidRouter) continue;
            parent[edge.neighbor] = r;
            via[edge.neighbor] = edge.link;
            if (expands_[edge.neighbor] != 0) queue.push_back(edge.neighbor);
        }
    }

    std::vector<PathView> out;
    out.reserve(dsts.size());
    for (const RouterId dst : dsts) {
        if (dst == src || parent[dst] == kInvalidRouter) {
            out.push_back(PathView{});
            continue;
        }
        std::size_t hops = 0;
        for (RouterId r = dst; r != src; r = parent[r]) ++hops;
        const auto routers = arena.make_span<RouterId>(hops + 1);
        const auto links = arena.make_span<LinkId>(hops);
        routers[0] = src;
        std::size_t i = hops;
        for (RouterId r = dst; r != src; r = parent[r], --i) {
            routers[i] = r;
            links[i - 1] = via[r];
        }
        out.push_back(PathView{routers, links});
    }
    return out;
}

}  // namespace concilium::net
