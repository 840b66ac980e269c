#include "net/paths.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/metrics.h"

namespace concilium::net {

namespace {

util::metrics::Counter& routers_expanded() {
    static auto& c = util::metrics::Registry::global().counter(
        "net.bfs_routers_expanded");
    return c;
}

/// Per link: 1 when it is a bridge, a link whose removal disconnects its
/// ends.  Tarjan's lowlink DFS, kept on an explicit stack: a recursive one
/// would overflow the call stack on a long chain of routers.
std::vector<std::uint8_t> find_bridges(std::span<const std::uint32_t> offsets,
                                       std::span<const Topology::Edge> edges,
                                       std::size_t link_count) {
    const std::size_t n = offsets.size() - 1;
    std::vector<std::uint8_t> bridge(link_count, 0);
    // Discovery order, from 1 (0: not yet visited), and the lowest order
    // reachable from a router's DFS subtree over one non-tree link.
    std::vector<std::uint32_t> order(n, 0);
    std::vector<std::uint32_t> low(n, 0);
    struct Frame {
        RouterId router;
        std::uint32_t next_edge;
        LinkId via;  // the tree link into router
    };
    std::vector<Frame> stack;
    std::uint32_t clock = 0;
    for (RouterId start = 0; start < n; ++start) {
        if (order[start] != 0) continue;
        order[start] = low[start] = ++clock;
        stack.push_back({start, offsets[start], kInvalidLink});
        while (!stack.empty()) {
            Frame& top = stack.back();
            if (top.next_edge < offsets[top.router + 1]) {
                const Topology::Edge& e = edges[top.next_edge++];
                if (e.link == top.via) continue;
                if (order[e.neighbor] != 0) {
                    low[top.router] =
                        std::min(low[top.router], order[e.neighbor]);
                    continue;
                }
                order[e.neighbor] = low[e.neighbor] = ++clock;
                stack.push_back({e.neighbor, offsets[e.neighbor], e.link});
                continue;
            }
            const Frame done = top;
            stack.pop_back();
            if (stack.empty()) break;
            const RouterId up = stack.back().router;
            low[up] = std::min(low[up], low[done.router]);
            if (low[done.router] > order[up]) bridge[done.via] = 1;
        }
    }
    return bridge;
}

/// The lowest router of the largest 2-edge-connected component -- what is
/// left of a connected component once its bridges are cut -- taking the
/// component with the lowest router on a tie.
RouterId largest_component_root(std::span<const std::uint32_t> offsets,
                                std::span<const Topology::Edge> edges,
                                std::span<const std::uint8_t> bridge) {
    const std::size_t n = offsets.size() - 1;
    std::vector<std::uint8_t> seen(n, 0);
    std::vector<RouterId> stack;
    RouterId best = 0;
    std::size_t best_size = 0;
    for (RouterId first = 0; first < n; ++first) {
        if (seen[first] != 0) continue;
        seen[first] = 1;
        stack.push_back(first);
        std::size_t size = 0;
        while (!stack.empty()) {
            const RouterId r = stack.back();
            stack.pop_back();
            ++size;
            for (std::uint32_t e = offsets[r]; e < offsets[r + 1]; ++e) {
                if (bridge[edges[e].link] != 0 ||
                    seen[edges[e].neighbor] != 0) {
                    continue;
                }
                seen[edges[e].neighbor] = 1;
                stack.push_back(edges[e].neighbor);
            }
        }
        if (size > best_size) {
            best = first;
            best_size = size;
        }
    }
    return best;
}

}  // namespace

PathOracle::PathOracle(const Topology& topo) {
    const std::size_t n = topo.router_count();
    offsets_.reserve(n + 1);
    edges_.reserve(2 * topo.link_count());
    offsets_.push_back(0);
    for (RouterId r = 0; r < n; ++r) {
        const auto edges = topo.neighbors(r);
        edges_.insert(edges_.end(), edges.begin(), edges.end());
        offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
    }
    bridge_down_.assign(edges_.size(), 0);
    root_parent_.assign(n, kInvalidRouter);
    root_via_.assign(n, kInvalidLink);
    if (n == 0) return;

    const auto bridge = find_bridges(offsets_, edges_, topo.link_count());
    root_ = largest_component_root(offsets_, edges_, bridge);
    // With no edge flagged yet, this is a plain BFS.
    sweep(root_, root_parent_, root_via_);
    // No two links join the same pair of routers, so the edge from r to a
    // router whose root parent is r is the edge that discovered it.
    for (RouterId r = 0; r < n; ++r) {
        for (std::uint32_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
            bridge_down_[e] = bridge[edges_[e].link] != 0 &&
                              root_parent_[edges_[e].neighbor] == r;
        }
    }
}

std::size_t PathOracle::sweep(RouterId src, std::vector<RouterId>& parent,
                              std::vector<LinkId>& via) const {
    std::vector<RouterId> queue;
    queue.reserve(offsets_.size() - 1);
    parent[src] = src;
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const RouterId r = queue[head];
        for (std::uint32_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
            const Topology::Edge& edge = edges_[e];
            if (parent[edge.neighbor] != kInvalidRouter) continue;
            parent[edge.neighbor] = r;
            via[edge.neighbor] = edge.link;
            if (bridge_down_[e] == 0) queue.push_back(edge.neighbor);
        }
    }
    return queue.size();
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
    routers_expanded().add(static_cast<std::int64_t>(sweep(src, parent, via)));

    // Below a router it did not queue this BFS recorded nothing; the root
    // BFS's parents lead up to that router.  A flagged edge never leads to
    // the root, so this BFS reaches the root exactly when src shares its
    // connected component, and then every router of it is reached one way
    // or the other.
    const bool src_in_root = parent[root_] != kInvalidRouter;
    const auto up = [&](RouterId r) {
        return parent[r] != kInvalidRouter ? parent[r] : root_parent_[r];
    };
    std::vector<PathView> out;
    out.reserve(dsts.size());
    for (const RouterId dst : dsts) {
        const bool reached =
            parent[dst] != kInvalidRouter ||
            (src_in_root && root_parent_[dst] != kInvalidRouter);
        if (dst == src || !reached) {
            out.push_back(PathView{});
            continue;
        }
        std::size_t hops = 0;
        for (RouterId r = dst; r != src; r = up(r)) ++hops;
        const auto routers = arena.make_span<RouterId>(hops + 1);
        const auto links = arena.make_span<LinkId>(hops);
        routers[0] = src;
        std::size_t i = hops;
        for (RouterId r = dst; r != src; r = up(r), --i) {
            routers[i] = r;
            links[i - 1] =
                parent[r] != kInvalidRouter ? via[r] : root_via_[r];
        }
        out.push_back(PathView{routers, links});
    }
    return out;
}

}  // namespace concilium::net
