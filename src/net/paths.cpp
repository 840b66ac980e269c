#include "net/paths.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

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

/// FIFO BFS from src over a CSR, ties broken by edge order.  First clears
/// the parents of the routers `reached` lists (the previous BFS's), then
/// lists every router it reaches there in discovery order, src first, and
/// sets its parent and via link; a router for which `stop` holds is
/// reached but not expanded.  Returns the number of routers expanded.
/// Each router is listed before its parent is set, so `reached` names
/// every parent set even when the list cannot grow and this throws.
template <typename Stop>
std::size_t bfs(std::span<const std::uint32_t> offsets,
                std::span<const Topology::Edge> edges, RouterId src,
                std::span<RouterId> parent, std::span<LinkId> via,
                std::vector<RouterId>& reached, Stop stop) {
    for (const RouterId r : reached) parent[r] = kInvalidRouter;
    reached.clear();
    reached.push_back(src);
    parent[src] = src;
    std::size_t expanded = 0;
    for (std::size_t head = 0; head < reached.size(); ++head) {
        const RouterId r = reached[head];
        if (stop(r)) continue;
        ++expanded;
        for (std::uint32_t e = offsets[r]; e < offsets[r + 1]; ++e) {
            const Topology::Edge& edge = edges[e];
            if (parent[edge.neighbor] != kInvalidRouter) continue;
            reached.push_back(edge.neighbor);
            parent[edge.neighbor] = r;
            via[edge.neighbor] = edge.link;
        }
    }
    return expanded;
}

std::uint64_t next_oracle_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
}

/// Throws the named error for a router id outside an n-router topology.
void require(RouterId r, std::size_t n, const char* what) {
    if (r >= n) {
        throw std::out_of_range("PathOracle::" + std::string(what) +
                                " router " + std::to_string(r) +
                                " out of range (" + std::to_string(n) +
                                " routers)");
    }
}

}  // namespace

PathOracle::PathOracle(const Topology& topo) : id_(next_oracle_id()) {
    const std::size_t n = topo.router_count();
    offsets_.reserve(n + 1);
    edges_.reserve(2 * topo.link_count());
    offsets_.push_back(0);
    for (RouterId r = 0; r < n; ++r) {
        const auto edges = topo.neighbors(r);
        edges_.insert(edges_.end(), edges.begin(), edges.end());
        offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
    }
    root_parent_.assign(n, kInvalidRouter);
    root_via_.assign(n, kInvalidLink);
    core_number_.assign(n, kNotCore);
    core_offsets_.push_back(0);
    if (n == 0) return;

    const auto bridge = find_bridges(offsets_, edges_, topo.link_count());
    const RouterId root = largest_component_root(offsets_, edges_, bridge);
    std::vector<RouterId> order;
    order.reserve(n);
    bfs(offsets_, edges_, root, root_parent_, root_via_, order,
        [](RouterId) { return false; });
    // A core router's root parent is a core router joined to it by a
    // link that is no bridge, so one pass in root-BFS order finds the core.
    for (const RouterId r : order) {
        if (r == root || (core_number_[root_parent_[r]] != kNotCore &&
                          bridge[root_via_[r]] == 0)) {
            core_number_[r] = static_cast<std::uint32_t>(core_router_.size());
            core_router_.push_back(r);
        }
    }
    // Every edge that leaves the core is a bridge; the core CSR drops them.
    for (const RouterId r : core_router_) {
        for (std::uint32_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
            const std::uint32_t k = core_number_[edges_[e].neighbor];
            if (k != kNotCore) core_edges_.push_back({k, edges_[e].link});
        }
        core_offsets_.push_back(static_cast<std::uint32_t>(core_edges_.size()));
    }
}

RouterId PathOracle::entry(RouterId r) const {
    require(r, offsets_.size() - 1, "entry:");
    if (root_parent_[r] == kInvalidRouter) return kInvalidRouter;
    while (core_number_[r] == kNotCore) r = root_parent_[r];
    return r;
}

void PathOracle::bind(Sweep& sweep) const {
    if (sweep.oracle_ == id_) return;
    sweep.oracle_ = 0;
    sweep.parent_.assign(offsets_.size() - 1, kInvalidRouter);
    sweep.via_.assign(offsets_.size() - 1, kInvalidLink);
    sweep.reached_.clear();
    sweep.entry_ = kInvalidRouter;
    sweep.core_parent_.assign(core_router_.size(), kInvalidRouter);
    sweep.core_via_.assign(core_router_.size(), kInvalidLink);
    sweep.core_reached_.clear();
    sweep.oracle_ = id_;
}

std::vector<PathView> PathOracle::paths_into(RouterId src,
                                             std::span<const RouterId> dsts,
                                             util::Arena& arena) const {
    Sweep sweep;
    return paths_into(src, dsts, arena, sweep);
}

std::vector<PathView> PathOracle::paths_into(RouterId src,
                                             std::span<const RouterId> dsts,
                                             util::Arena& arena,
                                             Sweep& sweep) const {
    const std::size_t n = offsets_.size() - 1;
    require(src, n, "paths_into: source");
    for (const RouterId dst : dsts) require(dst, n, "paths_into: destination");

    bind(sweep);
    const auto& parent = sweep.parent_;
    std::size_t queued =
        bfs(offsets_, edges_, src, sweep.parent_, sweep.via_, sweep.reached_,
            [this](RouterId r) { return core_number_[r] != kNotCore; });
    // The local sweep reaches the core at entry(src) alone, so the core
    // routers' FIFO order from src is the entry router's own.
    const RouterId entry_router = entry(src);
    const bool src_in_root = entry_router != kInvalidRouter;
    if (src_in_root && sweep.entry_ != entry_router) {
        sweep.entry_ = kInvalidRouter;
        queued += bfs(core_offsets_, core_edges_, core_number_[entry_router],
                      sweep.core_parent_, sweep.core_via_,
                      sweep.core_reached_, [](std::uint32_t) { return false; });
        sweep.entry_ = entry_router;
    }
    routers_expanded().add(static_cast<std::int64_t>(queued));

    // A router of another pendant part is reached through its part's
    // bridge alone, and inside that part every outside source sees the BFS
    // rooted at the bridge: the root BFS's tree there.  So a destination
    // is reached when the local sweep reached it, or when src shares the
    // core's connected component and the root BFS reached it.
    const auto up = [&](RouterId r) {
        if (parent[r] != kInvalidRouter) {
            return std::pair{parent[r], sweep.via_[r]};
        }
        const std::uint32_t k = core_number_[r];
        if (k != kNotCore) {
            return std::pair{core_router_[sweep.core_parent_[k]],
                             sweep.core_via_[k]};
        }
        return std::pair{root_parent_[r], root_via_[r]};
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
        // A path has fewer than n hops; a longer walk means the three
        // sweeps disagree, which would otherwise loop forever.
        std::size_t hops = 0;
        for (RouterId r = dst; r != src; r = up(r).first) {
            if (++hops >= n) {
                throw std::logic_error(
                    "PathOracle::paths_into: parents from router " +
                    std::to_string(dst) + " do not lead to source " +
                    std::to_string(src));
            }
        }
        const auto routers = arena.make_span<RouterId>(hops + 1);
        const auto links = arena.make_span<LinkId>(hops);
        routers[0] = src;
        std::size_t i = hops;
        for (RouterId r = dst; r != src; --i) {
            const auto [next, link] = up(r);
            routers[i] = r;
            links[i - 1] = link;
            r = next;
        }
        out.push_back(PathView{routers, links});
    }
    return out;
}

}  // namespace concilium::net
