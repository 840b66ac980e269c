// Kernel unit costs, replayed on a workload's own world in the traced run.
//
// Each replay calls one public kernel on the trees, paths and keys of the
// world the workload just built, so a change to that kernel shows up as a
// unit cost even where the workload's own wall time hides it.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/blame.h"
#include "crypto/keys.h"
#include "net/event_sim.h"
#include "net/paths.h"
#include "perfbench.h"
#include "runtime/archive.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "tomography/verification.h"
#include "util/arena.h"
#include "util/serialize.h"

namespace perfbench {

namespace {

using namespace concilium;

/// Keeps replay results observable so the calls cannot be elided.
std::uint64_t g_sink = 0;  // NOLINT: written by replays only

template <typename T>
void keep(const T& value) {
    asm volatile("" : : "r"(&value) : "memory");
}

/// One self-rescheduling POD event chain: EventSim's hot dispatch path.
struct Chain {
    net::EventSim* sim = nullptr;
    net::EventSim::HandlerId handler = 0;
    std::uint64_t left = 0;

    static void hop(void* ctx, std::uint32_t, std::uint64_t, std::uint64_t) {
        auto* c = static_cast<Chain*>(ctx);
        if (c->left == 0) return;
        --c->left;
        c->sim->post_after(1, c->handler);
    }
};

double ns_per_dispatch() {
    constexpr std::uint64_t kEvents = 1'000'000;
    net::EventSim sim;
    Chain chain{&sim, 0, kEvents};
    chain.handler = sim.register_handler(&chain, &Chain::hop);
    sim.post_after(1, chain.handler);
    const auto t0 = Clock::now();
    sim.run_all();
    return seconds_since(t0) * 1e9 / static_cast<double>(kEvents + 1);
}

}  // namespace

Replays replay_kernels(const sim::Scenario& world, std::uint64_t seed) {
    Replays r;
    const auto& net = world.overlay_net();
    const auto& trees = world.trees();
    util::Rng rng(seed ^ 0x5eed'ba5eULL);
    const util::SimTime t = world.params().duration / 2;
    const auto pass = [&](net::LinkId l, util::SimTime at) {
        return world.timeline().is_up(l, at) ? 1.0 : 0.0;
    };

    // Members whose probe trees have leaves, sampled from the seed.
    std::vector<overlay::MemberIndex> members;
    for (const std::size_t i : rng.sample_indices(net.size(), net.size())) {
        const auto m = static_cast<overlay::MemberIndex>(i);
        if (!trees.tree(m).leaves().empty()) members.push_back(m);
        if (members.size() == 16) break;
    }
    if (members.empty()) throw std::runtime_error("no member has a tree");
    const double n_members = static_cast<double>(members.size());

    // net: per-source BFS into the member's routing peers.
    {
        const net::PathOracle oracle(world.topology());
        const std::size_t sources = std::min<std::size_t>(8, members.size());
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < sources; ++i) {
            const overlay::MemberIndex m = members[i];
            std::vector<net::RouterId> dsts;
            for (const overlay::MemberIndex p : net.routing_peers(m)) {
                dsts.push_back(net.member(p).ip());
            }
            util::Arena arena;
            keep(oracle.paths_into(net.member(m).ip(), dsts, arena));
        }
        r.bfs_ms_per_source =
            seconds_since(t0) * 1e3 / static_cast<double>(sources);
    }

    // tomography: stripes, lightweight rounds, verification, MLE, snapshots.
    {
        constexpr int kStripes = 200;
        const auto t0 = Clock::now();
        for (const overlay::MemberIndex m : members) {
            for (int i = 0; i < kStripes; ++i) {
                keep(tomography::sample_striped_probe(trees.tree(m), pass,
                                                      t, {}, rng));
            }
        }
        r.ns_per_stripe = seconds_since(t0) * 1e9 / (kStripes * n_members);
    }
    {
        constexpr int kRounds = 50;
        const auto t0 = Clock::now();
        for (const overlay::MemberIndex m : members) {
            for (int i = 0; i < kRounds; ++i) {
                keep(tomography::run_lightweight_probe(trees.tree(m), pass,
                                                       t, 2, {}, rng));
            }
        }
        r.us_per_lightweight =
            seconds_since(t0) * 1e6 / (kRounds * n_members);
    }

    crypto::KeyRegistry registry;
    for (const overlay::MemberIndex m : members) {
        registry.register_key(net.member(m).keys);
    }
    constexpr int kReps = 5;
    double verification_s = 0.0;
    double mle_s = 0.0;
    double snapshot_s = 0.0;
    std::vector<tomography::TomographicSnapshot> snapshots;
    for (const overlay::MemberIndex m : members) {
        const auto& tree = trees.tree(m);
        tomography::HeavyweightParams hw;
        hw.probe_count = 100;
        const auto session =
            tomography::run_heavyweight_session(tree, pass, t, hw, {}, rng);
        const tomography::SuppressionTestParams suppression;
        auto t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) {
            const auto fabricators = tomography::detect_fabricators(
                tree.leaves().size(), session.probes);
            const auto suppressors =
                tomography::detect_suppressors(tree, session.probes,
                                               suppression);
            std::vector<bool> excluded(tree.leaves().size(), false);
            for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
                excluded[leaf] = fabricators[leaf] || suppressors[leaf];
            }
            keep(tomography::exclude_leaves(session.probes, excluded));
        }
        verification_s += seconds_since(t0);

        t0 = Clock::now();
        std::optional<tomography::InferenceResult> inference;
        for (int i = 0; i < kReps; ++i) {
            inference = tomography::infer_link_loss(tree, session.probes);
        }
        mle_s += seconds_since(t0);

        const auto& member = net.member(m);
        t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) {
            auto snap = tomography::make_snapshot(
                member.id(), member.keys, t, tree, *inference,
                tomography::SnapshotParams{}, trees.leaf_ids(m));
            if (!tomography::verify_snapshot(snap, member.keys.public_key(),
                                             registry)) {
                throw std::runtime_error("replayed snapshot fails to verify");
            }
            util::ByteWriter w;
            tomography::write_snapshot_wire(w, snap);
            util::ByteReader reader(w.data());
            g_sink += tomography::read_snapshot_wire(reader).links.size();
            if (i == 0) snapshots.push_back(std::move(snap));
        }
        snapshot_s += seconds_since(t0);
    }
    r.us_per_verification = verification_s * 1e6 / (kReps * n_members);
    r.us_per_mle = mle_s * 1e6 / (kReps * n_members);
    r.us_per_snapshot = snapshot_s * 1e6 / (kReps * n_members);

    // runtime: archive admission, then the equivocation digest scan --
    // digest_of for every routing peer of one member, as detect_equivocation
    // does for each received snapshot.
    {
        constexpr std::uint64_t kEpochs = 32;
        std::vector<tomography::TomographicSnapshot> feed;
        for (std::uint64_t e = 1; e <= kEpochs; ++e) {
            for (const auto& base : snapshots) {
                auto s = base;
                s.epoch = e;
                s.probed_at = t + static_cast<util::SimTime>(e) * util::kSecond;
                feed.push_back(std::move(s));
            }
        }
        util::DigestInterner interner;
        std::vector<util::DigestInterner::Id> ids;
        for (const auto& s : feed) {
            const auto payload = s.signed_payload();
            ids.push_back(interner.intern(
                util::digest_bytes({payload.data(), payload.size()})));
        }
        runtime::SnapshotArchive archive;
        const util::SimTime now = t + static_cast<util::SimTime>(kEpochs) *
                                          util::kSecond;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < feed.size(); ++i) {
            g_sink += static_cast<std::uint64_t>(
                archive.add(std::move(feed[i]), now, ids[i]));
        }
        r.ns_per_archive_add =
            seconds_since(t0) * 1e9 / static_cast<double>(ids.size());
    }
    {
        const overlay::MemberIndex holder = members.front();
        const auto& peers = net.routing_peers(holder);
        runtime::SnapshotArchive archive;
        constexpr std::uint64_t kEpoch = 7;
        for (std::size_t i = 0; i < peers.size(); ++i) {
            tomography::TomographicSnapshot s;
            s.origin = net.member(peers[i]).id();
            s.epoch = kEpoch;
            s.probed_at = t;
            archive.add(std::move(s), t,
                        static_cast<util::DigestInterner::Id>(i));
        }
        constexpr int kScans = 2000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kScans; ++i) {
            for (const overlay::MemberIndex p : peers) {
                g_sink += archive.digest_of(net.member(p).id(), kEpoch);
            }
        }
        r.ns_per_digest_lookup =
            seconds_since(t0) * 1e9 /
            (kScans * static_cast<double>(std::max<std::size_t>(
                          peers.size(), 1)));
    }

    r.ns_per_dispatch = ns_per_dispatch();

    // core: Equations 2-3 on gathered evidence for sampled judgments.
    {
        constexpr int kJudgments = 64;
        constexpr int kBlameReps = 20;
        const core::BlameParams params = world.params().blame;
        double blame_s = 0.0;
        int judged = 0;
        for (int q = 0; q < kJudgments; ++q) {
            const auto triple = world.sample_triple(rng);
            if (!triple.has_value()) continue;
            const auto path = world.path_links(triple->b, triple->c);
            const auto probes = world.gather_probes(
                triple->a, path, t, sim::Scenario::CollusionStance::kNone,
                static_cast<std::uint64_t>(q), /*reporter_cap=*/8);
            const auto t0 = Clock::now();
            for (int i = 0; i < kBlameReps; ++i) {
                g_sink += core::compute_blame(path, probes, t,
                                              net.member(triple->b).id(),
                                              params)
                              .links.size();
            }
            blame_s += seconds_since(t0);
            ++judged;
        }
        r.us_per_blame =
            judged == 0 ? 0.0 : blame_s * 1e6 / (kBlameReps * judged);
    }
    keep(g_sink);
    return r;
}

}  // namespace perfbench
