#include "runtime/archive.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "crypto/keys.h"

namespace concilium::runtime {
namespace {

using util::kMinute;
using util::kSecond;

tomography::TomographicSnapshot snap(const util::NodeId& origin,
                                     util::SimTime at,
                                     std::vector<std::pair<net::LinkId, bool>>
                                         links) {
    tomography::TomographicSnapshot s;
    s.origin = origin;
    s.probed_at = at;
    for (const auto& [l, up] : links) {
        s.links.push_back(tomography::LinkObservation{l, up});
    }
    return s;
}

const util::NodeId kAlice = util::NodeId::from_hex("0a");
const util::NodeId kBob = util::NodeId::from_hex("0b");

TEST(SnapshotArchive, StoresAndCounts) {
    SnapshotArchive archive;
    EXPECT_EQ(archive.size(), 0u);
    archive.add(snap(kAlice, 10 * kSecond, {{1, true}}), 10 * kSecond);
    archive.add(snap(kAlice, 20 * kSecond, {{1, false}}), 20 * kSecond);
    archive.add(snap(kBob, 15 * kSecond, {{2, true}}), 20 * kSecond);
    EXPECT_EQ(archive.size(), 3u);
    EXPECT_EQ(archive.snapshots_from(kAlice).size(), 2u);
    EXPECT_EQ(archive.snapshots_from(kBob).size(), 1u);
    EXPECT_TRUE(archive.snapshots_from(util::NodeId::from_hex("0c")).empty());
}

TEST(SnapshotArchive, PrunesOldSnapshots) {
    SnapshotArchive archive(/*retention=*/2 * kMinute);
    archive.add(snap(kAlice, 0, {{1, true}}), 0);
    archive.add(snap(kAlice, 1 * kMinute, {{1, true}}), 1 * kMinute);
    EXPECT_EQ(archive.size(), 2u);
    // Inserting at t=3min prunes the t=0 snapshot (older than 2 min).
    archive.add(snap(kBob, 3 * kMinute, {{2, true}}), 3 * kMinute);
    EXPECT_EQ(archive.size(), 2u);
    EXPECT_EQ(archive.snapshots_from(kAlice).size(), 1u);
}

TEST(SnapshotArchive, ProbesForFiltersByLinkWindowAndOrigin) {
    SnapshotArchive archive;
    archive.add(snap(kAlice, 100 * kSecond, {{1, true}, {9, false}}),
                100 * kSecond);
    archive.add(snap(kBob, 100 * kSecond, {{1, false}}), 100 * kSecond);
    archive.add(snap(kAlice, 300 * kSecond, {{1, true}}), 300 * kSecond);

    const std::vector<net::LinkId> links{1};
    // Window around t=100s: both snapshots at 100s qualify; link 9 excluded.
    auto probes = archive.probes_for(links, 110 * kSecond, 60 * kSecond,
                                     util::NodeId::from_hex("ff"));
    ASSERT_EQ(probes.size(), 2u);
    for (const auto& p : probes) EXPECT_EQ(p.link, 1u);

    // Excluding Bob removes its probe.
    probes = archive.probes_for(links, 110 * kSecond, 60 * kSecond, kBob);
    ASSERT_EQ(probes.size(), 1u);
    EXPECT_EQ(probes[0].reporter, kAlice);
    EXPECT_TRUE(probes[0].link_up);

    // A tight window around t=300s sees only the late snapshot.
    probes = archive.probes_for(links, 300 * kSecond, 10 * kSecond,
                                util::NodeId::from_hex("ff"));
    EXPECT_EQ(probes.size(), 1u);
}

TEST(SnapshotArchive, EvidenceForReturnsWholeTouchingSnapshots) {
    SnapshotArchive archive;
    archive.add(snap(kAlice, 100 * kSecond, {{1, true}, {9, false}}),
                100 * kSecond);
    archive.add(snap(kBob, 100 * kSecond, {{7, true}}), 100 * kSecond);
    const std::vector<net::LinkId> links{1, 2};
    const auto evidence = archive.evidence_for(
        links, 100 * kSecond, 60 * kSecond, util::NodeId::from_hex("ff"));
    ASSERT_EQ(evidence.size(), 1u);  // Bob's snapshot touches no path link
    EXPECT_EQ(evidence[0].origin, kAlice);
    EXPECT_EQ(evidence[0].links.size(), 2u);  // the whole snapshot, signed
}

tomography::TomographicSnapshot vsnap(const util::NodeId& origin,
                                      std::uint64_t epoch, util::SimTime at,
                                      bool link_up = true) {
    auto s = snap(origin, at, {{1, link_up}});
    s.epoch = epoch;
    return s;
}

TEST(SnapshotArchive, RejectsStaleDelivery) {
    SnapshotArchive archive(/*retention=*/10 * kMinute,
                            /*max_transit=*/kMinute);
    // Delivered two minutes after it was probed: an honest snapshot rides
    // the next advertisement; one this old is a replay in transit.
    EXPECT_EQ(archive.add(snap(kAlice, 0, {{1, true}}), 2 * kMinute),
              ArchiveAdd::kRejectedStale);
    EXPECT_EQ(archive.size(), 0u);
    EXPECT_EQ(archive.add(snap(kAlice, 90 * kSecond, {{1, true}}),
                          2 * kMinute),
              ArchiveAdd::kArchived);
}

TEST(SnapshotArchive, RejectsEpochReplay) {
    SnapshotArchive archive;
    EXPECT_EQ(archive.add(vsnap(kAlice, 2, 10 * kSecond), 10 * kSecond),
              ArchiveAdd::kArchived);
    // The same epoch again, and an older one, are replays.
    EXPECT_EQ(archive.add(vsnap(kAlice, 2, 20 * kSecond), 20 * kSecond),
              ArchiveAdd::kRejectedEpoch);
    EXPECT_EQ(archive.add(vsnap(kAlice, 1, 20 * kSecond), 20 * kSecond),
              ArchiveAdd::kRejectedEpoch);
    // The epoch floor is per origin, and advancing epochs are accepted.
    EXPECT_EQ(archive.add(vsnap(kBob, 1, 20 * kSecond), 20 * kSecond),
              ArchiveAdd::kArchived);
    EXPECT_EQ(archive.add(vsnap(kAlice, 3, 30 * kSecond), 30 * kSecond),
              ArchiveAdd::kArchived);
    EXPECT_EQ(archive.size(), 3u);
}

TEST(SnapshotArchive, FindLocatesByOriginAndEpoch) {
    SnapshotArchive archive;
    archive.add(vsnap(kAlice, 1, 10 * kSecond, true), 10 * kSecond);
    archive.add(vsnap(kAlice, 2, 20 * kSecond, false), 20 * kSecond);
    const auto* found = archive.find(kAlice, 2);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->epoch, 2u);
    EXPECT_FALSE(found->links[0].up);
    EXPECT_EQ(archive.find(kAlice, 9), nullptr);
    EXPECT_EQ(archive.find(kBob, 1), nullptr);
    // Epoch 0 carries no uniqueness promise, so it is never findable.
    archive.add(snap(kBob, 20 * kSecond, {{1, true}}), 20 * kSecond);
    EXPECT_EQ(archive.find(kBob, 0), nullptr);
}

// A cap-4 archive with a two-minute retention, fed for 18 steps 15 s apart
// (t = 15 s .. 270 s): Alice publishes epoch i at every step i, Bob epoch
// i / 3 at every third.  Digest ids are 100 + epoch for Alice and 200 +
// epoch for Bob.  Alice's ring is cut by the cap, Bob's by the throttled
// prune that each of Alice's adds runs; both wrap around their buffers.
// Left behind: Alice's epochs 15-18 (t = 225 s .. 270 s) and Bob's 4-6
// (t = 180 s, 225 s, 270 s).
SnapshotArchive wrapped_archive() {
    SnapshotArchive archive(/*retention=*/2 * kMinute, /*max_transit=*/kMinute,
                            /*max_per_origin=*/4);
    for (std::uint64_t i = 1; i <= 18; ++i) {
        const auto at = static_cast<util::SimTime>(i) * 15 * kSecond;
        auto alice = snap(kAlice, at, {{1, i % 2 == 1}});
        alice.epoch = i;
        EXPECT_EQ(archive.add(std::move(alice), at,
                              static_cast<SnapshotArchive::DigestId>(100 + i)),
                  ArchiveAdd::kArchived);
        if (i % 3 != 0) continue;
        auto bob = snap(kBob, at, {{2, true}});
        bob.epoch = i / 3;
        EXPECT_EQ(archive.add(std::move(bob), at,
                              static_cast<SnapshotArchive::DigestId>(
                                  200 + i / 3)),
                  ArchiveAdd::kArchived);
    }
    return archive;
}

std::vector<std::uint64_t> epochs_of(
    const std::vector<const tomography::TomographicSnapshot*>& snaps) {
    std::vector<std::uint64_t> out;
    for (const auto* s : snaps) out.push_back(s->epoch);
    return out;
}

TEST(SnapshotArchive, PerOriginCapKeepsNewest) {
    SnapshotArchive archive(/*retention=*/10 * kMinute,
                            /*max_transit=*/kMinute, /*max_per_origin=*/3);
    for (std::uint64_t e = 1; e <= 5; ++e) {
        const auto at = static_cast<util::SimTime>(e) * 10 * kSecond;
        EXPECT_EQ(archive.add(vsnap(kAlice, e, at), at),
                  ArchiveAdd::kArchived);
    }
    EXPECT_EQ(archive.size(), 3u);
    const auto kept = archive.snapshots_from(kAlice);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept.front()->epoch, 3u);  // oldest two evicted
    EXPECT_EQ(kept.back()->epoch, 5u);
    // The evicted epochs stay on the replay floor: a hostile origin cannot
    // flush the archive to relive its past.
    EXPECT_EQ(archive.add(vsnap(kAlice, 2, 60 * kSecond), 60 * kSecond),
              ArchiveAdd::kRejectedEpoch);

    // Across ring wrap-around, every query still reads oldest first.
    const SnapshotArchive wrapped = wrapped_archive();
    EXPECT_EQ(wrapped.size(), 7u);
    EXPECT_EQ(epochs_of(wrapped.snapshots_from(kAlice)),
              (std::vector<std::uint64_t>{15, 16, 17, 18}));
    EXPECT_EQ(epochs_of(wrapped.snapshots_from(kBob)),
              (std::vector<std::uint64_t>{4, 5, 6}));
    for (std::uint64_t e = 1; e <= 18; ++e) {
        const auto* found = wrapped.find(kAlice, e);
        const SnapshotArchive::DigestId digest = wrapped.digest_of(kAlice, e);
        if (e < 15) {  // evicted by the cap
            EXPECT_EQ(found, nullptr) << e;
            EXPECT_EQ(digest, util::DigestInterner::kInvalidId) << e;
            continue;
        }
        ASSERT_NE(found, nullptr) << e;
        EXPECT_EQ(found->epoch, e);
        EXPECT_EQ(found->links[0].up, e % 2 == 1);
        EXPECT_EQ(digest, 100 + e);
    }
    for (std::uint64_t e = 1; e <= 6; ++e) {  // 1-3 were pruned by age
        EXPECT_EQ(wrapped.find(kBob, e) != nullptr, e >= 4) << e;
        EXPECT_EQ(wrapped.digest_of(kBob, e),
                  e >= 4 ? 200 + e : util::DigestInterner::kInvalidId)
            << e;
    }
}

TEST(SnapshotArchive, QueriesEnforceRetentionHorizon) {
    SnapshotArchive archive(/*retention=*/2 * kMinute);
    archive.add(snap(kAlice, 100 * kSecond, {{1, true}}), 100 * kSecond);
    archive.add(snap(kBob, 200 * kSecond, {{1, false}}), 200 * kSecond);
    ASSERT_EQ(archive.size(), 2u);

    // A query anchored at t=300s with a five-minute delta would admit both
    // snapshots by the window alone; the retention horizon (t - 2min = 180s)
    // must still exclude the older one even though it was never pruned.
    const std::vector<net::LinkId> links{1};
    const auto exclude = util::NodeId::from_hex("ff");
    const auto probes =
        archive.probes_for(links, 300 * kSecond, 300 * kSecond, exclude);
    ASSERT_EQ(probes.size(), 1u);
    EXPECT_EQ(probes[0].reporter, kBob);

    const auto evidence =
        archive.evidence_for(links, 300 * kSecond, 300 * kSecond, exclude);
    ASSERT_EQ(evidence.size(), 1u);
    EXPECT_EQ(evidence[0].origin, kBob);

    // The same across ring wrap-around.  At t = 310 s the horizon is 190 s,
    // which excludes Bob's epoch 4 (180 s); origins answer in first-
    // admission order, each oldest first.
    const SnapshotArchive wrapped = wrapped_archive();
    const std::vector<net::LinkId> both{1, 2};
    const auto wrapped_probes =
        wrapped.probes_for(both, 310 * kSecond, 300 * kSecond, exclude);
    std::vector<std::pair<util::NodeId, util::SimTime>> seen;
    for (const auto& p : wrapped_probes) seen.emplace_back(p.reporter, p.at);
    EXPECT_EQ(seen,
              (std::vector<std::pair<util::NodeId, util::SimTime>>{
                  {kAlice, 225 * kSecond},
                  {kAlice, 240 * kSecond},
                  {kAlice, 255 * kSecond},
                  {kAlice, 270 * kSecond},
                  {kBob, 225 * kSecond},
                  {kBob, 270 * kSecond}}));
    std::vector<std::pair<util::NodeId, std::uint64_t>> bundle;
    for (const auto& s :
         wrapped.evidence_for(both, 310 * kSecond, 300 * kSecond, exclude)) {
        bundle.emplace_back(s.origin, s.epoch);
    }
    EXPECT_EQ(bundle, (std::vector<std::pair<util::NodeId, std::uint64_t>>{
                          {kAlice, 15},
                          {kAlice, 16},
                          {kAlice, 17},
                          {kAlice, 18},
                          {kBob, 5},
                          {kBob, 6}}));
}

TEST(SnapshotArchive, MemberIndexedAndNodeIdAddsShareOneTable) {
    const auto shared = [](tomography::TomographicSnapshot s) {
        return std::make_shared<const tomography::TomographicSnapshot>(
            std::move(s));
    };
    SnapshotArchive archive;
    // A NodeId add opens Alice's table; a member-indexed add reaches it
    // (the same replay floor) and appends to it.
    ASSERT_EQ(archive.add(vsnap(kAlice, 1, 10 * kSecond), 10 * kSecond),
              ArchiveAdd::kArchived);
    EXPECT_EQ(archive.add(shared(vsnap(kAlice, 1, 20 * kSecond)), 7,
                          20 * kSecond, 41),
              ArchiveAdd::kRejectedEpoch);
    EXPECT_EQ(archive.add(shared(vsnap(kAlice, 2, 20 * kSecond)), 7,
                          20 * kSecond, 42),
              ArchiveAdd::kArchived);
    // And the other way round for Bob.
    ASSERT_EQ(archive.add(shared(vsnap(kBob, 5, 20 * kSecond)), 3,
                          20 * kSecond, 43),
              ArchiveAdd::kArchived);
    EXPECT_EQ(archive.add(vsnap(kBob, 5, 30 * kSecond), 30 * kSecond),
              ArchiveAdd::kRejectedEpoch);
    EXPECT_EQ(archive.add(vsnap(kBob, 6, 30 * kSecond), 30 * kSecond, 44),
              ArchiveAdd::kArchived);
    EXPECT_EQ(archive.add(shared(vsnap(kBob, 6, 30 * kSecond)), 3,
                          30 * kSecond, 45),
              ArchiveAdd::kRejectedEpoch);

    EXPECT_EQ(archive.size(), 4u);
    EXPECT_EQ(epochs_of(archive.snapshots_from(kAlice)),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(epochs_of(archive.snapshots_from(kBob)),
              (std::vector<std::uint64_t>{5, 6}));
    EXPECT_EQ(archive.digest_of(kAlice, 2), 42u);
    EXPECT_EQ(archive.digest_of(kBob, 5), 43u);
    EXPECT_EQ(archive.digest_of(kBob, 6), 44u);
}

TEST(SnapshotArchive, ReceiversShareOneSnapshot) {
    auto first = snap(kAlice, 10 * kSecond, {{1, true}});
    first.epoch = 1;
    const auto shared =
        std::make_shared<const tomography::TomographicSnapshot>(first);
    // One receiver evicts by the per-origin cap, the other by retention.
    SnapshotArchive capped(10 * kMinute, kMinute, /*max_per_origin=*/1);
    SnapshotArchive pruned(/*retention=*/2 * kMinute);
    ASSERT_EQ(capped.add(shared, 10 * kSecond), ArchiveAdd::kArchived);
    ASSERT_EQ(pruned.add(shared, 10 * kSecond), ArchiveAdd::kArchived);
    EXPECT_EQ(capped.find(kAlice, 1), shared.get());
    EXPECT_EQ(pruned.find(kAlice, 1), shared.get());
    EXPECT_EQ(shared.use_count(), 3);

    auto second = snap(kAlice, 20 * kSecond, {{1, false}});
    second.epoch = 2;
    ASSERT_EQ(capped.add(second, 20 * kSecond), ArchiveAdd::kArchived);
    EXPECT_EQ(capped.find(kAlice, 1), nullptr);
    EXPECT_EQ(shared.use_count(), 2);

    pruned.add(snap(kBob, 3 * kMinute, {{2, true}}), 3 * kMinute);
    EXPECT_EQ(pruned.find(kAlice, 1), nullptr);
    EXPECT_EQ(shared.use_count(), 1);
}

}  // namespace
}  // namespace concilium::runtime
