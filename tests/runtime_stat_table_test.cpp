// The stat table behind the checkpoint's stat section and the metrics each
// stat mirrors.  A renamed or reordered row would otherwise surface only as
// a failed cross-version checkpoint resume, so the names, their order and
// their mirrors are pinned here as they stood before the table existed.

#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

namespace concilium::runtime {
namespace {

struct Expected {
    const char* name;
    std::vector<std::string> mirrors;
};

const std::vector<Expected>& expected_rows() {
    static const std::vector<Expected> rows = {
        {"messages", {"runtime.messages_sent"}},
        {"delivered", {"runtime.messages_delivered"}},
        {"dropped_by_forwarder", {"runtime.messages_dropped_by_forwarder"}},
        {"dropped_by_network", {"runtime.messages_dropped_by_network"}},
        {"guilty_verdicts", {}},
        {"innocent_verdicts", {}},
        {"accusations_filed", {"runtime.accusations_filed"}},
        {"revisions_pushed", {"runtime.revisions_pushed"}},
        {"revisions_applied", {"runtime.revisions_applied"}},
        {"snapshots_published", {"runtime.snapshots_published"}},
        {"snapshots_rejected", {"runtime.snapshots_rejected"}},
        {"lightweight_rounds", {}},
        {"heavyweight_sessions", {}},
        {"commitments_issued", {"runtime.commitments_issued"}},
        {"commitments_refused", {"runtime.commitments_refused"}},
        {"reputation_votes", {}},
        {"advertisements_accepted", {}},
        {"advertisements_rejected", {}},
        {"forward_retransmissions", {"runtime.retry.forward_attempts"}},
        {"snapshot_retries", {"runtime.retry.snapshot_retries"}},
        {"snapshot_deliveries_failed", {"runtime.retry.snapshot_exhausted"}},
        {"duplicates_suppressed", {"chaos.duplicates_suppressed"}},
        {"churn_leaves", {"runtime.churn_leaves"}},
        {"churn_rejoins", {"runtime.churn_rejoins"}},
        {"crashes", {"recovery.crashes"}},
        {"restarts", {"recovery.restarts"}},
        {"journal_replays", {"recovery.journal_replays"}},
        {"recovery_announcements", {"recovery.announcements_sent"}},
        {"recovery_repairs_accepted", {"recovery.repairs_accepted"}},
        {"recovery_repairs_rejected", {"recovery.repairs_rejected"}},
        {"stewardships_resumed", {"recovery.stewardships_resumed"}},
        {"stewardships_abandoned", {"recovery.stewardships_abandoned"}},
        {"insufficient_verdicts", {"recovery.insufficient_evidence_verdicts"}},
        {"verdicts_retracted", {}},
        {"partition_activations", {"partition.activations"}},
        {"partition_heals", {"partition.heals"}},
        {"partition_blocked_packets",
         {"partition.messages_blocked", "partition.acks_blocked"}},
        {"resync_rounds", {"partition.resync_rounds"}},
        {"equivocations_published", {"attack.equivocations_published"}},
        {"replays_published", {"attack.replays_published"}},
        {"slanders_filed", {"attack.slanders_filed"}},
        {"spam_puts", {"attack.spam_puts"}},
        {"collusions_pushed", {"attack.collusions_pushed"}},
        {"snapshots_rejected_stale", {"defense.snapshots_rejected_stale"}},
        {"snapshots_rejected_epoch", {"defense.snapshots_rejected_epoch"}},
        {"equivocation_proofs_filed", {"defense.equivocation_proofs_filed"}},
        {"revisions_rejected", {"defense.revisions_rejected"}},
        {"dht_puts_rejected", {"defense.dht_puts_rejected"}},
    };
    return rows;
}

constexpr std::size_t kFields = sizeof(Cluster::Stats) / sizeof(std::size_t);

TEST(StatTable, EnumeratesEveryStatByCheckpointNameInDeclarationOrder) {
    // A known Stats: field i holds 1000 + i, so each row's value also pins
    // which field the row reads.
    std::array<std::size_t, kFields> values{};
    for (std::size_t i = 0; i < kFields; ++i) values[i] = 1000 + i;
    const auto stats = std::bit_cast<Cluster::Stats>(values);

    ASSERT_EQ(std::size(kStatTable), expected_rows().size());
    std::size_t i = 0;
    for (const StatRow& row : kStatTable) {
        EXPECT_EQ(std::string(row.name), expected_rows()[i].name) << i;
        EXPECT_EQ(stats.*row.field, 1000 + i) << row.name;
        ++i;
    }
}

TEST(StatTable, EachMirroredRowNamesTheMetricItMirrors) {
    std::size_t i = 0;
    for (const StatRow& row : kStatTable) {
        std::vector<std::string> mirrors;
        for (const char* mirror : row.mirrors) {
            if (mirror != nullptr) mirrors.emplace_back(mirror);
        }
        EXPECT_EQ(mirrors, expected_rows()[i].mirrors) << row.name;
        ++i;
    }
}

}  // namespace
}  // namespace concilium::runtime
