// Soak: the chaos, recovery, and attack pipelines -- per-trial fault
// plans, retry/backoff and per-packet effects; journaled restarts, recovery
// handshakes, degraded-mode judgments and heal-time resync; campaign
// materialization, the Byzantine roles, proof filing and the defense
// counters -- must each be byte-reproducible at any worker count.  This is
// the in-process version of the nightly `soak --jobs 1` vs `--jobs 4`
// artifact comparison.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "net/chaos.h"
#include "runtime/attack.h"
#include "runtime/cluster.h"
#include "sim/experiment_driver.h"
#include "sim/scenario.h"
#include "util/metrics.h"

namespace concilium::sim {
namespace {

/// The deterministic half of the registry's JSON snapshot (everything
/// before the "timing" section).
std::string metrics_section() {
    const std::string json =
        util::metrics::Registry::global().snapshot().to_json();
    const auto cut = json.find("\"timing\"");
    return json.substr(0, cut);
}

using Stats = runtime::Cluster::Stats;

/// One miniature soak: a sweep over three intensity levels (0, 1, 2 times
/// the spec) on a small world of its own.
struct SoakCase {
    const char* name;
    std::uint64_t world_seed;
    std::uint64_t driver_seed;
    /// Exactly one of the two specs is set.
    const char* chaos;
    const char* attack;
    util::SimTime settle;
    /// The row's fields after "trial:delivered".
    std::string (*row)(const Stats&, std::size_t insufficient);
    /// Instruments the sweep must leave in the deterministic section.
    std::vector<std::string> present;
    /// Counters the sweep must leave nonzero.
    std::vector<std::string> nonzero;
};

std::string chaos_row(const Stats& s, std::size_t) {
    return ":" + std::to_string(s.forward_retransmissions) + ":" +
           std::to_string(s.churn_leaves);
}

std::string recovery_row(const Stats& s, std::size_t insufficient) {
    return ":" + std::to_string(insufficient) + ":" +
           std::to_string(s.restarts) + ":" +
           std::to_string(s.partition_heals) + ":" +
           std::to_string(s.stewardships_resumed + s.stewardships_abandoned);
}

std::string attack_row(const Stats& s, std::size_t) {
    return ":" + std::to_string(s.equivocations_published) + ":" +
           std::to_string(s.replays_published) + ":" +
           std::to_string(s.slanders_filed) + ":" +
           std::to_string(s.equivocation_proofs_filed) + ":" +
           std::to_string(s.revisions_rejected) + ":" +
           std::to_string(s.dht_puts_rejected);
}

/// Names the case in test listings (ctest shows .../chaos, not .../0).
void PrintTo(const SoakCase& c, std::ostream* os) { *os << c.name; }

const SoakCase kCases[] = {
    // The chaos.* and runtime.retry.* instruments and the backoff
    // histogram.
    {"chaos", 21, 17, "flap:0.02,churn:0.01,dup:0.05,reorder:0.05", nullptr,
     2 * util::kMinute, &chaos_row,
     {"chaos.plans_built", "runtime.retry.backoff_seconds"}, {}},
    // The recovery.* and partition.* instruments fed by journal replays,
    // handshakes, and heal-time resync.  Trials 1-2 carry nonzero crash
    // rates, so the crash counter must have fired.  The settle time runs
    // past the longest restart delay, so every handshake lands.
    {"recovery", 29, 23, "crash:0.05,partition:0.1", nullptr,
     5 * util::kMinute, &recovery_row,
     {"recovery.crashes", "partition.activations"}, {"recovery.crashes"}},
    // The attack.* recruitment and defense.* rejection counters.
    {"attack", 23, 19, nullptr,
     "equivocate:0.08,replay:0.08,slander:0.06,spam:0.04,collude:0.06",
     2 * util::kMinute, &attack_row,
     {"attack.nodes_recruited", "dht.puts"}, {}},
};

/// Per-trial fault plan or recruitment from the trial substream, a cluster,
/// a paced message workload, and a printable row.  Returns the
/// concatenated rows (merged in trial order by the driver).
std::string run_soak(const Scenario& world, const SoakCase& c,
                     std::size_t jobs) {
    const ExperimentDriver driver(c.driver_seed, jobs);
    std::string table;
    driver.run(
        3,
        [&](std::uint64_t trial, util::Rng& rng) {
            const auto level = static_cast<double>(trial);
            auto setup_rng = rng.fork();
            net::FaultPlan plan;
            std::vector<runtime::NodeBehavior> behaviors;
            runtime::RuntimeParams params;
            if (c.attack != nullptr) {
                behaviors = runtime::materialize_attackers(
                    runtime::AttackCampaign::parse(c.attack).scaled(level),
                    world.overlay_net().size(), setup_rng);
                if (trial == 0) behaviors.clear();
            } else {
                plan = net::build_fault_plan(
                    net::FaultSpec::parse(c.chaos).scaled(level),
                    world.params().duration,
                    world.trees().member_peer_paths(),
                    world.overlay_net().size(), setup_rng);
                params.forward_retry.max_attempts = 3;
            }

            net::EventSim sim;
            runtime::Cluster cluster(sim, world.timeline(),
                                     world.overlay_net(), world.trees(),
                                     params, behaviors, rng.fork());
            if (c.attack == nullptr) cluster.set_chaos(&plan);
            cluster.start();
            sim.run_until(3 * util::kMinute);

            std::size_t delivered = 0;
            std::size_t insufficient = 0;
            for (int i = 0; i < 10; ++i) {
                const auto from = static_cast<overlay::MemberIndex>(
                    rng.uniform_index(world.overlay_net().size()));
                cluster.send(from, util::NodeId::random(rng),
                             [&](const runtime::Cluster::MessageOutcome& o) {
                                 if (o.delivered) ++delivered;
                                 if (o.insufficient_evidence) ++insufficient;
                             });
                sim.run_until(sim.now() + 45 * util::kSecond);
            }
            sim.run_until(sim.now() + c.settle);

            return std::to_string(trial) + ":" + std::to_string(delivered) +
                   c.row(cluster.stats(), insufficient) + "\n";
        },
        [&](std::uint64_t, std::string&& row) { table += row; });
    return table;
}

class SoakDeterminism : public ::testing::TestWithParam<SoakCase> {};

TEST_P(SoakDeterminism, SoakIsByteIdenticalAcrossJobs) {
    const SoakCase& c = GetParam();
    // One shared world, as in the benches (scenario construction is
    // single-threaded and jobs-independent by design).
    ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 50;
    params.seed = c.world_seed;
    const Scenario world(params);

    auto& registry = util::metrics::Registry::global();

    registry.reset();
    const std::string table_seq = run_soak(world, c, 1);
    const std::string section_seq = metrics_section();

    registry.reset();
    const std::string table_par = run_soak(world, c, 4);
    const std::string section_par = metrics_section();

    // The printed table and every deterministic metric are byte-identical
    // at any worker count.
    EXPECT_EQ(table_seq, table_par);
    EXPECT_EQ(section_seq, section_par);
    EXPECT_NE(table_seq.find(':'), std::string::npos);
    for (const auto& name : c.present) {
        EXPECT_NE(section_seq.find("\"" + name + "\""), std::string::npos)
            << name;
    }
    // The soak exercised the machinery it claims to pin down.
    for (const auto& name : c.nonzero) {
        EXPECT_EQ(section_seq.find("\"" + name + "\": 0,"), std::string::npos)
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Families, SoakDeterminism,
                         ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace concilium::sim
