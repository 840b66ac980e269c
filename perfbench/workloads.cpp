// The three perfbench workloads.
//
//   protocol_e2e  runtime_e2e's world and streams at default size on one
//                 worker: probing dominates the full protocol.
//   scan_world    the bench_scale --full slice on up to four workers: the
//                 full-SCAN world build dominates, no event loop runs.
//   daemon_day    one simulated day of the conciliumd engine on a generated
//                 trace with four attackers: the runtime layers under churn,
//                 crashes, checkpoints and evidence attacks.
//
// Each iteration builds one world from the seed alone (set-up), drives it,
// and audits it.  The result text is what the determinism and cross-worker
// checks compare; timings never enter it.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "core/blame.h"
#include "core/trace.h"
#include "daemon/checkpoint.h"
#include "daemon/daemon.h"
#include "net/topology_gen.h"
#include "perfbench.h"
#include "runtime/cluster.h"
#include "sim/experiment_driver.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/tree.h"

namespace perfbench {

namespace {

using namespace concilium;

void append(std::string& out, const char* fmt, auto... args) {
    char buf[192];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
}

/// Verifies every accusation stored in the cluster's DHT.
struct AuditResult {
    std::size_t accusations = 0;
    std::size_t verified = 0;
    double seconds = 0.0;
};

AuditResult audit_accusations(const runtime::Cluster& cluster,
                              std::size_t members) {
    AuditResult out;
    const auto t0 = Clock::now();
    for (overlay::MemberIndex m = 0; m < members; ++m) {
        for (const auto& acc : cluster.accusations_against(m)) {
            ++out.accusations;
            if (cluster.verify(acc) == core::AccusationCheck::kOk) {
                ++out.verified;
            }
        }
    }
    out.seconds = seconds_since(t0);
    return out;
}

/// Every accusation in the DHT verifies, except forgeries the attack
/// campaign planted.  (The per-writer DHT quota may keep some honest
/// filings out of the DHT, so fewer can be stored than were filed.)
Check accusation_check(const AuditResult& audit,
                       const runtime::Cluster::Stats& stats) {
    const std::size_t rejected = audit.accusations - audit.verified;
    return {"accusations_verify",
            rejected <= stats.slanders_filed &&
                audit.verified <= stats.accusations_filed,
            std::to_string(audit.verified) + "/" +
                std::to_string(audit.accusations) +
                " DHT accusations pass Cluster::verify (" +
                std::to_string(stats.accusations_filed) +
                " filed honestly, " + std::to_string(stats.slanders_filed) +
                " forged)"};
}

void add_stats(ClusterTotals& t, const runtime::Cluster::Stats& s) {
    t.snapshots_published += s.snapshots_published;
    t.snapshots_rejected += s.snapshots_rejected +
                            s.snapshots_rejected_stale +
                            s.snapshots_rejected_epoch;
}

/// The lifecycle of the workloads whose world is a sim::Scenario: set-up is
/// the Scenario constructor, then drive() runs on the world.  Subclasses
/// give only the world's parameters and the drive phase.
class ScenarioWorkload : public Workload {
  public:
    explicit ScenarioWorkload(std::uint64_t seed) : base_seed_(seed) {}

    Iteration run(std::size_t jobs, std::size_t index) override {
        world_.reset();
        seed_ = world_seed(base_seed_, index);
        Iteration it;
        const auto t0 = Clock::now();
        world_ = std::make_unique<sim::Scenario>(params(seed_));
        it.setup_s = seconds_since(t0);
        drive(jobs, it);
        it.wall_s = seconds_since(t0);
        return it;
    }

    double setup_only(std::size_t index) override {
        const auto t0 = Clock::now();
        const sim::Scenario world(params(world_seed(base_seed_, index)));
        return seconds_since(t0);
    }

    std::string redrive(std::size_t jobs) override {
        Iteration it;
        drive(jobs, it);
        return it.result_text;
    }

    const sim::Scenario& world() override { return *world_; }

  protected:
    [[nodiscard]] virtual sim::ScenarioParams params(
        std::uint64_t seed) const = 0;
    /// Drives and audits world_, filling everything but setup_s and wall_s.
    virtual void drive(std::size_t jobs, Iteration& it) const = 0;

    std::uint64_t seed_ = 0;  ///< the current world's
    std::unique_ptr<sim::Scenario> world_;

  private:
    std::uint64_t base_seed_;
};

// ---------------------------------------------------------------------------
// protocol_e2e

/// Ground-truth scoring of completed messages (runtime_e2e's rules, plus
/// the honest-node test behind false accusations).
struct Tally {
    std::size_t sent = 0;
    std::size_t delivered = 0;
    std::size_t correct_forwarder = 0;
    std::size_t wrong_forwarder = 0;
    std::size_t correct_network = 0;
    std::size_t wrong_network = 0;
    std::size_t undiagnosed = 0;
    std::size_t false_accusations = 0;

    [[nodiscard]] std::size_t completed() const {
        return delivered + correct_forwarder + wrong_forwarder +
               correct_network + wrong_network + undiagnosed;
    }

    [[nodiscard]] Quality quality() const {
        Quality q;
        q.messages = sent;
        q.wrong = sent - delivered - correct_forwarder - correct_network;
        q.diagnosed = completed() - delivered;
        q.false_accusations = false_accusations;
        return q;
    }
};

struct PhaseOut {
    std::string block;
    Tally tally;
    ClusterTotals clusters;
    AuditResult audit;
    Check check{"accusations_verify", true, "no cluster ran"};
    double drive_s = 0.0;
    double start_s = 0.0;
    double sim_seconds = 0.0;
};

class ProtocolE2e final : public ScenarioWorkload {
  public:
    using ScenarioWorkload::ScenarioWorkload;

    [[nodiscard]] std::size_t jobs() const override { return 1; }
    [[nodiscard]] std::size_t check_jobs() const override { return 4; }
    [[nodiscard]] std::size_t span_capacity() const override {
        return std::size_t{1} << 19;
    }

  private:
    [[nodiscard]] sim::ScenarioParams params(
        std::uint64_t seed) const override {
        sim::ScenarioParams p;
        p.topology = net::small_params();
        p.topology.end_hosts = 600;
        p.topology.stub_domains = 16;
        p.overlay_nodes_override = 90;
        p.duration = 2 * util::kHour;
        p.seed = seed;
        return p;
    }

    void drive(std::size_t jobs, Iteration& it) const override {
        const sim::Scenario& world = *world_;
        const auto& net = world.overlay_net();
        constexpr double kDropperFraction = 0.10;
        constexpr std::size_t kMessages = 250;
        constexpr int kTargeted = 60;

        const sim::ExperimentDriver driver(seed_ + 71, jobs);
        auto setup = driver.setup_rng();
        std::vector<runtime::NodeBehavior> behaviors(net.size());
        const auto droppers = setup.sample_indices(
            behaviors.size(),
            static_cast<std::size_t>(kDropperFraction * behaviors.size()));
        for (const auto d : droppers) {
            behaviors[d].drop_forward_probability = 0.5;
        }
        std::unordered_map<util::NodeId, overlay::MemberIndex,
                           util::NodeIdHash>
            member_of;
        for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
            member_of.emplace(net.member(m).id(), m);
        }

        // Scores one outcome; `bs` says who may be blamed fairly.
        const auto score = [&](Tally& t,
                               const std::vector<runtime::NodeBehavior>& bs,
                               const runtime::Cluster::MessageOutcome& res) {
            if (res.delivered) {
                ++t.delivered;
                return;
            }
            if (res.blamed.has_value()) {
                const auto who = member_of.find(*res.blamed);
                if (who != member_of.end() &&
                    bs[who->second].drop_forward_probability == 0.0) {
                    ++t.false_accusations;
                }
            }
            if (res.true_drop_hop.has_value()) {
                const auto& culprit =
                    net.member(res.route[*res.true_drop_hop]).id();
                if (res.blamed == culprit) {
                    ++t.correct_forwarder;
                } else {
                    ++t.wrong_forwarder;
                }
            } else if (res.true_network_drop) {
                if (res.network_blamed) {
                    ++t.correct_network;
                } else {
                    ++t.wrong_network;
                }
            } else {
                ++t.undiagnosed;
            }
        };

        // Trial 0: a targeted stream through one deterministic dropper.
        const auto targeted_phase = [&](util::Rng& rng) {
            PhaseOut out;
            const auto t0 = Clock::now();
            std::vector<overlay::MemberIndex> hops;
            overlay::MemberIndex from = 0;
            util::NodeId key;
            for (int attempt = 0; attempt < 50000 && hops.size() < 4;
                 ++attempt) {
                from = static_cast<overlay::MemberIndex>(
                    rng.uniform_index(net.size()));
                key = util::NodeId::random(rng);
                try {
                    hops = net.route(from, key);
                } catch (const std::exception&) {
                    hops.clear();
                }
            }
            if (hops.size() < 4) {
                out.drive_s = seconds_since(t0);
                return out;
            }
            const overlay::MemberIndex dropper = hops[2];
            auto targeted_behaviors = behaviors;
            targeted_behaviors[dropper].drop_forward_probability = 1.0;
            core::DiagnosisTrace trace(256);
            net::EventSim sim;
            runtime::Cluster cluster(sim, world.timeline(), net,
                                     world.trees(), runtime::RuntimeParams{},
                                     targeted_behaviors, rng.fork());
            cluster.set_trace(&trace);
            const auto ts = Clock::now();
            cluster.start();
            out.start_s = seconds_since(ts);
            sim.run_until(3 * util::kMinute);
            for (int i = 0; i < kTargeted; ++i) {
                ++out.tally.sent;
                cluster.send(from, key,
                             [&](const runtime::Cluster::MessageOutcome& r) {
                                 score(out.tally, targeted_behaviors, r);
                             });
                sim.run_until(sim.now() + 90 * util::kSecond);
            }
            sim.run_until(sim.now() + 3 * util::kMinute);
            out.sim_seconds = static_cast<double>(sim.now()) / util::kSecond;
            out.drive_s = seconds_since(t0);
            out.audit = audit_accusations(cluster, net.size());
            out.check = accusation_check(out.audit, cluster.stats());
            add_stats(out.clusters, cluster.stats());
            const Tally& t = out.tally;
            append(out.block, "%-28s %zu / %zu\n",
                   "targeted dropper diagnosed", t.correct_forwarder,
                   t.correct_forwarder + t.wrong_forwarder);
            append(out.block, "%-28s %zu / %zu (delivered %zu)\n",
                   "targeted network drops", t.correct_network,
                   t.correct_network + t.wrong_network, t.delivered);
            append(out.block, "%-28s %zu (verified %zu, against dropper %zu)\n",
                   "targeted accusations", out.audit.accusations,
                   out.audit.verified,
                   cluster.accusations_against(dropper).size());
            return out;
        };

        // Trial 1: the background workload plus the DHT audit.
        const auto workload_phase = [&](util::Rng& rng) {
            PhaseOut out;
            const auto t0 = Clock::now();
            core::DiagnosisTrace trace(512);
            net::EventSim sim;
            runtime::Cluster cluster(sim, world.timeline(), net,
                                     world.trees(), runtime::RuntimeParams{},
                                     behaviors, rng.fork());
            cluster.set_trace(&trace);
            const auto ts = Clock::now();
            cluster.start();
            out.start_s = seconds_since(ts);
            sim.run_until(3 * util::kMinute);
            for (std::size_t i = 0; i < kMessages; ++i) {
                const auto from = static_cast<overlay::MemberIndex>(
                    rng.uniform_index(net.size()));
                ++out.tally.sent;
                cluster.send(from, util::NodeId::random(rng),
                             [&](const runtime::Cluster::MessageOutcome& r) {
                                 score(out.tally, behaviors, r);
                             });
                sim.run_until(sim.now() + 20 * util::kSecond);
            }
            sim.run_until(sim.now() + 5 * util::kMinute);
            out.sim_seconds = static_cast<double>(sim.now()) / util::kSecond;
            out.drive_s = seconds_since(t0);
            out.audit = audit_accusations(cluster, net.size());
            out.check = accusation_check(out.audit, cluster.stats());
            add_stats(out.clusters, cluster.stats());

            const auto& stats = cluster.stats();
            const Tally& t = out.tally;
            append(out.block, "%-28s %zu\n", "messages", stats.messages);
            append(out.block, "%-28s %zu\n", "delivered", t.delivered);
            append(out.block, "%-28s %zu / %zu\n",
                   "forwarder drops diagnosed", t.correct_forwarder,
                   t.correct_forwarder + t.wrong_forwarder);
            append(out.block, "%-28s %zu / %zu\n", "network drops diagnosed",
                   t.correct_network, t.correct_network + t.wrong_network);
            append(out.block, "%-28s %zu\n", "undiagnosed", t.undiagnosed);
            append(out.block, "%-28s %zu\n", "false accusations",
                   t.false_accusations);
            append(out.block, "%-28s %zu\n", "snapshots published",
                   stats.snapshots_published);
            append(out.block, "%-28s %zu\n", "heavyweight sessions",
                   stats.heavyweight_sessions);
            append(out.block, "%-28s %zu\n", "guilty verdicts",
                   stats.guilty_verdicts);
            append(out.block, "%-28s %zu\n", "innocent verdicts",
                   stats.innocent_verdicts);
            append(out.block, "%-28s %zu\n", "revisions pushed",
                   stats.revisions_pushed);
            append(out.block, "%-28s %zu (verified %zu)\n",
                   "accusations in DHT", out.audit.accusations,
                   out.audit.verified);
            return out;
        };

        std::size_t completed = 0;
        std::vector<Check> audits;
        driver.run(
            2,
            [&](std::uint64_t trial, util::Rng& rng) {
                return trial == 0 ? targeted_phase(rng) : workload_phase(rng);
            },
            [&](std::uint64_t, PhaseOut&& phase) {
                it.result_text += phase.block;
                it.drive_s += phase.drive_s;
                it.audit_s += phase.audit.seconds;
                it.sim_seconds += phase.sim_seconds;
                it.phases.push_back({"runtime.start", phase.start_s});
                const Quality q = phase.tally.quality();
                it.quality.messages += q.messages;
                it.quality.wrong += q.wrong;
                it.quality.diagnosed += q.diagnosed;
                it.quality.false_accusations += q.false_accusations;
                it.clusters.snapshots_published +=
                    phase.clusters.snapshots_published;
                it.clusters.snapshots_rejected +=
                    phase.clusters.snapshots_rejected;
                completed += phase.tally.completed();
                audits.push_back(phase.check);
            });
        it.phases.push_back({"runtime.drive", it.drive_s});
        it.phases.push_back({"core.audit", it.audit_s});
        Check audit{"accusations_verify", true, ""};
        for (const Check& c : audits) {
            audit.ok = audit.ok && c.ok;
            audit.detail += (audit.detail.empty() ? "" : "; ") + c.detail;
        }
        it.checks.push_back(audit);
        it.checks.push_back(
            {"messages_complete", completed == it.quality.messages,
             std::to_string(completed) + "/" +
                 std::to_string(it.quality.messages) +
                 " messages completed"});
    }
};

// ---------------------------------------------------------------------------
// scan_world

class ScanWorld final : public ScenarioWorkload {
  public:
    using ScenarioWorkload::ScenarioWorkload;

    [[nodiscard]] std::size_t jobs() const override {
        return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                       4);
    }
    [[nodiscard]] std::size_t check_jobs() const override { return 1; }
    [[nodiscard]] std::size_t span_capacity() const override {
        return std::size_t{1} << 14;
    }

  private:
    /// bench_common.h's paper_scenario at --full: Pastry on 3% of the end
    /// hosts of a SCAN-shaped topology, two virtual hours.
    [[nodiscard]] sim::ScenarioParams params(
        std::uint64_t seed) const override {
        sim::ScenarioParams p;
        p.topology = net::scan_like_params();
        p.overlay_fraction = 0.03;
        p.duration = 2 * util::kHour;
        p.seed = seed;
        return p;
    }

    void drive(std::size_t jobs, Iteration& it) const override {
        const sim::Scenario& scenario = *world_;
        const auto& net = scenario.overlay_net();
        const auto td = Clock::now();

        // Figure-4 forest coverage over 400 hosts in 64 shards.
        const auto tc = Clock::now();
        const std::size_t sample_hosts = std::min<std::size_t>(400, net.size());
        std::size_t max_peers = 0;
        for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
            max_peers = std::max(max_peers, net.routing_peers(m).size());
        }
        const sim::ExperimentDriver driver(seed_ + 43, jobs);
        util::Rng setup = driver.setup_rng();
        const auto hosts = setup.sample_indices(net.size(), sample_hosts);
        constexpr std::size_t kShards = 64;
        struct ShardSums {
            std::vector<double> coverage;
            std::vector<double> vouchers;
            std::vector<int> hosts;
        };
        std::vector<double> coverage(max_peers + 1, 0.0);
        std::vector<double> vouchers(max_peers + 1, 0.0);
        std::vector<int> hosts_counted(max_peers + 1, 0);
        driver.run_shards(
            /*trial=*/0, kShards,
            [&](std::uint64_t s, util::Rng& rng) {
                ShardSums sums;
                sums.coverage.assign(max_peers + 1, 0.0);
                sums.vouchers.assign(max_peers + 1, 0.0);
                sums.hosts.assign(max_peers + 1, 0);
                for (std::size_t h = s; h < hosts.size(); h += kShards) {
                    const auto m = static_cast<overlay::MemberIndex>(hosts[h]);
                    std::vector<const tomography::ProbeTree*> trees{
                        &scenario.tree(m)};
                    std::vector<overlay::MemberIndex> peers =
                        net.routing_peers(m);
                    rng.shuffle(peers);
                    for (const overlay::MemberIndex p : peers) {
                        trees.push_back(&scenario.tree(p));
                    }
                    const tomography::Forest forest(trees);
                    for (std::size_t k = 0; k <= max_peers; ++k) {
                        if (k + 1 > trees.size()) break;
                        sums.coverage[k] += forest.coverage(k + 1);
                        sums.vouchers[k] += forest.mean_vouchers(k + 1);
                        ++sums.hosts[k];
                    }
                }
                return sums;
            },
            [&](std::uint64_t, ShardSums&& sums) {
                for (std::size_t k = 0; k <= max_peers; ++k) {
                    coverage[k] += sums.coverage[k];
                    vouchers[k] += sums.vouchers[k];
                    hosts_counted[k] += sums.hosts[k];
                }
            });
        std::string& out = it.result_text;
        std::size_t rows = 0;
        for (std::size_t k = 0; k <= max_peers; ++k) {
            if (hosts_counted[k] == 0) break;
            append(out, "%-12zu %-14.4f %-14.3f %-8d\n", k,
                   coverage[k] / hosts_counted[k],
                   vouchers[k] / hosts_counted[k], hosts_counted[k]);
            ++rows;
        }
        const double coverage_s = seconds_since(tc);

        // The 32-judgment diagnosis slice: gather, compute_blame,
        // heavyweight session, infer_link_loss.  Inner calls are timed per
        // trial (busy seconds, summed across workers).
        const auto ts = Clock::now();
        const core::BlameParams blame_params = scenario.params().blame;
        const util::SimTime duration = scenario.params().duration;
        const auto pass = [&](net::LinkId l, util::SimTime t) {
            return scenario.timeline().is_up(l, t) ? 1.0 : 0.0;
        };
        struct SliceOut {
            bool valid = false;
            bool guilty = false;
            bool path_bad = false;
            bool session = false;
            std::size_t probes = 0;
            double blame_s = 0.0;
            double heavyweight_s = 0.0;
        };
        const sim::ExperimentDriver slice_driver(seed_ + 47, jobs);
        std::size_t judged = 0;
        std::size_t guilty_total = 0;
        std::size_t probe_total = 0;
        slice_driver.run(
            32,
            [&](std::uint64_t q, util::Rng& rng) {
                SliceOut s;
                const auto triple = scenario.sample_triple(rng);
                if (!triple.has_value()) return s;
                const auto t = static_cast<util::SimTime>(rng.uniform(
                    static_cast<double>(blame_params.delta),
                    static_cast<double>(duration - blame_params.delta)));
                const auto path = scenario.path_links(triple->b, triple->c);
                const auto probes = scenario.gather_probes(
                    triple->a, path, t, sim::Scenario::CollusionStance::kNone,
                    q, /*reporter_cap=*/8);
                const auto tb = Clock::now();
                const auto breakdown = core::compute_blame(
                    path, probes, t, net.member(triple->b).id(),
                    blame_params);
                s.blame_s = seconds_since(tb);
                s.guilty = breakdown.blame >= 0.5;
                s.path_bad = scenario.path_bad(path, t);
                const auto& tree = scenario.tree(triple->a);
                if (!tree.leaves().empty()) {
                    tomography::HeavyweightParams hw;
                    hw.probe_count = 24;
                    const auto th = Clock::now();
                    const auto session = tomography::run_heavyweight_session(
                        tree, pass, t, hw, {}, rng);
                    s.heavyweight_s = seconds_since(th);
                    s.session = true;
                    const auto inference =
                        tomography::infer_link_loss(tree, session.probes);
                    (void)inference;
                }
                s.valid = true;
                s.probes = probes.size();
                return s;
            },
            [&](std::uint64_t, SliceOut&& s) {
                if (!s.valid) return;
                ++judged;
                guilty_total += s.guilty ? 1 : 0;
                probe_total += s.probes;
                Quality& qa = it.quality;
                ++qa.messages;
                ++qa.diagnosed;
                // Scenario members are all honest here: a guilty verdict on
                // a path that really had a bad link is a false accusation,
                // an innocent one on a clean path misses the drop.
                if (s.guilty && s.path_bad) ++qa.false_accusations;
                if (s.guilty == s.path_bad) ++qa.wrong;
                it.timed_sessions += s.session ? 1 : 0;
                it.phases.push_back({"core.blame", s.blame_s});
                it.phases.push_back({"tomography.heavyweight",
                                     s.heavyweight_s});
            });
        append(out,
               "diagnosis slice: %zu judged, %zu guilty, %zu probe "
               "observations\n",
               judged, guilty_total, probe_total);
        const double slice_s = seconds_since(ts);

        it.drive_s = seconds_since(td);
        it.sim_seconds = static_cast<double>(duration) / util::kSecond;
        it.phases.push_back({"sim.coverage", coverage_s});
        it.phases.push_back({"sim.diagnosis_slice", slice_s});
        it.checks.push_back({"coverage_table", rows > 0 && judged > 0,
                             std::to_string(rows) + " coverage rows, " +
                                 std::to_string(judged) + " judgments"});
    }
};

// ---------------------------------------------------------------------------
// daemon_day

class DaemonDay final : public Workload {
  public:
    explicit DaemonDay(const WorkloadOptions& options) : opts_(options) {
        if (opts_.daemon_traces.empty() || opts_.work_dir.empty()) {
            throw std::invalid_argument(
                "daemon_day needs --daemon-trace and --work-dir");
        }
    }

    ~DaemonDay() override {
        daemon_.reset();
        std::error_code ec;
        std::filesystem::remove_all(checkpoint_dir_, ec);
    }

    [[nodiscard]] std::size_t jobs() const override { return 1; }
    [[nodiscard]] std::size_t check_jobs() const override { return 0; }
    [[nodiscard]] std::size_t span_capacity() const override {
        return std::size_t{1} << 19;
    }

    Iteration run(std::size_t /*jobs*/, std::size_t index) override {
        daemon_.reset();
        replica_.reset();
        fresh_checkpoint_dir();
        Iteration it;
        const auto t0 = Clock::now();
        const auto tp = Clock::now();
        daemon::Workload wl =
            daemon::Workload::parse_file(opts_.daemon_traces.at(index));
        it.phases.push_back({"daemon.trace_parse", seconds_since(tp)});
        const std::size_t messages = wl.messages;
        const auto tc = Clock::now();
        daemon_ = std::make_unique<daemon::Daemon>(std::move(wl), options());
        it.phases.push_back({"daemon.construct", seconds_since(tc)});
        it.setup_s = seconds_since(t0);

        const auto td = Clock::now();
        const bool finished = daemon_->run();
        it.drive_s = seconds_since(td);
        const AuditResult audit = audit_accusations(
            daemon_->cluster(), daemon_->workload().overlay_nodes);
        it.audit_s = audit.seconds;
        it.wall_s = seconds_since(t0);

        it.phases.push_back({"runtime.drive", it.drive_s});
        it.phases.push_back({"core.audit", it.audit_s});
        it.sim_seconds = static_cast<double>(daemon_->end()) / util::kSecond;
        it.result_text = daemon_->state_text();
        const auto& score = daemon_->score();
        it.quality.messages = score.fed;
        it.quality.wrong =
            score.fed - score.delivered - score.correct_attributions;
        it.quality.diagnosed = score.diagnosed;
        it.quality.false_accusations = score.false_accusations;
        add_stats(it.clusters, daemon_->cluster().stats());
        it.checks.push_back(accusation_check(audit, daemon_->cluster().stats()));
        it.checks.push_back(
            {"daemon_clean_end",
             finished && !daemon_->resumed() && score.orphans() == 0 &&
                 score.fed == messages,
             std::to_string(score.fed) + "/" + std::to_string(messages) +
                 " fed, " + std::to_string(score.orphans()) + " orphans, " +
                 (daemon_->resumed() ? "resumed" : "not resumed")});
        return it;
    }

    double setup_only(std::size_t index) override {
        fresh_checkpoint_dir();
        const auto t0 = Clock::now();
        {
            const daemon::Daemon d(
                daemon::Workload::parse_file(opts_.daemon_traces.at(index)),
                options());
        }
        return seconds_since(t0);
    }

    std::string redrive(std::size_t /*jobs*/) override {
        throw std::logic_error("daemon_day has no experiment driver");
    }

    /// The daemon's world is private; this rebuilds it from the same
    /// directives the Daemon constructor uses, which yields the identical
    /// world (a Scenario is a pure function of its parameters).
    const sim::Scenario& world() override {
        if (replica_ == nullptr) {
            const daemon::Workload& wl = daemon_->workload();
            sim::ScenarioParams wp;
            wp.topology = net::small_params();
            wp.topology.end_hosts = wl.end_hosts;
            wp.topology.stub_domains = wl.stub_domains;
            wp.overlay_nodes_override = wl.overlay_nodes;
            wp.duration = wl.duration;
            wp.seed = wl.seed;
            replica_ = std::make_unique<sim::Scenario>(wp);
        }
        return *replica_;
    }

    std::vector<std::pair<std::string, double>> extra_replays() override {
        constexpr int kReps = 20;
        std::string text;
        auto t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) text = daemon_->state_text();
        const double state_us = seconds_since(t0) * 1e6 / kReps;
        std::size_t sink = 0;
        t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) {
            sink += daemon::Checkpoint::parse(text, "perfbench").stats.size();
        }
        const double parse_us = seconds_since(t0) * 1e6 / kReps;
        if (sink == 0) throw std::runtime_error("empty checkpoint parse");
        return {{"daemon.us_per_state_text", state_us},
                {"daemon.us_per_checkpoint_parse", parse_us}};
    }

  private:
    /// soak_daemon's loop geometry.
    [[nodiscard]] daemon::DaemonOptions options() const {
        daemon::DaemonOptions o;
        o.checkpoint_dir = checkpoint_dir_;
        o.checkpoint_every = 6 * util::kHour;
        o.tick = 5 * util::kMinute;
        o.settle = 10 * util::kMinute;
        o.params.probe_interval_max = 5 * util::kMinute;
        o.params.heavyweight_min_gap = 10 * util::kMinute;
        o.params.forward_retry.max_attempts = 3;
        return o;
    }

    /// Every run starts from an empty checkpoint directory, so the daemon
    /// never resumes.
    void fresh_checkpoint_dir() {
        if (checkpoint_dir_.empty()) {
            checkpoint_dir_ = opts_.work_dir + "/ckpt-" +
                              std::to_string(::getpid());
        }
        std::filesystem::remove_all(checkpoint_dir_);
        std::filesystem::create_directories(checkpoint_dir_);
    }

    WorkloadOptions opts_;
    std::string checkpoint_dir_;
    std::unique_ptr<daemon::Daemon> daemon_;
    std::unique_ptr<sim::Scenario> replica_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options) {
    if (name == "protocol_e2e") {
        return std::make_unique<ProtocolE2e>(options.seed);
    }
    if (name == "scan_world") return std::make_unique<ScanWorld>(options.seed);
    if (name == "daemon_day") return std::make_unique<DaemonDay>(options);
    return nullptr;
}

}  // namespace perfbench
