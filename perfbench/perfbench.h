// Shared types of the perfbench harness.
//
// perfbench measures the Concilium library from the outside: it times its
// own calls into each layer's public functions, reads deltas of the
// counters the metrics registry already keeps, and reads the wall spans the
// library already records.  Nothing here changes the library.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64 of a result text: the digest two runs must agree on.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/// One output check; a failed check is a failed operation.
struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/// Diagnosis outcomes against ground truth.
struct Quality {
    std::uint64_t messages = 0;   ///< messages sent (scan_world: judgments)
    std::uint64_t wrong = 0;      ///< neither delivered nor correctly attributed
    std::uint64_t diagnosed = 0;  ///< completed through a diagnosis
    std::uint64_t false_accusations = 0;  ///< final blame names an honest node
};

/// Runtime totals summed over every Cluster the iteration drove.
struct ClusterTotals {
    std::uint64_t snapshots_published = 0;
    std::uint64_t snapshots_rejected = 0;  ///< signature, stale and epoch
};

/// One wall-time phase the harness timed around a public call.
struct Phase {
    std::string name;  ///< layer.phase, e.g. "runtime.start"
    double seconds = 0.0;
};

/// Everything one iteration (set-up, drive, audit) measured.
struct Iteration {
    double wall_s = 0.0;
    double setup_s = 0.0;
    double drive_s = 0.0;
    double audit_s = 0.0;
    /// Simulated seconds the drive phase covered.
    double sim_seconds = 0.0;
    /// The result text the digest covers.
    std::string result_text;
    Quality quality;
    ClusterTotals clusters;
    std::vector<Check> checks;
    /// Heavyweight sessions the harness called directly (outside Cluster,
    /// so without a heavyweight_session span).
    std::uint64_t timed_sessions = 0;
    /// Timed phases, disjoint from each other unless named as nested in the
    /// attribution table.
    std::vector<Phase> phases;

    [[nodiscard]] double phase(std::string_view name) const {
        double s = 0.0;
        for (const Phase& p : phases) {
            if (p.name == name) s += p.seconds;
        }
        return s;
    }
};

/// Kernel unit costs replayed on a workload's own world.
struct Replays {
    double bfs_ms_per_source = 0.0;
    double ns_per_stripe = 0.0;
    double us_per_lightweight = 0.0;
    double us_per_verification = 0.0;
    double us_per_mle = 0.0;
    double us_per_snapshot = 0.0;
    double ns_per_archive_add = 0.0;
    double ns_per_digest_lookup = 0.0;
    double ns_per_dispatch = 0.0;
    double us_per_blame = 0.0;
};

/// Replays every kernel on `world` with draws from `seed`.  Run with the
/// span recorder off and after the traced counters have been read: the
/// kernels bump the same counters.
[[nodiscard]] Replays replay_kernels(const concilium::sim::Scenario& world,
                                     std::uint64_t seed);

/// The seed of world `index` of a run: the run's seed itself for world 0,
/// then fixed offsets, so every world is a pure function of the seed.
/// perfbench/run.py derives daemon_day's trace seeds the same way.
[[nodiscard]] inline std::uint64_t world_seed(std::uint64_t seed,
                                              std::size_t index) {
    return seed + static_cast<std::uint64_t>(index) * 1'000'000'007ULL;
}

struct WorkloadOptions {
    std::uint64_t seed = 1;
    /// daemon_day: the generated workload trace of each world.
    std::vector<std::string> daemon_traces;
    /// daemon_day: parent of the fresh per-iteration checkpoint directories.
    std::string work_dir;
};

class Workload {
  public:
    virtual ~Workload() = default;

    /// Worker count the end-to-end metrics are measured at.
    [[nodiscard]] virtual std::size_t jobs() const = 0;
    /// Worker count the traced run re-drives at for the cross-worker digest
    /// check; 0 when the workload has no experiment driver.
    [[nodiscard]] virtual std::size_t check_jobs() const = 0;
    /// Span ring capacity per thread that keeps the traced run lossless.
    [[nodiscard]] virtual std::size_t span_capacity() const = 0;

    /// Builds world `index` (see world_seed), drives it at `jobs` workers
    /// and audits it.  The world stays alive for redrive() and world().
    virtual Iteration run(std::size_t jobs, std::size_t index) = 0;
    /// Set-up of world `index` alone (an extra setup_s sample); returns
    /// seconds.
    virtual double setup_only(std::size_t index) = 0;
    /// Drives the last world again at `jobs` workers; returns the result
    /// text (only the workloads with check_jobs() != 0 support it).
    virtual std::string redrive(std::size_t jobs) = 0;
    /// The last world, for kernel replays.
    [[nodiscard]] virtual const concilium::sim::Scenario& world() = 0;
    /// Workload-specific unit costs, (name, microseconds), for the table.
    virtual std::vector<std::pair<std::string, double>> extra_replays() {
        return {};
    }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadOptions& options);

}  // namespace perfbench
