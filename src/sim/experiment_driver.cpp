#include "sim/experiment_driver.h"

#include <thread>

namespace concilium::sim {

std::size_t ExperimentDriver::jobs() const noexcept {
    if (options_.jobs != 0) return options_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace detail {

util::metrics::Counter& driver_wave_counter() {
    static auto& c =
        util::metrics::Registry::global().counter("sim.driver_waves");
    return c;
}

util::metrics::HistogramMetric& driver_trial_seconds() {
    static auto& h = util::metrics::Registry::global().timing_histogram(
        "sim.driver_trial_seconds", 0.0, 0.05, 50);
    return h;
}

}  // namespace detail

namespace {

/// Publishes one run's stats to the global metrics registry.
void report_run(const RunStats& stats) {
    using util::metrics::Registry;
    Registry& reg = Registry::global();
    static auto& runs = reg.counter("sim.driver_runs");
    static auto& trials = reg.counter("sim.driver_trials");
    static auto& jobs = reg.timing_gauge("sim.driver_jobs");
    static auto& utilization =
        reg.timing_gauge("sim.driver_worker_utilization");
    static auto& busy = reg.timing_gauge("sim.driver_busy_seconds");
    static auto& run_seconds =
        reg.timing_histogram("sim.driver_run_seconds", 0.0, 60.0, 24);
    runs.add(1);
    trials.add(static_cast<std::int64_t>(stats.trials));
    jobs.set(static_cast<double>(stats.jobs));
    utilization.set(stats.utilization());
    busy.add(stats.busy_seconds);
    run_seconds.observe(stats.wall_seconds);
}

}  // namespace

RunStats ExperimentDriver::timed(
    util::FunctionRef<void(RunStats&)> body) const {
    const auto start = std::chrono::steady_clock::now();
    RunStats stats;
    stats.jobs = jobs();
    body(stats);
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report_run(stats);
    return stats;
}

}  // namespace concilium::sim
