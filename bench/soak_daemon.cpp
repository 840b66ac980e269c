// Simulated-weeks soak of the conciliumd engine (DAEMON.md).
//
// Drives daemon::Daemon in-process over a generated workload trace --
// diurnal load, flash crowds, correlated regional churn, crashes, link
// faults (tools/gen_workload.py) -- and scores every diagnosis against
// ground truth, exactly as the service binary does.  Where the other soaks
// sweep an intensity axis over minutes of sim time, this one holds the
// trace's intensity and runs for *weeks* of it: the question is whether
// false accusations and orphaned messages stay flat as churn cycles,
// crash-replays, and checkpoint cadences accumulate.
//
//   soak_daemon --trace weeks.trace [--checkpoint-dir DIR] [--metrics-out F]
//
// The per-day table decomposes the run through the daemon.*.by_hour series;
// tools/check_daemon.py gates the end-of-run metrics in the nightly lane.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.h"
#include "daemon/daemon.h"

int main(int argc, char** argv) {
    using namespace concilium;

    std::string trace_path;
    std::string checkpoint_dir;
    std::string io_faults_text;
    std::uint64_t io_faults_seed = 0;
    const auto args = bench::parse_args(
        argc, argv, [&](int& i, int arg_count, char** arg_values) {
            if (std::strcmp(arg_values[i], "--trace") == 0 &&
                i + 1 < arg_count) {
                trace_path = arg_values[++i];
                return true;
            }
            if (std::strcmp(arg_values[i], "--checkpoint-dir") == 0 &&
                i + 1 < arg_count) {
                checkpoint_dir = arg_values[++i];
                return true;
            }
            if (std::strcmp(arg_values[i], "--io-faults") == 0 &&
                i + 1 < arg_count) {
                io_faults_text = arg_values[++i];
                return true;
            }
            if (std::strcmp(arg_values[i], "--io-faults-seed") == 0 &&
                i + 1 < arg_count) {
                io_faults_seed = bench::parse_u64(
                    arg_values[0], "--io-faults-seed", arg_values[++i]);
                return true;
            }
            return false;
        });
    if (trace_path.empty()) {
        std::fprintf(stderr,
                     "soak_daemon: --trace FILE is required "
                     "(generate one with tools/gen_workload.py)\n");
        return 2;
    }
    bench::BenchReport report("soak_daemon", args);

    daemon::Workload workload;
    try {
        workload = daemon::Workload::parse_file(trace_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "soak_daemon: bad trace: %s\n", e.what());
        return 1;
    }

    daemon::DaemonOptions opts;
    opts.checkpoint_dir = checkpoint_dir;
    try {
        opts.io = std::make_shared<util::FaultFs>(
            util::IoFaultSpec::parse(io_faults_text, io_faults_seed));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "soak_daemon: %s\n", e.what());
        return 2;
    }
    opts.checkpoint_every = 6 * util::kHour;
    opts.tick = 5 * util::kMinute;
    opts.settle = 10 * util::kMinute;
    // Soak tuning: weeks of sim time make per-probe cost the budget, so
    // probe less often than the interactive default; retry before judging
    // so transient IP loss does not masquerade as a malicious drop.
    opts.params.probe_interval_max = 5 * util::kMinute;
    opts.params.heavyweight_min_gap = 10 * util::kMinute;
    opts.params.forward_retry.max_attempts = 3;

    bench::print_header(
        "soak-daemon",
        "trace-driven daemon over simulated weeks: false-accusation and "
        "orphan rates vs ground truth");
    bench::print_param("trace_records",
                       static_cast<double>(workload.records.size()));
    bench::print_param("trace_messages",
                       static_cast<double>(workload.messages));
    bench::print_param("overlay_nodes",
                       static_cast<double>(workload.overlay_nodes));
    bench::print_param("sim_days",
                       static_cast<double>(workload.duration) /
                           (24.0 * util::kHour));
    bench::print_param("seed", static_cast<double>(workload.seed));

    daemon::Daemon d(std::move(workload), opts);
    if (!d.run()) return 1;  // no stop flag: false is unreachable
    for (const std::string& note : d.io_notes()) {
        std::fprintf(stderr, "soak_daemon: %s\n", note.c_str());
    }

    // Per-day decomposition through the windowed series the daemon fills.
    auto& reg = util::metrics::Registry::global();
    auto& fed_by_hour =
        reg.series("daemon.messages_fed.by_hour", util::kHour, 400,
                   util::metrics::SeriesMetric::Mode::kSum);
    auto& false_by_hour =
        reg.series("daemon.false_accusations.by_hour", util::kHour, 400,
                   util::metrics::SeriesMetric::Mode::kSum);
    const auto days = static_cast<std::size_t>(
        (d.end() + 24 * util::kHour - 1) / (24 * util::kHour));
    std::printf("%-6s %-10s %-10s\n", "day", "fed", "false_acc");
    for (std::size_t day = 0; day < days; ++day) {
        std::int64_t fed = 0;
        std::int64_t false_acc = 0;
        for (std::size_t h = day * 24;
             h < (day + 1) * 24 && h < fed_by_hour.windows(); ++h) {
            fed += fed_by_hour.value(h);
            false_acc += false_by_hour.value(h);
        }
        std::printf("%-6zu %-10lld %-10lld\n", day,
                    static_cast<long long>(fed),
                    static_cast<long long>(false_acc));
    }

    const auto& score = d.score();
    const auto& stats = d.cluster().stats();
    const double false_rate =
        score.diagnosed == 0
            ? 0.0
            : static_cast<double>(score.false_accusations) /
                  static_cast<double>(score.diagnosed);
    const double orphan_rate =
        score.fed == 0 ? 0.0
                       : static_cast<double>(score.orphans()) /
                             static_cast<double>(score.fed);
    std::printf("%-10s %-10s %-10s %-10s %-10s %-8s %-8s %-8s %-8s\n",
                "fed", "delivered", "diagnosed", "false_acc", "false_rate",
                "insuff", "orphans", "crashes", "replays");
    std::printf("%-10llu %-10llu %-10llu %-10llu %-10.4f %-8llu %-8llu "
                "%-8zu %-8zu\n",
                static_cast<unsigned long long>(score.fed),
                static_cast<unsigned long long>(score.delivered),
                static_cast<unsigned long long>(score.diagnosed),
                static_cast<unsigned long long>(score.false_accusations),
                false_rate,
                static_cast<unsigned long long>(score.insufficient),
                static_cast<unsigned long long>(score.orphans()),
                stats.crashes, stats.journal_replays);

    report.set("sim_seconds", static_cast<double>(d.end() / util::kSecond));
    report.set("messages_fed", static_cast<double>(score.fed));
    report.set("false_rate", false_rate);
    report.set("orphan_rate", orphan_rate);
    report.set("io_faults_injected", static_cast<double>(d.io().injected()));
    report.set("io_degraded", d.io_degraded() ? 1.0 : 0.0);
    return 0;
}
