// Shared helpers for the figure-reproduction binaries.
//
// Every bench prints a self-describing, machine-parsable table to stdout:
// a `# figure:` header, `# param:` lines recording the configuration, and
// whitespace-separated columns.  Pass --full to run at the paper's SCAN
// scale (slower); pass --seed N to change the deterministic seed; pass
// --jobs N to set the experiment-driver worker count (default: all cores).
// Output is byte-identical for any --jobs value, so figures regenerated on
// different machines diff clean.  Pass --metrics-out FILE to additionally
// dump the process metrics registry as JSON at exit; the table on stdout is
// unaffected, and the snapshot's "metrics" section is itself byte-identical
// across --jobs values (only the "timing" section varies).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <stdexcept>

#include <sys/resource.h>

#include "core/trace.h"
#include "net/topology_gen.h"
#include "sim/experiment_driver.h"
#include "sim/scenario.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rate_spec.h"
#include "util/spans.h"

namespace concilium::bench {

struct BenchArgs {
    bool full = false;
    std::uint64_t seed = 1;
    /// 0 = per-bench default.
    std::size_t samples = 0;
    /// Experiment-driver workers; 0 = hardware_concurrency.
    std::size_t jobs = 0;
    /// Empty = no metrics dump.
    std::string metrics_out;
    /// Empty = no BENCH_<name>.json perf snapshot (see BenchReport).
    std::string bench_out;
    /// Empty = span recorder stays disabled; otherwise the Chrome trace
    /// JSON dumped at exit (see util/spans.h and OBSERVABILITY.md).
    std::string spans_out;
    /// Empty = no DiagnosisTrace JSON dump; see trace_sink_add below.
    std::string trace_out;
};

namespace detail {

inline const char* g_own_usage = "";  // NOLINT: set once by parse_args
inline std::string g_metrics_out;  // NOLINT: set once in main, read at exit
inline std::string g_spans_out;    // NOLINT: same lifecycle
inline std::string g_trace_out;    // NOLINT: same lifecycle

inline void write_text_file(const char* flag, const std::string& path,
                            const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "%s: cannot open '%s'\n", flag, path.c_str());
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

inline void write_metrics_file() {
    if (detail::g_metrics_out.empty()) return;
    write_text_file("--metrics-out", detail::g_metrics_out,
                    util::metrics::Registry::global().snapshot().to_json());
}

inline void write_spans_file() {
    if (detail::g_spans_out.empty()) return;
    write_text_file("--spans-out", detail::g_spans_out,
                    util::spans::Recorder::global().to_chrome_json());
}

/// The merged DiagnosisTrace records across every trial, appended strictly
/// in driver merge order (so the dump is byte-identical across --jobs).
struct TraceSink {
    std::vector<core::DiagnosisRecord> records;
    std::uint64_t total_recorded = 0;
};

inline TraceSink g_trace_sink;  // NOLINT: merge-thread only

inline void write_trace_file() {
    if (detail::g_trace_out.empty()) return;
    std::string json = "{\"total_recorded\": " +
                       util::json_number(g_trace_sink.total_recorded) +
                       ",\n\"records\": [";
    for (std::size_t i = 0; i < g_trace_sink.records.size(); ++i) {
        json += (i == 0) ? "\n" : ",\n";
        json += g_trace_sink.records[i].to_json();
    }
    json += "\n]}\n";
    write_text_file("--trace-out", detail::g_trace_out, json);
}

}  // namespace detail

/// Prints the shared usage text, then the bench's own flags as given to
/// parse_args, and exits 2.
[[noreturn]] inline void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--full] [--seed N] [--samples N] [--jobs N] "
                 "[--metrics-out FILE] [--bench-out FILE] [--spans-out FILE] "
                 "[--trace-out FILE]\n"
                 "  --spans-out FILE: arm the span recorder and dump Chrome "
                 "trace-event JSON at exit\n"
                 "  --trace-out FILE: dump the merged DiagnosisTrace blame "
                 "journal as JSON at exit\n%s",
                 argv0, detail::g_own_usage);
    std::exit(2);
}

/// Arms the at-exit metrics dump.  The registry is snapshotted after main
/// returns, so every metric the bench touched is included; Registry::global()
/// is deliberately leaked, making the atexit hook safe during static
/// destruction.
inline void set_metrics_out(const std::string& path) {
    if (path.empty()) return;
    const bool first = detail::g_metrics_out.empty();
    detail::g_metrics_out = path;
    if (first) std::atexit(&detail::write_metrics_file);
}

/// Arms the span recorder and the at-exit Chrome trace dump.  Like the
/// metrics registry, the recorder's state is deliberately leaked, so the
/// atexit exporter is safe during static destruction.
inline void set_spans_out(const std::string& path) {
    if (path.empty()) return;
    const bool first = detail::g_spans_out.empty();
    detail::g_spans_out = path;
    util::spans::Recorder::global().enable();
    if (first) std::atexit(&detail::write_spans_file);
}

/// Arms the at-exit DiagnosisTrace dump.  Benches opt in per trial with
/// trace_sink_add() from their merge callback.
inline void set_trace_out(const std::string& path) {
    if (path.empty()) return;
    const bool first = detail::g_trace_out.empty();
    detail::g_trace_out = path;
    if (first) std::atexit(&detail::write_trace_file);
}

/// True when --trace-out was given (lets benches skip per-trial copying).
[[nodiscard]] inline bool trace_out_armed() {
    return !detail::g_trace_out.empty();
}

/// Appends one trial's retained blame journal to the merged --trace-out
/// dump.  Call from the driver *merge* callback only (single-threaded, in
/// trial order); a no-op when --trace-out was not given.
inline void trace_sink_add(std::vector<core::DiagnosisRecord>&& records,
                           std::uint64_t total_recorded) {
    if (!trace_out_armed()) return;
    detail::g_trace_sink.total_recorded += total_recorded;
    detail::g_trace_sink.records.insert(
        detail::g_trace_sink.records.end(),
        std::make_move_iterator(records.begin()),
        std::make_move_iterator(records.end()));
}

/// One driver trial's printed text plus its retained blame journal.  Fill
/// it on the worker; emit() it from the merge callback, which runs in trial
/// order, so stdout and the --trace-out dump are byte-identical at any
/// --jobs.
struct TrialOut {
    std::string text;
    std::vector<core::DiagnosisRecord> trace_records;
    std::uint64_t trace_total = 0;

    /// Copies the trial's journal; a no-op unless --trace-out was given.
    void keep_trace(const core::DiagnosisTrace& trace) {
        if (!trace_out_armed()) return;
        trace_records = trace.records();
        trace_total = trace.total_recorded();
    }

    void emit() {
        std::fputs(text.c_str(), stdout);
        trace_sink_add(std::move(trace_records), trace_total);
    }
};

/// A count flag's value through util::parse_number (the whole token, no
/// sign, no overflow); a bad one prints the reason and exits 2 with usage.
inline std::uint64_t parse_u64(const char* argv0, const char* flag,
                               const char* text) {
    try {
        return util::parse_number<std::uint64_t>(flag, text, 0, UINT64_MAX);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv0);
    }
}

/// Bench-specific flag hook for parse_args: called with the current argv
/// index when no shared flag matched; returns true after consuming it
/// (advancing `i` over any value), false to refuse it as unknown.
using ExtraArgFn = std::function<bool(int& i, int argc, char** argv)>;

/// Parses the shared flags, handing any other to `extra`.  `own_usage`
/// describes the hook's flags; usage() prints it after the shared text.
inline BenchArgs parse_args(int argc, char** argv,
                            const ExtraArgFn& extra = {},
                            const char* own_usage = "") {
    detail::g_own_usage = own_usage;
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            args.full = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            args.seed = parse_u64(argv[0], "--seed", argv[++i]);
        } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
            args.samples = parse_u64(argv[0], "--samples", argv[++i]);
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            args.jobs = parse_u64(argv[0], "--jobs", argv[++i]);
        } else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                   i + 1 < argc) {
            args.metrics_out = argv[++i];
        } else if (std::strcmp(argv[i], "--bench-out") == 0 &&
                   i + 1 < argc) {
            args.bench_out = argv[++i];
        } else if (std::strcmp(argv[i], "--spans-out") == 0 &&
                   i + 1 < argc) {
            args.spans_out = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                   i + 1 < argc) {
            args.trace_out = argv[++i];
        } else if (extra && extra(i, argc, argv)) {
            // consumed by the bench's own flag hook
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
            usage(argv[0]);
        }
    }
    set_metrics_out(args.metrics_out);
    set_spans_out(args.spans_out);
    set_trace_out(args.trace_out);
    return args;
}

/// The experiment driver for one bench section.  `seed_offset` keeps the
/// sections' trial substreams disjoint, mirroring the per-section seed
/// offsets the bespoke loops used.  Note: the driver seed feeds the trial
/// substreams but the worker count never reaches the output, preserving
/// the byte-identical-across---jobs guarantee.
inline sim::ExperimentDriver make_driver(const BenchArgs& args,
                                         std::uint64_t seed_offset) {
    return sim::ExperimentDriver(args.seed + seed_offset, args.jobs);
}

/// Fans `rows` independent row computations out over the driver and prints
/// the formatted lines back in row order.  `format_row(row)` returns the
/// complete text of one row (including its newline); it runs on a worker
/// thread and must only read shared state.  Used by the analytic sweeps,
/// where each row is an expensive numeric integral.
template <typename RowFn>
inline void print_rows(const sim::ExperimentDriver& driver, std::size_t rows,
                       RowFn&& format_row) {
    driver.run(
        rows,
        [&](std::uint64_t row, util::Rng&) {
            return format_row(static_cast<std::size_t>(row));
        },
        [](std::uint64_t, std::string&& line) {
            std::fputs(line.c_str(), stdout);
        });
}

/// The Section 4.2 world: Pastry on 3% of the end hosts of a SCAN-shaped
/// topology, 5% of links bad, two virtual hours.
inline sim::ScenarioParams paper_scenario(const BenchArgs& args,
                                          double malicious_fraction = 0.0) {
    sim::ScenarioParams p;
    p.topology = args.full ? net::scan_like_params() : net::medium_params();
    p.overlay_fraction = 0.03;
    p.duration = 2 * util::kHour;
    p.malicious_fraction = malicious_fraction;
    p.seed = args.seed;
    return p;
}

/// How long a runtime bench drives its cluster before the first send.
inline constexpr util::SimTime kRuntimeWarmup = 3 * util::kMinute;

/// The runtime benches' world: smaller than the figure benches', since the
/// runtime simulates every probe packet.  It lasts the warm-up plus
/// `workload_span` (the paced sends and the settle tail), and at least two
/// virtual hours, so the failure timeline and any fault plan drawn over
/// the world cover every send.
inline sim::ScenarioParams runtime_scenario(const BenchArgs& args,
                                            util::SimTime workload_span) {
    sim::ScenarioParams p;
    p.topology = net::small_params();
    p.topology.end_hosts = args.full ? 1500 : 600;
    p.topology.stub_domains = args.full ? 40 : 16;
    p.overlay_nodes_override = args.full ? 220 : 90;
    p.duration = std::max(2 * util::kHour, kRuntimeWarmup + workload_span);
    p.seed = args.seed;
    return p;
}

/// Perf-trajectory snapshot (the BENCH_<name>.json files).
///
/// Every bench can record its headline throughput numbers -- wall time,
/// peak RSS, and whichever of events/sec, probes/sec, and bytes/diagnosis
/// apply -- into a small flat JSON file that tools/check_perf.py diffs
/// against the committed baseline in bench/baselines/.  Construction
/// starts the wall clock and snapshots the relevant metrics counters, so
/// `rate()` fields report only work done while the report was live.
class BenchReport {
  public:
    explicit BenchReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now()),
          events_at_start_(counter_value("net.events_executed")),
          probes_at_start_(counter_value("tomography.probes_issued")) {}

    /// Auto-writing mode: remembers `args.bench_out` and, if finish()/
    /// write() were never called explicitly, runs them at destruction.
    /// Lets a bench opt into the perf trajectory with a single line.
    BenchReport(std::string name, const BenchArgs& args)
        : BenchReport(std::move(name)) {
        auto_out_ = args.bench_out;
    }

    ~BenchReport() {
        if (auto_out_.empty() || finished_) return;
        finish();
        write(auto_out_);
    }

    BenchReport(const BenchReport&) = delete;
    BenchReport& operator=(const BenchReport&) = delete;

    /// Records a value under `key`; insertion order is emission order.
    void set(const std::string& key, double value) {
        for (auto& [k, v] : fields_) {
            if (k == key) {
                v = value;
                return;
            }
        }
        fields_.emplace_back(key, value);
    }

    /// Records `count` plus the derived `<key>_per_sec` over the report's
    /// lifetime so far.
    void set_rate(const std::string& key, double count) {
        set(key, count);
        const double w = wall_seconds();
        set(key + "_per_sec", w > 0.0 ? count / w : 0.0);
    }

    /// Seconds since construction.
    [[nodiscard]] double wall_seconds() const {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /// Fills wall_seconds, the process's peak RSS so far, and
    /// events/probes counts and rates from the process metrics registry
    /// (deltas since construction).  Call once, after the measured work.
    void finish() {
        finished_ = true;
        set("wall_seconds", wall_seconds());
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        // ru_maxrss is in KiB on Linux.
        set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
        const double events = static_cast<double>(
            counter_value("net.events_executed") - events_at_start_);
        const double probes = static_cast<double>(
            counter_value("tomography.probes_issued") - probes_at_start_);
        if (events > 0.0) set_rate("events", events);
        if (probes > 0.0) set_rate("probes", probes);
    }

    [[nodiscard]] std::string to_json() const {
        std::string out = "{\n  \"bench\": " + util::json_quote(name_);
        for (const auto& [k, v] : fields_) {
            out += ",\n  " + util::json_quote(k) + ": " +
                   util::json_number(v);
        }
        out += "\n}\n";
        return out;
    }

    /// Writes the report; empty path = no-op (flag not given).
    void write(const std::string& path) const {
        if (path.empty()) return;
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "--bench-out: cannot open '%s'\n",
                         path.c_str());
            return;
        }
        const std::string json = to_json();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }

  private:
    static std::int64_t counter_value(std::string_view name) {
        return util::metrics::Registry::global().counter(name).value();
    }

    std::string name_;
    std::string auto_out_;
    bool finished_ = false;
    std::chrono::steady_clock::time_point start_;
    std::int64_t events_at_start_;
    std::int64_t probes_at_start_;
    std::vector<std::pair<std::string, double>> fields_;
};

inline void print_header(const char* figure, const char* caption) {
    std::printf("# figure: %s\n# caption: %s\n", figure, caption);
}

inline void print_param(const char* name, double value) {
    std::printf("# param: %s = %g\n", name, value);
}

inline void print_param(const char* name, const std::string& value) {
    std::printf("# param: %s = %s\n", name, value.c_str());
}

}  // namespace concilium::bench
