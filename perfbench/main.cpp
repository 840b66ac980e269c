// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --worlds K --trace 0|1
//             [--daemon-traces FILE,FILE,...] [--work-dir DIR]
//
// --trace 0 runs the workload on K worlds derived from the seed, tracing
// off, and prints the end-to-end metrics as medians over the worlds.
// --trace 1 runs world 0 once untraced and once traced, re-drives it at
// another worker count, replays the kernels on it, and prints the per-layer
// metrics plus an attribution of the traced wall time to layers.
// The last stdout line is always the JSON result; perfbench/run.py builds
// this binary and supplies the generated inputs.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "util/metrics.h"
#include "util/spans.h"

namespace perfbench {
namespace {

using namespace concilium;
namespace spans = util::spans;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    std::size_t worlds = 2;
    int trace = 0;
    WorkloadOptions options;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload protocol_e2e|scan_world|daemon_day "
                 "--seed N --worlds K --trace 0|1 "
                 "[--daemon-traces FILE,...] [--work-dir DIR]\n",
                 argv0);
    std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const char* text) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] == '\0' || text[0] == '-' || *end != '\0' || errno != 0) {
        usage(argv0);
    }
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(argv[0]);
        const char* value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = parse_u64(argv[0], value);
        } else if (flag == "--worlds") {
            a.worlds = parse_u64(argv[0], value);
            if (a.worlds == 0) usage(argv[0]);
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(parse_u64(argv[0], value));
            if (a.trace > 1) usage(argv[0]);
        } else if (flag == "--daemon-traces") {
            std::string list = value;
            for (std::size_t at = 0; at != std::string::npos;) {
                const std::size_t comma = list.find(',', at);
                a.options.daemon_traces.push_back(list.substr(
                    at, comma == std::string::npos ? comma : comma - at));
                at = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (flag == "--work-dir") {
            a.options.work_dir = value;
        } else {
            usage(argv[0]);
        }
    }
    if (a.workload.empty()) usage(argv[0]);
    a.options.seed = a.seed;
    return a;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One reported metric.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Merges checks by name: a check passes only if it passed every time.
void merge_checks(std::vector<Check>& into, const std::vector<Check>& from) {
    for (const Check& c : from) {
        auto it = std::find_if(into.begin(), into.end(),
                               [&](const Check& x) { return x.name == c.name; });
        if (it == into.end()) {
            into.push_back(c);
        } else if (!c.ok && it->ok) {
            *it = c;
        }
    }
}

void print_checks(const std::vector<Check>& checks) {
    std::printf("\n%-22s %-5s %s\n", "check", "ok", "detail");
    for (const Check& c : checks) {
        std::printf("%-22s %-5s %s\n", c.name.c_str(), c.ok ? "yes" : "NO",
                    c.detail.c_str());
    }
}

/// The final stdout line: the machine-readable result of the run.
void print_json(const std::vector<Check>& checks,
                const std::vector<Metric>& metrics) {
    std::size_t failed = 0;
    for (const Check& c : checks) failed += c.ok ? 0 : 1;
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.size());
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/// The digest line perfbench/run.py compares with perfbench/digests.json.
void print_digest(std::uint64_t world_seed, const Iteration& it) {
    std::printf("result digest of world seed %llu: %s\n",
                static_cast<unsigned long long>(world_seed),
                hex(fnv1a(it.result_text)).c_str());
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- tracing off: end-to-end metrics ---------------------------------------

/// Appends up to `count` set-up-only samples to `out`, taking the run's
/// `worlds` in turn and pinning each sample to the next CPU the process may
/// run on, and stops before the samples would take more than `budget_s`.
/// The vCPUs of a shared host differ in speed by up to 40% for seconds at
/// a time, so samples from one CPU at one moment would report that CPU's
/// speed rather than the cost of set-up.
void sample_setups(Workload& w, std::size_t worlds, std::size_t count,
                   double budget_s, std::vector<double>& out) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
        }
    }
    double spent = 0.0;
    for (std::size_t j = 0; j < count && spent + median(out) <= budget_s;
         ++j) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[j % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        out.push_back(w.setup_only(j % worlds));
        spent += out.back();
    }
    // Worker threads inherit the mask: restore it before the next drive.
    if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
}

/// While alive, moves the thread that created it to the next CPU the
/// process may use every 20 ms, then restores its mask.  The same vCPU-speed
/// differences that sample_setups spreads out also hit whole worlds: the
/// scheduler can leave a single-threaded world on one slow vCPU for all of
/// its 10+ s.  Rotating gives every world the same mix of CPUs.  Only for
/// single-threaded drives: threads started meanwhile would inherit a
/// one-CPU mask.
class CpuRotation {
  public:
    CpuRotation() : target_(pthread_self()) {
        CPU_ZERO(&allowed_);
        if (pthread_getaffinity_np(target_, sizeof allowed_, &allowed_) != 0) {
            return;
        }
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
        }
        if (cpus_.size() > 1) {
            thread_ = std::jthread([this](std::stop_token stop) { rotate(stop); });
        }
    }
    ~CpuRotation() {
        if (!thread_.joinable()) return;
        thread_.request_stop();
        thread_.join();
        pthread_setaffinity_np(target_, sizeof allowed_, &allowed_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

  private:
    void rotate(const std::stop_token& stop) {
        std::mutex m;
        std::condition_variable_any cv;
        std::unique_lock lock(m);
        for (std::size_t j = 0;; ++j) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[j % cpus_.size()], &one);
            pthread_setaffinity_np(target_, sizeof one, &one);
            if (cv.wait_for(lock, stop, std::chrono::seconds(1),
                            [&] { return stop.stop_requested(); })) {
                return;
            }
        }
    }

    pthread_t target_;
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::jthread thread_;  // last: uses the members above
};

int run_untraced(const Args& args, Workload& w) {
    // One iteration per world: the seed-to-seed spread of a single world is
    // wider than the bounds, so a run's figures pool several worlds.
    // Set-up is cheap on some workloads, so after each world the run adds
    // set-up-only samples within a tenth of that world's time; spread over
    // the run, they give a steady median.
    std::vector<Iteration> its;
    std::vector<double> setups;
    for (std::size_t i = 0; i < args.worlds; ++i) {
        {
            std::optional<CpuRotation> rotation;
            if (w.jobs() == 1) rotation.emplace();
            its.push_back(w.run(w.jobs(), i));
        }
        setups.push_back(its.back().setup_s);
        sample_setups(w, args.worlds, 64, 0.1 * its.back().wall_s, setups);
    }

    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<Check> checks;
    std::printf("%-6s %-20s %-10s %-10s %-10s %-10s %s\n", "world", "seed",
                "wall_s", "setup_s", "drive_s", "audit_s", "sim_s_per_wall");
    for (std::size_t i = 0; i < its.size(); ++i) {
        const Iteration& it = its[i];
        walls.push_back(it.wall_s);
        rates.push_back(ratio(it.sim_seconds, it.drive_s));
        std::printf("%-6zu %-20llu %-10.4f %-10.4f %-10.4f %-10.4f %.2f\n", i,
                    static_cast<unsigned long long>(world_seed(args.seed, i)),
                    it.wall_s, it.setup_s, it.drive_s, it.audit_s,
                    rates.back());
        merge_checks(checks, it.checks);
    }
    for (std::size_t i = 0; i < its.size(); ++i) {
        print_digest(world_seed(args.seed, i), its[i]);
    }
    // The result the digest covers, up to its first 24 lines.
    const std::string& text = its.front().result_text;
    std::size_t cut = 0;
    for (int line = 0; line < 24 && cut != std::string::npos; ++line) {
        cut = text.find('\n', cut == 0 ? 0 : cut + 1);
    }
    std::printf("\nresult of world 0 (seed %llu):\n%s%s",
                static_cast<unsigned long long>(args.seed),
                text.substr(0, cut == std::string::npos ? cut : cut + 1)
                    .c_str(),
                cut == std::string::npos ? "" : "...\n");
    Quality q;
    for (const Iteration& it : its) {
        q.messages += it.quality.messages;
        q.wrong += it.quality.wrong;
        q.diagnosed += it.quality.diagnosed;
        q.false_accusations += it.quality.false_accusations;
    }
    std::printf("quality over all worlds: wrong_diagnosis_frac %.4f "
                "(%llu / %llu), false_accusation_frac %.4f (%llu / %llu)\n",
                ratio(static_cast<double>(q.wrong),
                      static_cast<double>(q.messages)),
                static_cast<unsigned long long>(q.wrong),
                static_cast<unsigned long long>(q.messages),
                ratio(static_cast<double>(q.false_accusations),
                      static_cast<double>(q.diagnosed)),
                static_cast<unsigned long long>(q.false_accusations),
                static_cast<unsigned long long>(q.diagnosed));

    // Pooled over the worlds (mean wall, total simulated over total drive
    // seconds): with two to four worlds a run, the mean spreads less across
    // seeds than the median.
    double sim_total = 0.0;
    double drive_total = 0.0;
    for (const Iteration& it : its) {
        sim_total += it.sim_seconds;
        drive_total += it.drive_s;
    }
    const std::vector<Metric> metrics = {
        {"wall_s",
         std::accumulate(walls.begin(), walls.end(), 0.0) /
             static_cast<double>(walls.size()),
         "s"},
        {"setup_s", median(setups), "s"},
        {"sim_s_per_wall_s", ratio(sim_total, drive_total), "sim-s/s"},
    };
    std::printf("\n%-18s %-14s %s   (pooled over %zu worlds; setup_s the "
                "median of %zu set-ups)\n",
                "metric", "value", "unit", its.size(), setups.size());
    for (const Metric& m : metrics) {
        std::printf("%-18s %-14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("%-18s %-14.6g %s   (not bounded: varies with the seed)\n",
                "peak_rss_mb", peak_rss_mib(), "MiB");
    print_checks(checks);
    print_json(checks, metrics);
    return 0;
}

// --- tracing on: per-layer metrics and attribution -------------------------

/// Wall-span totals of one traced iteration.
struct SpanTotals {
    std::map<spans::SpanType, double> seconds;     // wall spans only
    std::map<spans::SpanType, std::uint64_t> count;  // every clock
    double mle_nested_s = 0.0;  ///< mle_solve inside heavyweight_session
};

SpanTotals sum_spans(const std::vector<spans::Event>& events) {
    SpanTotals t;
    // Heavyweight intervals per recording thread, for nesting mle_solve.
    std::map<std::uint16_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        hw;
    for (const spans::Event& e : events) {
        ++t.count[e.type];
        if (e.wall_begin == spans::kNoClock || e.wall_end == spans::kNoClock) {
            continue;
        }
        t.seconds[e.type] += static_cast<double>(e.wall_end - e.wall_begin) *
                             1e-9;
        if (e.type == spans::SpanType::kHeavyweightSession) {
            hw[e.thread].emplace_back(e.wall_begin, e.wall_end);
        }
    }
    for (auto& [thread, v] : hw) std::sort(v.begin(), v.end());
    for (const spans::Event& e : events) {
        if (e.type != spans::SpanType::kMleSolve ||
            e.wall_begin == spans::kNoClock) {
            continue;
        }
        const auto found = hw.find(e.thread);
        if (found == hw.end()) continue;
        const auto& v = found->second;
        auto it = std::upper_bound(
            v.begin(), v.end(),
            std::make_pair(e.wall_begin, std::numeric_limits<std::int64_t>::max()));
        if (it == v.begin()) continue;
        --it;
        if (it->first <= e.wall_begin && e.wall_end <= it->second) {
            t.mle_nested_s +=
                static_cast<double>(e.wall_end - e.wall_begin) * 1e-9;
        }
    }
    return t;
}

std::int64_t counter(const util::metrics::Snapshot& snap,
                     std::string_view name) {
    for (const auto& c : snap.counters) {
        if (c.name == name) return c.value;
    }
    return 0;
}

double gauge(const util::metrics::Snapshot& snap, std::string_view name) {
    for (const auto& g : snap.gauges) {
        if (g.name == name) return g.value;
    }
    return 0.0;
}

/// One attribution row: wall seconds of the traced iteration owned by a
/// layer.  Nested rows run inside another row (on worker threads their
/// seconds are busy time) and are not summed.
struct Row {
    std::string name;
    double seconds = 0.0;
    bool nested = false;
};

void print_attribution(const std::vector<Row>& rows, double wall) {
    static const char* const kLayers[] = {
        "net", "overlay", "tomography", "crypto", "core",
        "dht", "runtime", "sim", "daemon", "unattributed"};
    std::printf("\nattribution of the traced iteration (wall_s %.4f)\n",
                wall);
    std::printf("%-30s %-10s %-8s\n", "phase", "seconds", "share");
    for (const Row& r : rows) {
        std::printf("%s%-*s %-10.4f %-7.1f%%%s\n", r.nested ? "  " : "",
                    r.nested ? 28 : 30, r.name.c_str(), r.seconds,
                    100.0 * ratio(r.seconds, wall),
                    r.nested ? "  (nested, busy)" : "");
    }
    std::printf("\n%-30s %-10s %-8s\n", "layer", "seconds", "share");
    for (const char* layer : kLayers) {
        double s = 0.0;
        for (const Row& r : rows) {
            if (r.nested) continue;
            const std::string prefix = r.name.substr(0, r.name.find('.'));
            if (prefix == layer) s += r.seconds;
        }
        const bool counted_only =
            std::strcmp(layer, "crypto") == 0 || std::strcmp(layer, "dht") == 0;
        std::printf("%-30s %-10.4f %-7.1f%%%s\n", layer, s,
                    100.0 * ratio(s, wall),
                    counted_only ? "  (runs inside runtime; see counters)"
                                 : "");
    }
}

/// What each per-layer metric is for: its source and the end-to-end metric
/// and workloads it should move (printed beside the value).
struct LayerDoc {
    const char* name;
    const char* unit;
    const char* source;
    const char* moves;
};

constexpr LayerDoc kLayerDocs[] = {
    {"net.topology_gen_s", "s", "span", "setup_s; scan_world"},
    {"overlay.build_s", "s", "span", "setup_s; scan_world"},
    {"tomography.tree_build_s", "s", "span", "setup_s; scan_world"},
    {"net.failure_timeline_s", "s", "span", "setup_s; scan_world"},
    {"net.bfs_ms_per_source", "ms", "unit", "setup_s; scan_world"},
    {"tomography.path_bytes", "bytes", "timed", "peak_rss_mb; scan_world"},
    {"tomography.heavyweight_s", "s", "span", "sim_s_per_wall_s; protocol_e2e"},
    {"tomography.mle_s", "s", "span", "sim_s_per_wall_s; protocol_e2e"},
    {"tomography.stripes_sampled", "count", "ctr", "unchanged"},
    {"tomography.probes_issued", "count", "ctr", "unchanged"},
    {"tomography.lightweight_rounds", "count", "ctr", "unchanged"},
    {"tomography.heavyweight_sessions", "count", "ctr", "unchanged"},
    {"tomography.solver_iterations", "count", "ctr", "unchanged"},
    {"tomography.ns_per_stripe", "ns", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"tomography.us_per_lightweight", "us", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"tomography.us_per_verification", "us", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"tomography.us_per_mle", "us", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"tomography.us_per_snapshot", "us", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"runtime.ns_per_archive_add", "ns", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"runtime.ns_per_digest_lookup", "ns", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"runtime.snapshots_published", "count", "ctr", "unchanged"},
    {"runtime.snapshot_reject_ratio", "ratio", "ctr",
     "false accusations; daemon_day"},
    {"runtime.forward_attempts", "count", "ctr", "unchanged"},
    {"net.events_executed", "count", "ctr", "unchanged"},
    {"net.queue_high_water", "count", "ctr", "peak_rss_mb; protocol_e2e"},
    {"net.ns_per_dispatch", "ns", "unit",
     "sim_s_per_wall_s; protocol_e2e, daemon_day"},
    {"crypto.verify_cache_hit_ratio", "ratio", "ctr",
     "sim_s_per_wall_s; protocol_e2e"},
    {"core.blame_evaluations", "count", "ctr", "unchanged"},
    {"core.verdict_evaluations", "count", "ctr", "unchanged"},
    {"core.us_per_blame", "us", "unit", "judgments_per_s; scan_world"},
    {"core.accusations_verified", "count", "ctr", "unchanged"},
    {"core.wrong_diagnosis_frac", "ratio", "ctr", "quality; all"},
    {"core.false_accusation_frac", "ratio", "ctr", "quality; all"},
    {"core.judgments_per_s", "1/s", "timed", "wall_s; scan_world"},
    {"dht.puts", "count", "ctr", "unchanged"},
    {"dht.gets", "count", "ctr", "unchanged"},
    {"dht.puts_rejected_quota", "count", "ctr", "unchanged"},
    {"sim.driver_worker_utilization", "ratio", "ctr", "wall_s; scan_world"},
    {"daemon.checkpoints_written", "count", "ctr", "unchanged"},
    {"daemon.ticks", "count", "ctr", "unchanged"},
    {"util.unattributed_s", "s", "timed", "wall_s; all"},
    {"util.tracing_overhead_s", "s", "timed", "none (cost of tracing)"},
    {"util.spans_recorded", "count", "ctr", "unchanged"},
    {"util.peak_rss_mb", "MiB", "timed", "memory; all (after the untraced run)"},
};

int run_traced(const Args& args, Workload& w) {
    using spans::SpanType;
    std::vector<Check> checks;

    const Iteration base = w.run(w.jobs(), 0);
    merge_checks(checks, base.checks);
    const double base_rss = peak_rss_mib();

    auto& registry = util::metrics::Registry::global();
    auto& recorder = spans::Recorder::global();
    registry.reset();
    recorder.clear();
    recorder.enable(w.span_capacity());
    const Iteration traced = w.run(w.jobs(), 0);
    recorder.disable();
    merge_checks(checks, traced.checks);
    const auto snap = registry.snapshot();
    const std::vector<spans::Event> events = recorder.collect();
    const std::uint64_t dropped = recorder.total_dropped();
    const SpanTotals st = sum_spans(events);
    const auto count_of = [&](SpanType t) {
        const auto it = st.count.find(t);
        return it == st.count.end() ? std::uint64_t{0} : it->second;
    };
    const auto secs = [&](SpanType t) {
        const auto it = st.seconds.find(t);
        return it == st.seconds.end() ? 0.0 : it->second;
    };

    checks.push_back({"spans_lossless", dropped == 0,
                      std::to_string(events.size()) + " spans kept, " +
                          std::to_string(dropped) + " dropped"});
    const auto hw_counter = static_cast<std::uint64_t>(
        counter(snap, "tomography.heavyweight_sessions"));
    const std::uint64_t hw_spans = count_of(SpanType::kHeavyweightSession);
    checks.push_back({"heavyweight_spans", hw_spans + traced.timed_sessions ==
                                               hw_counter,
                      std::to_string(hw_spans) + " spans + " +
                          std::to_string(traced.timed_sessions) +
                          " harness-timed vs counter " +
                          std::to_string(hw_counter)});
    const auto mle_counter = static_cast<std::uint64_t>(
        counter(snap, "tomography.inference_runs"));
    checks.push_back({"mle_spans", count_of(SpanType::kMleSolve) == mle_counter,
                      std::to_string(count_of(SpanType::kMleSolve)) +
                          " spans vs counter " + std::to_string(mle_counter)});
    checks.push_back({"tree_build_spans", count_of(SpanType::kTreeBuild) == 1,
                      std::to_string(count_of(SpanType::kTreeBuild)) +
                          " tree_build spans for 1 world"});
    checks.push_back({"determinism", traced.result_text == base.result_text,
                      "seed " + std::to_string(args.seed) +
                          " gives digest " + hex(fnv1a(base.result_text)) +
                          " untraced and " + hex(fnv1a(traced.result_text)) +
                          " traced"});
    if (w.check_jobs() != 0) {
        const std::string other = w.redrive(w.check_jobs());
        checks.push_back({"workers_agree", other == traced.result_text,
                          std::to_string(w.jobs()) + " workers " +
                              hex(fnv1a(traced.result_text)) + ", " +
                              std::to_string(w.check_jobs()) + " workers " +
                              hex(fnv1a(other))});
    }

    const Replays rep = replay_kernels(w.world(), args.seed);
    const auto extras = w.extra_replays();
    const std::size_t path_bytes = w.world().trees().path_bytes();

    // Attribution: set-up from the world-build spans, drive from the
    // harness's phase clocks and the heavyweight/MLE spans, then audit.
    const double hw_total = secs(SpanType::kHeavyweightSession);
    const double mle_total = secs(SpanType::kMleSolve);
    const double hw_self = hw_total - st.mle_nested_s;
    std::vector<Row> rows;
    double setup_spans = 0.0;
    const auto setup_row = [&](const char* name, double s) {
        rows.push_back({name, s});
        setup_spans += s;
    };
    const bool is_daemon = traced.phase("daemon.construct") > 0.0;
    if (is_daemon) {
        setup_row("daemon.trace_parse", traced.phase("daemon.trace_parse"));
    }
    setup_row("net.topology_gen", secs(SpanType::kTopologyGen));
    setup_row("overlay.build", secs(SpanType::kOverlayBuild));
    setup_row("tomography.tree_build", secs(SpanType::kTreeBuild));
    setup_row("net.failure_timeline", secs(SpanType::kFailureTimeline));
    setup_row("sim.scenario_index", secs(SpanType::kScenarioIndex) +
                                        secs(SpanType::kFaultPlan));
    rows.push_back({is_daemon ? "daemon.construct_other" : "sim.setup_other",
                    traced.setup_s - setup_spans});
    const double coverage = traced.phase("sim.coverage");
    if (coverage > 0.0) {
        const double slice = traced.phase("sim.diagnosis_slice");
        rows.push_back({"sim.coverage", coverage});
        rows.push_back({"sim.diagnosis_slice", slice});
        rows.push_back({"core.blame", traced.phase("core.blame"), true});
        rows.push_back({"tomography.heavyweight",
                        traced.phase("tomography.heavyweight"), true});
        rows.push_back({"tomography.mle", mle_total, true});
        rows.push_back({"sim.drive_other", traced.drive_s - coverage - slice});
    } else {
        const double start = traced.phase("runtime.start");
        if (start > 0.0) rows.push_back({"runtime.start", start});
        rows.push_back({"tomography.heavyweight", hw_self});
        rows.push_back({"tomography.mle", st.mle_nested_s});
        rows.push_back({"runtime.self", traced.drive_s - start - hw_total});
    }
    rows.push_back({"core.audit", traced.audit_s});
    const double unattributed =
        traced.wall_s - traced.setup_s - traced.drive_s - traced.audit_s;
    rows.push_back({"unattributed", unattributed});

    const Quality& q = traced.quality;
    const double hits =
        static_cast<double>(counter(snap, "crypto.verify.cache_hit"));
    const double misses =
        static_cast<double>(counter(snap, "crypto.verify.cache_miss"));
    const auto ctr = [&](const char* name) {
        return static_cast<double>(counter(snap, name));
    };
    const std::map<std::string, double> values = {
        {"net.topology_gen_s", secs(SpanType::kTopologyGen)},
        {"overlay.build_s", secs(SpanType::kOverlayBuild)},
        {"tomography.tree_build_s", secs(SpanType::kTreeBuild)},
        {"net.failure_timeline_s", secs(SpanType::kFailureTimeline)},
        {"net.bfs_ms_per_source", rep.bfs_ms_per_source},
        {"tomography.path_bytes", static_cast<double>(path_bytes)},
        {"tomography.heavyweight_s",
         hw_self + traced.phase("tomography.heavyweight")},
        {"tomography.mle_s", mle_total},
        {"tomography.stripes_sampled", ctr("tomography.stripes_sampled")},
        {"tomography.probes_issued", ctr("tomography.probes_issued")},
        {"tomography.lightweight_rounds", ctr("tomography.lightweight_rounds")},
        {"tomography.heavyweight_sessions",
         ctr("tomography.heavyweight_sessions")},
        {"tomography.solver_iterations", ctr("tomography.solver_iterations")},
        {"tomography.ns_per_stripe", rep.ns_per_stripe},
        {"tomography.us_per_lightweight", rep.us_per_lightweight},
        {"tomography.us_per_verification", rep.us_per_verification},
        {"tomography.us_per_mle", rep.us_per_mle},
        {"tomography.us_per_snapshot", rep.us_per_snapshot},
        {"runtime.ns_per_archive_add", rep.ns_per_archive_add},
        {"runtime.ns_per_digest_lookup", rep.ns_per_digest_lookup},
        {"runtime.snapshots_published",
         static_cast<double>(traced.clusters.snapshots_published)},
        {"runtime.snapshot_reject_ratio",
         ratio(static_cast<double>(traced.clusters.snapshots_rejected),
               static_cast<double>(traced.clusters.snapshots_published))},
        {"runtime.forward_attempts", ctr("runtime.retry.forward_attempts")},
        {"net.events_executed", ctr("net.events_executed")},
        {"net.queue_high_water",
         gauge(snap, "net.eventsim.queue_high_water")},
        {"net.ns_per_dispatch", rep.ns_per_dispatch},
        {"crypto.verify_cache_hit_ratio", ratio(hits, hits + misses)},
        {"core.blame_evaluations", ctr("core.blame_evaluations")},
        {"core.verdict_evaluations", ctr("core.verdict_evaluations")},
        {"core.us_per_blame", rep.us_per_blame},
        {"core.accusations_verified", ctr("core.accusations_verified")},
        {"core.wrong_diagnosis_frac",
         ratio(static_cast<double>(q.wrong), static_cast<double>(q.messages))},
        {"core.false_accusation_frac",
         ratio(static_cast<double>(q.false_accusations),
               static_cast<double>(q.diagnosed))},
        {"core.judgments_per_s",
         ratio(ctr("core.blame_evaluations"), traced.drive_s)},
        {"dht.puts", ctr("dht.puts")},
        {"dht.gets", ctr("dht.gets")},
        {"dht.puts_rejected_quota", ctr("dht.puts_rejected_quota")},
        {"sim.driver_worker_utilization",
         gauge(snap, "sim.driver_worker_utilization")},
        {"daemon.checkpoints_written", ctr("daemon.checkpoints_written")},
        {"daemon.ticks", ctr("daemon.ticks")},
        {"util.unattributed_s", unattributed},
        {"util.tracing_overhead_s", traced.wall_s - base.wall_s},
        {"util.spans_recorded", static_cast<double>(events.size())},
        {"util.peak_rss_mb", base_rss},
    };

    print_digest(args.seed, base);
    std::printf("untraced wall_s %.4f, traced wall_s %.4f: tracing overhead "
                "%.4f s\n",
                base.wall_s, traced.wall_s, traced.wall_s - base.wall_s);
    print_attribution(rows, traced.wall_s);

    std::vector<Metric> metrics;
    std::printf("\n%-34s %-14s %-6s %-6s %s\n", "per-layer metric", "value",
                "unit", "source", "should move (end-to-end; workload)");
    for (const LayerDoc& d : kLayerDocs) {
        const double v = values.at(d.name);
        metrics.push_back({d.name, v, d.unit});
        std::printf("%-34s %-14.6g %-6s %-6s %s\n", d.name, v, d.unit,
                    d.source, d.moves);
    }
    for (const auto& [name, us] : extras) {
        std::printf("%-34s %-14.6g %-6s %-6s %s\n", name.c_str(), us, "us",
                    "unit", "wall_s; daemon_day (table only)");
    }
    print_checks(checks);
    print_json(checks, metrics);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Args args = parse_args(argc, argv);
    try {
        const auto workload = make_workload(args.workload, args.options);
        if (workload == nullptr) usage(argv[0]);
        std::printf("# perfbench workload=%s seed=%llu trace=%d worlds=%zu\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.trace,
                    args.trace == 0 ? args.worlds : std::size_t{1});
        return args.trace == 0 ? run_untraced(args, *workload)
                               : run_traced(args, *workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
