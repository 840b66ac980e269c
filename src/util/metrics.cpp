#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/json.h"

namespace concilium::util::metrics {

namespace detail {

std::size_t this_thread_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

}  // namespace detail

// --------------------------------------------------------------------------
// HistogramMetric

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
    if (!(hi > lo) || bins == 0) {
        throw std::invalid_argument("HistogramMetric: bad geometry");
    }
    width_ = (hi - lo) / static_cast<double>(bins);
    counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bins);
    for (std::size_t i = 0; i < bins_; ++i) {
        counts_[i].store(0, std::memory_order_relaxed);
    }
}

void HistogramMetric::observe(double x) noexcept {
    auto bin = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    if (bin < 0) bin = 0;
    if (bin >= static_cast<std::ptrdiff_t>(bins_)) {
        bin = static_cast<std::ptrdiff_t>(bins_) - 1;
    }
    counts_[static_cast<std::size_t>(bin)].fetch_add(1,
                                                     std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(static_cast<std::int64_t>(std::llround(x * 1e9)),
                         std::memory_order_relaxed);
}

std::int64_t HistogramMetric::count(std::size_t bin) const noexcept {
    return counts_[bin].load(std::memory_order_relaxed);
}

std::int64_t HistogramMetric::total() const noexcept {
    return total_.load(std::memory_order_relaxed);
}

double HistogramMetric::sum() const noexcept {
    // 1e9 is exactly representable, so e.g. 250000000 nanos divides to an
    // exact 0.25 (multiplying by the inexact 1e-9 would not).
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
           1e9;
}

double HistogramMetric::upper_edge(std::size_t bin) const noexcept {
    return lo_ + width_ * static_cast<double>(bin + 1);
}

void HistogramMetric::reset() noexcept {
    for (std::size_t i = 0; i < bins_; ++i) {
        counts_[i].store(0, std::memory_order_relaxed);
    }
    total_.store(0, std::memory_order_relaxed);
    sum_nanos_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// SeriesMetric

SeriesMetric::SeriesMetric(std::int64_t window_us, std::size_t windows,
                           Mode mode)
    : window_us_(window_us), windows_(windows), mode_(mode) {
    if (window_us <= 0 || windows == 0) {
        throw std::invalid_argument("SeriesMetric: bad geometry");
    }
    buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(windows);
    for (std::size_t i = 0; i < windows_; ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

double Snapshot::HistogramValue::upper_edge(std::size_t bin) const noexcept {
    const double width = (hi - lo) / static_cast<double>(counts.size());
    return lo + width * static_cast<double>(bin + 1);
}

// --------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
    // Intentionally leaked: atexit-registered exporters (bench --metrics-out)
    // must be able to snapshot after static destructors start running.
    static Registry* instance = new Registry(/*preregister_well_known=*/true);
    return *instance;
}

namespace {

// The well-known instrument catalogue.  Every name the codebase's
// instrumentation sites use is listed here so a snapshot from *any* binary
// exposes the full `tomography/overlay/core/net/runtime/sim` namespace set
// with zeros rather than omitting untouched subsystems.  Keep in sync with
// OBSERVABILITY.md.
struct WellKnown {
    enum Kind { kCounter, kGauge, kHistogram } kind;
    const char* name;
    bool timing = false;
    double lo = 0.0;
    double hi = 1.0;
    std::size_t bins = 20;
};

constexpr WellKnown kWellKnown[] = {
    // net — event queue and transport.
    {WellKnown::kCounter, "net.events_scheduled"},
    {WellKnown::kCounter, "net.events_executed"},
    {WellKnown::kGauge, "net.eventsim.queue_high_water"},
    // net — path oracle: routers its per-source BFSs queued.
    {WellKnown::kCounter, "net.bfs_routers_expanded"},
    // crypto — snapshot signature checks, one per seal.
    {WellKnown::kCounter, "crypto.verify.cache_hit"},
    {WellKnown::kCounter, "crypto.verify.cache_miss"},
    {WellKnown::kCounter, "net.packets_sent"},
    {WellKnown::kCounter, "net.packets_delivered"},
    {WellKnown::kCounter, "net.packets_dropped"},
    // tomography — probing and MINC inference.
    {WellKnown::kCounter, "tomography.stripes_sampled"},
    {WellKnown::kCounter, "tomography.stripe_runs"},
    {WellKnown::kCounter, "tomography.probes_issued"},
    {WellKnown::kCounter, "tomography.probes_lost"},
    {WellKnown::kCounter, "tomography.probe_acks"},
    {WellKnown::kCounter, "tomography.acks_suppressed"},
    {WellKnown::kCounter, "tomography.acks_fabricated"},
    {WellKnown::kCounter, "tomography.lightweight_rounds"},
    {WellKnown::kCounter, "tomography.heavyweight_sessions"},
    {WellKnown::kCounter, "tomography.inference_runs"},
    {WellKnown::kCounter, "tomography.solver_calls"},
    {WellKnown::kCounter, "tomography.solver_iterations"},
    {WellKnown::kHistogram, "tomography.link_loss_estimate", false, 0.0, 1.0,
     20},
    // overlay — density tests and advertisement validation.
    {WellKnown::kCounter, "overlay.density_tests"},
    {WellKnown::kCounter, "overlay.density_rejections"},
    {WellKnown::kCounter, "overlay.leaf_density_tests"},
    {WellKnown::kCounter, "overlay.leaf_density_rejections"},
    {WellKnown::kCounter, "overlay.density_model_evaluations"},
    {WellKnown::kCounter, "overlay.occupancy_samples"},
    {WellKnown::kCounter, "overlay.ads_validated"},
    {WellKnown::kCounter, "overlay.ads_accepted"},
    {WellKnown::kCounter, "overlay.ads_rejected"},
    {WellKnown::kCounter, "overlay.ad_reject.bad_owner_signature"},
    {WellKnown::kCounter, "overlay.ad_reject.malformed_entry"},
    {WellKnown::kCounter, "overlay.ad_reject.constraint_violation"},
    {WellKnown::kCounter, "overlay.ad_reject.bad_entry_timestamp"},
    {WellKnown::kCounter, "overlay.ad_reject.stale_entry"},
    {WellKnown::kCounter, "overlay.ad_reject.too_sparse"},
    // core — blame, verdicts, attribution, accusations.
    {WellKnown::kCounter, "core.blame_evaluations"},
    {WellKnown::kCounter, "core.blame_probes_admitted"},
    {WellKnown::kHistogram, "core.blame_score", false, 0.0, 1.0, 20},
    {WellKnown::kCounter, "core.verdict_evaluations"},
    {WellKnown::kCounter, "core.verdicts_guilty"},
    {WellKnown::kCounter, "core.verdicts_innocent"},
    {WellKnown::kCounter, "core.ledger_verdicts"},
    {WellKnown::kCounter, "core.accusations_triggered"},
    {WellKnown::kCounter, "core.accusation_model_evaluations"},
    {WellKnown::kCounter, "core.attributions"},
    {WellKnown::kCounter, "core.attribution_node_blamed"},
    {WellKnown::kCounter, "core.attribution_network_blamed"},
    {WellKnown::kCounter, "core.accusations_verified"},
    {WellKnown::kCounter, "core.accusation_checks_failed"},
    {WellKnown::kCounter, "core.equivocation_proofs_verified"},
    {WellKnown::kCounter, "core.equivocation_checks_failed"},
    {WellKnown::kCounter, "core.bandwidth_evaluations"},
    {WellKnown::kCounter, "core.verdicts_retracted"},
    // runtime — the event-driven cluster.
    {WellKnown::kCounter, "runtime.messages_sent"},
    {WellKnown::kCounter, "runtime.messages_delivered"},
    {WellKnown::kCounter, "runtime.messages_dropped_by_forwarder"},
    {WellKnown::kCounter, "runtime.messages_dropped_by_network"},
    {WellKnown::kCounter, "runtime.snapshots_published"},
    {WellKnown::kCounter, "runtime.snapshots_rejected"},
    {WellKnown::kCounter, "runtime.revisions_pushed"},
    {WellKnown::kCounter, "runtime.revisions_applied"},
    {WellKnown::kCounter, "runtime.accusations_filed"},
    {WellKnown::kCounter, "runtime.commitments_issued"},
    {WellKnown::kCounter, "runtime.commitments_refused"},
    {WellKnown::kCounter, "runtime.trace_records"},
    {WellKnown::kCounter, "runtime.churn_leaves"},
    {WellKnown::kCounter, "runtime.churn_rejoins"},
    // runtime.retry — bounded backoff for forwarding and snapshot exchange.
    {WellKnown::kCounter, "runtime.retry.forward_attempts"},
    {WellKnown::kCounter, "runtime.retry.reacks"},
    {WellKnown::kCounter, "runtime.retry.snapshot_attempts"},
    {WellKnown::kCounter, "runtime.retry.snapshot_retries"},
    {WellKnown::kCounter, "runtime.retry.snapshot_exhausted"},
    {WellKnown::kHistogram, "runtime.retry.backoff_seconds", false, 0.0,
     16.0, 32},
    // chaos — deterministic fault injection (net/chaos.h).
    {WellKnown::kCounter, "chaos.plans_built"},
    {WellKnown::kCounter, "chaos.flap_intervals"},
    {WellKnown::kCounter, "chaos.correlated_outages"},
    {WellKnown::kCounter, "chaos.loss_spikes"},
    {WellKnown::kCounter, "chaos.churn_events"},
    {WellKnown::kCounter, "chaos.packets_reordered"},
    {WellKnown::kCounter, "chaos.packets_duplicated"},
    {WellKnown::kCounter, "chaos.duplicates_suppressed"},
    {WellKnown::kCounter, "chaos.acks_delayed"},
    {WellKnown::kCounter, "chaos.crash_events"},
    {WellKnown::kCounter, "chaos.partition_events"},
    // chaos soak scoring (bench/soak --chaos).
    {WellKnown::kCounter, "chaos.diagnosed_messages"},
    {WellKnown::kCounter, "chaos.false_accusations"},
    {WellKnown::kCounter, "chaos.correct_accusations"},
    // attack — Byzantine campaign activity (runtime/attack.h).
    {WellKnown::kCounter, "attack.nodes_recruited"},
    {WellKnown::kCounter, "attack.equivocations_published"},
    {WellKnown::kCounter, "attack.replays_published"},
    {WellKnown::kCounter, "attack.slanders_filed"},
    {WellKnown::kCounter, "attack.spam_puts"},
    {WellKnown::kCounter, "attack.collusions_pushed"},
    // attack soak scoring (bench/soak --attack).
    {WellKnown::kCounter, "attack.diagnosed_messages"},
    {WellKnown::kCounter, "attack.false_accusations"},
    {WellKnown::kCounter, "attack.attackers_with_drops"},
    {WellKnown::kCounter, "attack.attackers_caught"},
    {WellKnown::kCounter, "attack.attackers_evaded"},
    {WellKnown::kCounter, "attack.slander_successes"},
    // recovery — crash-stop, journal replay, degraded-mode diagnosis
    // (RECOVERY.md).
    {WellKnown::kCounter, "recovery.crashes"},
    {WellKnown::kCounter, "recovery.restarts"},
    {WellKnown::kCounter, "recovery.journal_replays"},
    {WellKnown::kCounter, "recovery.announcements_sent"},
    {WellKnown::kCounter, "recovery.announcements_delivered"},
    {WellKnown::kCounter, "recovery.repairs_accepted"},
    {WellKnown::kCounter, "recovery.repairs_rejected"},
    {WellKnown::kCounter, "recovery.stewardships_resumed"},
    {WellKnown::kCounter, "recovery.stewardships_abandoned"},
    {WellKnown::kCounter, "recovery.handoffs_delivered"},
    {WellKnown::kCounter, "recovery.insufficient_evidence_verdicts"},
    // recovery soak scoring (bench/soak --chaos crash:/partition:).
    {WellKnown::kCounter, "recovery.soak_messages"},
    {WellKnown::kCounter, "recovery.diagnosed_messages"},
    {WellKnown::kCounter, "recovery.false_accusations"},
    {WellKnown::kCounter, "recovery.correct_attributions"},
    {WellKnown::kCounter, "recovery.insufficient_outcomes"},
    {WellKnown::kCounter, "recovery.orphaned_messages"},
    // partition — correlated bisections and their heals (RECOVERY.md).
    {WellKnown::kCounter, "partition.activations"},
    {WellKnown::kCounter, "partition.heals"},
    {WellKnown::kCounter, "partition.messages_blocked"},
    {WellKnown::kCounter, "partition.acks_blocked"},
    {WellKnown::kCounter, "partition.snapshots_blocked"},
    {WellKnown::kCounter, "partition.control_blocked"},
    {WellKnown::kCounter, "partition.resync_rounds"},
    // defense — evidence-integrity countermeasures.
    {WellKnown::kCounter, "defense.snapshots_rejected_stale"},
    {WellKnown::kCounter, "defense.snapshots_rejected_epoch"},
    {WellKnown::kCounter, "defense.equivocation_proofs_filed"},
    {WellKnown::kCounter, "defense.equivocation_scans"},
    {WellKnown::kCounter, "defense.revisions_rejected"},
    {WellKnown::kCounter, "defense.dht_puts_rejected"},
    {WellKnown::kCounter, "defense.malformed_accusations_dropped"},
    // dht — the accusation repository.
    {WellKnown::kCounter, "dht.puts"},
    {WellKnown::kCounter, "dht.gets"},
    {WellKnown::kCounter, "dht.puts_rejected_quota"},
    // sim — the experiment driver.  Trial *counts* are deterministic;
    // wall-clock derived instruments live in the timing section.
    {WellKnown::kCounter, "sim.driver_runs"},
    {WellKnown::kCounter, "sim.driver_trials"},
    {WellKnown::kCounter, "sim.driver_waves"},
    {WellKnown::kGauge, "sim.driver_jobs", true},
    {WellKnown::kGauge, "sim.driver_worker_utilization", true},
    {WellKnown::kGauge, "sim.driver_busy_seconds", true},
    {WellKnown::kHistogram, "sim.driver_run_seconds", true, 0.0, 60.0, 24},
    {WellKnown::kHistogram, "sim.driver_trial_seconds", true, 0.0, 0.05, 50},
    // daemon — conciliumd's trace-driven service loop (DAEMON.md).  The
    // run is deterministic end to end, so everything but the HTTP request
    // counter lives in the deterministic section.
    {WellKnown::kCounter, "daemon.trace_records"},
    {WellKnown::kCounter, "daemon.messages_fed"},
    {WellKnown::kCounter, "daemon.messages_delivered"},
    {WellKnown::kCounter, "daemon.messages_diagnosed"},
    {WellKnown::kCounter, "daemon.false_accusations"},
    {WellKnown::kCounter, "daemon.correct_attributions"},
    {WellKnown::kCounter, "daemon.insufficient_outcomes"},
    {WellKnown::kCounter, "daemon.orphaned_messages"},
    {WellKnown::kCounter, "daemon.churn_events"},
    {WellKnown::kCounter, "daemon.crash_events"},
    {WellKnown::kCounter, "daemon.fault_downs"},
    {WellKnown::kCounter, "daemon.attack_roles"},
    {WellKnown::kCounter, "daemon.checkpoints_written"},
    {WellKnown::kCounter, "daemon.resume_replays"},
    {WellKnown::kCounter, "daemon.ticks"},
    {WellKnown::kCounter, "daemon.io.write_errors"},
    {WellKnown::kCounter, "daemon.io.write_retries"},
    {WellKnown::kCounter, "daemon.io.checkpoints_quarantined"},
    {WellKnown::kCounter, "daemon.io.checkpoints_pruned"},
    {WellKnown::kGauge, "daemon.io.faults_injected"},
    {WellKnown::kGauge, "daemon.io.degraded"},
    {WellKnown::kCounter, "daemon.http_requests", true},
};

// Windowed sim-clock series (OBSERVABILITY.md "Windowed series").  Named
// `<counter>.by_minute` after the end-of-run total they decompose; every
// entry covers four sim-hours in one-minute windows (the soaks simulate
// two hours plus workload tail).
struct WellKnownSeries {
    const char* name;
    std::int64_t window_us = 60'000'000;  // one sim-minute
    std::size_t windows = 240;
    SeriesMetric::Mode mode = SeriesMetric::Mode::kSum;
};

constexpr WellKnownSeries kWellKnownSeries[] = {
    {"chaos.false_accusations.by_minute"},
    {"attack.false_accusations.by_minute"},
    {"recovery.false_accusations.by_minute"},
    {"runtime.retry.forward_attempts.by_minute"},
    {"partition.messages_blocked.by_minute"},
    {"net.eventsim.queue_depth.by_minute", 60'000'000, 240,
     SeriesMetric::Mode::kMax},
    // Daemon soaks simulate weeks, so these decompose by sim-hour instead
    // of sim-minute: 400 one-hour windows cover a 16-day run.
    {"daemon.messages_fed.by_hour", 3'600'000'000, 400,
     SeriesMetric::Mode::kSum},
    {"daemon.false_accusations.by_hour", 3'600'000'000, 400,
     SeriesMetric::Mode::kSum},
};

}  // namespace

Registry::Registry(bool preregister_well_known) {
    if (!preregister_well_known) return;
    for (const WellKnown& m : kWellKnown) {
        switch (m.kind) {
            case WellKnown::kCounter:
                m.timing ? timing_counter(m.name) : counter(m.name);
                break;
            case WellKnown::kGauge:
                m.timing ? timing_gauge(m.name) : gauge(m.name);
                break;
            case WellKnown::kHistogram:
                m.timing ? timing_histogram(m.name, m.lo, m.hi, m.bins)
                         : histogram(m.name, m.lo, m.hi, m.bins);
                break;
        }
    }
    for (const WellKnownSeries& s : kWellKnownSeries) {
        series(s.name, s.window_us, s.windows, s.mode);
    }
}

void Registry::require_unique(std::string_view name, const void* home) const {
    // Caller holds mutex_.  Kinds share one namespace.
    if (home != &counters_ && counters_.find(name) != counters_.end()) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' already registered as a counter");
    }
    if (home != &gauges_ && gauges_.find(name) != gauges_.end()) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' already registered as a gauge");
    }
    if (home != &histograms_ && histograms_.find(name) != histograms_.end()) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' already registered as a histogram");
    }
    if (home != &series_ && series_.find(name) != series_.end()) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' already registered as a series");
    }
}

Counter& Registry::counter_impl(std::string_view name, bool timing) {
    const std::lock_guard lock(mutex_);
    if (auto it = counters_.find(name); it != counters_.end()) {
        return *it->second.metric;
    }
    require_unique(name, &counters_);
    auto& entry = counters_[std::string(name)];
    entry.metric = std::make_unique<Counter>();
    entry.timing = timing;
    return *entry.metric;
}

Gauge& Registry::gauge_impl(std::string_view name, bool timing) {
    const std::lock_guard lock(mutex_);
    if (auto it = gauges_.find(name); it != gauges_.end()) {
        return *it->second.metric;
    }
    require_unique(name, &gauges_);
    auto& entry = gauges_[std::string(name)];
    entry.metric = std::make_unique<Gauge>();
    entry.timing = timing;
    return *entry.metric;
}

HistogramMetric& Registry::histogram_impl(std::string_view name, double lo,
                                          double hi, std::size_t bins,
                                          bool timing) {
    const std::lock_guard lock(mutex_);
    if (auto it = histograms_.find(name); it != histograms_.end()) {
        HistogramMetric& h = *it->second.metric;
        if (h.lo() != lo || h.hi() != hi || h.bins() != bins) {
            throw std::logic_error("histogram '" + std::string(name) +
                                   "' re-registered with different geometry");
        }
        return h;
    }
    require_unique(name, &histograms_);
    auto& entry = histograms_[std::string(name)];
    entry.metric = std::make_unique<HistogramMetric>(lo, hi, bins);
    entry.timing = timing;
    return *entry.metric;
}

SeriesMetric& Registry::series(std::string_view name, std::int64_t window_us,
                               std::size_t windows, SeriesMetric::Mode mode) {
    const std::lock_guard lock(mutex_);
    if (auto it = series_.find(name); it != series_.end()) {
        SeriesMetric& s = *it->second.metric;
        if (s.window_us() != window_us || s.windows() != windows ||
            s.mode() != mode) {
            throw std::logic_error("series '" + std::string(name) +
                                   "' re-registered with different geometry");
        }
        return s;
    }
    require_unique(name, &series_);
    auto& entry = series_[std::string(name)];
    entry.metric = std::make_unique<SeriesMetric>(window_us, windows, mode);
    entry.timing = false;
    return *entry.metric;
}

Counter& Registry::counter(std::string_view name) {
    return counter_impl(name, /*timing=*/false);
}
Gauge& Registry::gauge(std::string_view name) {
    return gauge_impl(name, /*timing=*/false);
}
HistogramMetric& Registry::histogram(std::string_view name, double lo,
                                     double hi, std::size_t bins) {
    return histogram_impl(name, lo, hi, bins, /*timing=*/false);
}
Counter& Registry::timing_counter(std::string_view name) {
    return counter_impl(name, /*timing=*/true);
}
Gauge& Registry::timing_gauge(std::string_view name) {
    return gauge_impl(name, /*timing=*/true);
}
HistogramMetric& Registry::timing_histogram(std::string_view name, double lo,
                                            double hi, std::size_t bins) {
    return histogram_impl(name, lo, hi, bins, /*timing=*/true);
}

Snapshot Registry::snapshot() const {
    const std::lock_guard lock(mutex_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, entry] : counters_) {
        snap.counters.push_back({name, entry.metric->value(), entry.timing});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, entry] : gauges_) {
        snap.gauges.push_back({name, entry.metric->value(), entry.timing});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, entry] : histograms_) {
        const HistogramMetric& h = *entry.metric;
        Snapshot::HistogramValue v;
        v.name = name;
        v.lo = h.lo();
        v.hi = h.hi();
        v.counts.resize(h.bins());
        for (std::size_t i = 0; i < h.bins(); ++i) v.counts[i] = h.count(i);
        v.total = h.total();
        v.sum = h.sum();
        v.timing = entry.timing;
        snap.histograms.push_back(std::move(v));
    }
    snap.series.reserve(series_.size());
    for (const auto& [name, entry] : series_) {
        const SeriesMetric& s = *entry.metric;
        Snapshot::SeriesValue v;
        v.name = name;
        v.window_us = s.window_us();
        v.maximum = s.mode() == SeriesMetric::Mode::kMax;
        v.clipped = s.clipped();
        v.timing = entry.timing;
        std::size_t last = 0;
        for (std::size_t i = 0; i < s.windows(); ++i) {
            if (s.value(i) != 0) last = i + 1;
        }
        v.values.resize(last);
        for (std::size_t i = 0; i < last; ++i) v.values[i] = s.value(i);
        snap.series.push_back(std::move(v));
    }
    return snap;
}

void Registry::reset() {
    const std::lock_guard lock(mutex_);
    for (auto& [name, entry] : counters_) entry.metric->reset();
    for (auto& [name, entry] : gauges_) entry.metric->reset();
    for (auto& [name, entry] : histograms_) entry.metric->reset();
    for (auto& [name, entry] : series_) entry.metric->reset();
}

// --------------------------------------------------------------------------
// Exporters

namespace {

std::string prometheus_name(std::string_view name) {
    std::string out = "concilium_";
    for (const char c : name) out += (c == '.' || c == '-') ? '_' : c;
    return out;
}

std::string histogram_json(const Snapshot::HistogramValue& h) {
    std::string out = "{\"lo\": " + json_number(h.lo) +
                      ", \"hi\": " + json_number(h.hi) +
                      ", \"total\": " + json_number(h.total) +
                      ", \"sum\": " + json_number(h.sum) + ", \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_number(h.counts[i]);
    }
    out += "]}";
    return out;
}

std::string series_json(const Snapshot::SeriesValue& s) {
    std::string out =
        "{\"window_seconds\": " +
        json_number(static_cast<double>(s.window_us) / 1e6) +
        ", \"mode\": " + json_quote(s.maximum ? "max" : "sum") +
        ", \"clipped\": " + json_number(s.clipped) + ", \"values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_number(s.values[i]);
    }
    out += "]}";
    return out;
}

}  // namespace

std::string Snapshot::to_text() const {
    std::string out;
    const auto header = [&out](const std::string& pname, const char* type,
                               bool timing) {
        if (timing) out += "# TIMING (excluded from determinism checks)\n";
        out += "# TYPE " + pname + " " + type + "\n";
    };
    for (const CounterValue& c : counters) {
        const std::string pname = prometheus_name(c.name);
        header(pname, "counter", c.timing);
        out += pname + " " + json_number(c.value) + "\n";
    }
    for (const GaugeValue& g : gauges) {
        const std::string pname = prometheus_name(g.name);
        header(pname, "gauge", g.timing);
        out += pname + " " + json_number(g.value) + "\n";
    }
    for (const HistogramValue& h : histograms) {
        const std::string pname = prometheus_name(h.name);
        header(pname, "histogram", h.timing);
        std::int64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cumulative += h.counts[i];
            out += pname + "_bucket{le=\"" + json_number(h.upper_edge(i)) +
                   "\"} " + json_number(cumulative) + "\n";
        }
        out += pname + "_bucket{le=\"+Inf\"} " + json_number(h.total) + "\n";
        out += pname + "_sum " + json_number(h.sum) + "\n";
        out += pname + "_count " + json_number(h.total) + "\n";
    }
    for (const SeriesValue& s : series) {
        // Windowed sim-clock series render as a labeled gauge family: one
        // sample per non-zero window, labeled with the window index and
        // width, plus a _clipped companion for out-of-range observations.
        const std::string pname = prometheus_name(s.name);
        header(pname, "gauge", s.timing);
        for (std::size_t w = 0; w < s.values.size(); ++w) {
            if (s.values[w] == 0) continue;
            out += pname + "{window=\"" + json_number(static_cast<std::uint64_t>(w)) +
                   "\",window_seconds=\"" +
                   json_number(static_cast<double>(s.window_us) / 1e6) +
                   "\"} " + json_number(s.values[w]) + "\n";
        }
        out += pname + "_clipped " + json_number(s.clipped) + "\n";
    }
    return out;
}

std::string Snapshot::to_json() const {
    // Two name-sorted sections: "metrics" (deterministic for a fixed seed,
    // byte-comparable across --jobs) and "timing" (wall-clock dependent).
    std::vector<std::pair<std::string, std::string>> lines[2];
    for (const CounterValue& c : counters) {
        lines[c.timing ? 1 : 0].emplace_back(c.name, json_number(c.value));
    }
    for (const GaugeValue& g : gauges) {
        lines[g.timing ? 1 : 0].emplace_back(g.name, json_number(g.value));
    }
    for (const HistogramValue& h : histograms) {
        lines[h.timing ? 1 : 0].emplace_back(h.name, histogram_json(h));
    }
    for (const SeriesValue& s : series) {
        lines[s.timing ? 1 : 0].emplace_back(s.name, series_json(s));
    }
    std::string out = "{\n";
    const char* section_name[2] = {"metrics", "timing"};
    for (int s = 0; s < 2; ++s) {
        std::sort(lines[s].begin(), lines[s].end());
        out += "  ";
        out += json_quote(section_name[s]);
        out += ": {\n";
        for (std::size_t i = 0; i < lines[s].size(); ++i) {
            out += "    " + json_quote(lines[s][i].first) + ": " +
                   lines[s][i].second;
            if (i + 1 < lines[s].size()) out += ',';
            out += '\n';
        }
        out += (s == 0) ? "  },\n" : "  }\n";
    }
    out += "}\n";
    return out;
}

}  // namespace concilium::util::metrics
