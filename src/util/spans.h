// Causal span tracing: the third observability subsystem, alongside the
// util::metrics registry (what happened, in aggregate) and the
// core::DiagnosisTrace blame journal (why one verdict landed).  Spans add
// *when* and *in what causal order*: typed intervals and instants recorded
// into lock-free per-thread ring buffers and exported as Chrome trace-event
// JSON that loads directly in Perfetto / chrome://tracing.
//
// Every event carries up to two clocks:
//
//   * a sim-time interval (util::SimTime microseconds) — a pure function of
//     the seed, so the exported sim-clock section is byte-identical across
//     `--jobs` values exactly like the metrics "metrics" section; and/or
//   * a wall-time interval (nanoseconds on the process steady clock) —
//     segregated into its own export section like the metrics "timing"
//     section, never byte-compared.
//
// Determinism across worker counts is a sequencing problem, not a
// commutativity problem (spans are ordered, counters are not).  The recorder
// solves it with scopes: sim::ExperimentDriver wraps every trial/shard in a
// TrialScope carrying a unique scope id, and each event records (scope,
// per-scope sequence number).  A trial executes entirely on one worker
// thread, so (scope, seq) is a pure function of the seed; the exporter sorts
// the sim-clock section by it, making the merge of per-trial span buffers
// independent of which worker ran which trial.  Sim-clock events must be
// recorded either inside a TrialScope or on the main thread (scope 0).
//
// The rings are bounded and overwrite oldest-first, which doubles as the
// flight recorder: after a crash-adjacent failure, the last N events per
// thread are still in the buffer, and the bench `--spans-out` dump is what
// the soak gates (`tools/check_*.py --flight`) replay as a timeline.
//
// Cost when disabled: every recording site is one relaxed atomic load and
// one branch (see enabled()); no thread-local touch, no allocation.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/time.h"

namespace concilium::util::spans {

/// The typed span vocabulary.  Kept deliberately small: one enum value per
/// phase a human would want on a timeline, not per function call.
enum class SpanType : std::uint8_t {
    // Wall-clock world-build phases (sim::Scenario construction).
    kWorldBuild = 0,
    kTopologyGen,
    kOverlayBuild,
    kTreeBuild,
    kFailureTimeline,
    kScenarioIndex,
    /// Recorded by nothing; kept because perfbench/main.cpp reads it.
    kFaultPlan,
    // Experiment-driver structure (one per trial / shard execution).
    kTrial,
    kShard,
    // The diagnosis path (sim clock; runtime::Cluster + tomography).
    kProbeRound,
    kHeavyweightSession,
    kMleSolve,
    kSnapshotExchange,
    kDiagnosis,
    kJudgment,
    kRecoveryHandshake,
    kCount,
};

/// Stable lowercase name used as the Chrome trace event name.
[[nodiscard]] const char* span_name(SpanType t) noexcept;

/// Sentinel for "this event does not carry that clock".
constexpr std::int64_t kNoClock = std::numeric_limits<std::int64_t>::min();

/// One recorded span or instant.  POD, 64 bytes; scope/seq/thread are
/// assigned by the recorder, everything else by the call site.
struct Event {
    std::int64_t sim_begin = kNoClock;   ///< SimTime micros, or kNoClock.
    std::int64_t sim_end = kNoClock;
    std::int64_t wall_begin = kNoClock;  ///< ns on the span clock, or kNoClock.
    std::int64_t wall_end = kNoClock;
    std::uint64_t scope = 0;   ///< TrialScope id; 0 = global/main thread.
    std::uint64_t causal = 0;  ///< Message id / trial id threading the trace.
    std::int64_t arg = 0;      ///< Free per-type payload (hop, epoch, count).
    std::uint32_t seq = 0;     ///< Per-scope sequence number.
    std::uint16_t thread = 0;  ///< Recorder thread ordinal (wall section tid).
    SpanType type = SpanType::kCount;
    std::uint8_t pad = 0;
};
static_assert(sizeof(Event) == 64, "Event should stay one cache line");

namespace detail {
// The one global the disabled fast path touches.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when the process recorder is armed.  The only cost a disabled span
/// site pays: one relaxed load + branch.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Nanoseconds on the process-wide span clock (steady, epoch = first use).
[[nodiscard]] std::int64_t wall_now_ns() noexcept;

/// The process-wide span recorder: per-thread bounded rings, oldest-first
/// overwrite, mutex only on thread registration and collection.
class Recorder {
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 15;  // per thread

    static Recorder& global();

    /// Arms recording.  Call before the instrumented work; capacity applies
    /// to threads that register after the call.
    void enable(std::size_t per_thread_capacity = kDefaultCapacity);
    void disable();

    /// Drops every recorded event but keeps thread registrations.
    void clear();

    /// Appends one event, stamping scope, seq, and thread ordinal from the
    /// calling thread's state.  Callers check enabled() first.
    void record(Event e) noexcept;

    /// A fresh block of scope ids (high 32 bits); the driver takes one per
    /// run so trial indices from different runs never collide.
    [[nodiscard]] std::uint64_t next_scope_block() noexcept;

    [[nodiscard]] std::uint64_t total_recorded() const;
    [[nodiscard]] std::uint64_t total_dropped() const;

    /// Every buffered event, oldest-first per thread.  Call only after the
    /// recording threads have quiesced (post-join / at exit).
    [[nodiscard]] std::vector<Event> collect() const;

    /// Chrome trace-event JSON.  Two sections inside "traceEvents": the
    /// sim-clock section first (cat "sim", sorted by (scope, seq) — byte
    /// identical across --jobs), then the wall-clock section (cat "wall").
    /// Dual-clock events appear in both.  Loads in Perfetto as-is.
    [[nodiscard]] std::string to_chrome_json() const;

    struct ThreadBuffer;  // implementation detail, defined in spans.cpp

  private:
    ThreadBuffer& buffer_for_this_thread() noexcept;
};

/// Renders `events` (as returned by collect()) to Chrome trace JSON; the
/// recorder's to_chrome_json() is this over its own buffers.
[[nodiscard]] std::string to_chrome_json(const std::vector<Event>& events,
                                         std::uint64_t dropped);

namespace detail {
struct ScopeState {
    std::uint64_t scope = 0;
    std::uint32_t seq = 0;
};
/// The calling thread's current scope (thread_local).
[[nodiscard]] ScopeState& scope_state() noexcept;
}  // namespace detail

/// RAII scope marker: while alive, every event recorded on this thread is
/// tagged with `scope_id` and numbered from 0.  ExperimentDriver establishes
/// one per trial/shard; nesting restores the outer scope on destruction.
/// No-op (one branch) when the recorder is disabled.
class TrialScope {
  public:
    explicit TrialScope(std::uint64_t scope_id) noexcept {
        if (!enabled()) return;
        active_ = true;
        auto& st = detail::scope_state();
        saved_ = st;
        st.scope = scope_id;
        st.seq = 0;
    }
    ~TrialScope() {
        if (active_) detail::scope_state() = saved_;
    }
    TrialScope(const TrialScope&) = delete;
    TrialScope& operator=(const TrialScope&) = delete;

  private:
    bool active_ = false;
    detail::ScopeState saved_{};
};

/// RAII wall-clock span: measures construction → destruction on the span
/// clock.  Optionally annotated with a sim-time interval via set_sim(), in
/// which case the event shows up in both export sections.  One branch when
/// disabled.
class WallSpan {
  public:
    explicit WallSpan(SpanType type, std::uint64_t causal = 0,
                      std::int64_t arg = 0) noexcept {
        if (!enabled()) return;
        armed_ = true;
        type_ = type;
        causal_ = causal;
        arg_ = arg;
        begin_ = wall_now_ns();
    }
    ~WallSpan() {
        if (!armed_) return;
        Event e;
        e.type = type_;
        e.causal = causal_;
        e.arg = arg_;
        e.sim_begin = sim_begin_;
        e.sim_end = sim_end_;
        e.wall_begin = begin_;
        e.wall_end = wall_now_ns();
        Recorder::global().record(e);
    }
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;

    void set_sim(SimTime begin, SimTime end) noexcept {
        sim_begin_ = begin;
        sim_end_ = end;
    }

  private:
    bool armed_ = false;
    SpanType type_ = SpanType::kCount;
    std::uint64_t causal_ = 0;
    std::int64_t arg_ = 0;
    std::int64_t begin_ = 0;
    std::int64_t sim_begin_ = kNoClock;
    std::int64_t sim_end_ = kNoClock;
};

/// Records a completed sim-time interval.  One branch when disabled.
inline void sim_span(SpanType type, SimTime begin, SimTime end,
                     std::uint64_t causal = 0, std::int64_t arg = 0) noexcept {
    if (!enabled()) return;
    Event e;
    e.type = type;
    e.sim_begin = begin;
    e.sim_end = end;
    e.causal = causal;
    e.arg = arg;
    Recorder::global().record(e);
}

/// Records a zero-duration sim-time instant.
inline void sim_instant(SpanType type, SimTime at, std::uint64_t causal = 0,
                        std::int64_t arg = 0) noexcept {
    sim_span(type, at, at, causal, arg);
}

}  // namespace concilium::util::spans
