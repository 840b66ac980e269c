// Discrete-event simulator.
//
// "we used a discrete event network simulator.  The simulator modeled link
// failure, tomographic probing, the collaborative dissemination of probe
// results, and three types of message events (message sent, message
// acknowledged, message not acknowledged)." (Section 4.2)
//
// EventSim is the shared clock and event queue those components hang off of.
// Events at equal times fire in scheduling order, so runs are deterministic.
//
// The queue is a time-bucketed calendar: 256 buckets of ~262 ms each cover a
// sliding ~67 s window; events beyond the window wait in an overflow heap and
// migrate into the wheel as the cursor advances.  Each bucket is a small
// binary heap ordered by (time, sequence), which preserves the global
// deterministic ordering while keeping per-operation cost near O(1) at
// full-SCAN queue depths.
//
// There is one scheduling API: a component registers a handler once, then
// posts events to it.  Events are 40-byte POD records — a handler id plus
// three integer operands — so scheduling never allocates once the buckets
// have warmed up.  A component whose event needs more than three integers
// keeps that payload itself and posts an index to it (runtime::Cluster
// parks snapshots, evidence and signed notices in a slot table).
//
// Determinism contract: for any sequence of post calls, dispatch order is a
// pure function of the (time, sequence) pairs — bucket placement and
// overflow migration are invisible to observers.  Equal-time events fire in
// post order regardless of which side of the wheel horizon they were
// inserted on.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/time.h"

namespace concilium::net {

class EventSim {
  public:
    /// Dispatch target registered by a component: a plain function pointer
    /// plus its context.  Operands a/b/c carry the event's payload (indices,
    /// ids, times) so records stay POD.
    using HandlerFn = void (*)(void* ctx, std::uint32_t a, std::uint64_t b,
                               std::uint64_t c);
    using HandlerId = std::uint16_t;

    /// Safety valve: a scheduling bug that grows the queue without bound
    /// fails loudly (std::length_error) instead of OOMing a --full run.
    static constexpr std::size_t kDefaultMaxPending = std::size_t{1} << 26;

    ~EventSim();  // flushes the open queue-depth window to the series

    [[nodiscard]] util::SimTime now() const noexcept { return now_; }

    /// Registers a dispatch target; call once per component at setup.
    HandlerId register_handler(void* ctx, HandlerFn fn);

    /// Schedules a POD event for `handler` at absolute time t (>= now, else
    /// it fires immediately at the current time).  Never allocates once the
    /// target bucket has warmed up.
    void post_at(util::SimTime t, HandlerId handler, std::uint32_t a = 0,
                 std::uint64_t b = 0, std::uint64_t c = 0);

    /// Schedules a POD event at now() + delay.
    void post_after(util::SimTime delay, HandlerId handler, std::uint32_t a = 0,
                    std::uint64_t b = 0, std::uint64_t c = 0);

    /// Runs events with time <= t, then advances the clock to t.
    void run_until(util::SimTime t);

    /// Runs until the queue is empty.
    void run_all();

    /// Fires the next event; returns false when the queue is empty.
    bool step();

    [[nodiscard]] std::size_t pending() const noexcept {
        return wheel_count_ + overflow_.size();
    }
    [[nodiscard]] bool empty() const noexcept { return pending() == 0; }

    /// Adjusts the runaway-queue valve (see kDefaultMaxPending).
    void set_max_pending(std::size_t cap) noexcept { max_pending_ = cap; }
    [[nodiscard]] std::size_t max_pending() const noexcept {
        return max_pending_;
    }

  private:
    // 256 buckets x 2^18 us: ~262 ms per bucket, ~67 s wheel span.  Control
    // latencies and probe intervals in the modelled protocol are
    // milliseconds to tens of seconds, so nearly all events land in the
    // wheel; multi-minute timers wait in the overflow heap.
    static constexpr int kBucketBits = 8;
    static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
    static constexpr std::size_t kBucketMask = kBuckets - 1;
    static constexpr int kWidthShift = 18;
    static constexpr util::SimTime kBucketWidth = util::SimTime{1}
                                                  << kWidthShift;

    struct Record {
        util::SimTime at;
        std::uint64_t seq;
        std::uint64_t b;
        std::uint64_t c;
        std::uint32_t a;
        HandlerId handler;
    };
    /// "Fires later" comparator; std::*_heap with it yields a min-heap on
    /// (at, seq).
    struct Later {
        bool operator()(const Record& x, const Record& y) const noexcept {
            if (x.at != y.at) return x.at > y.at;
            return x.seq > y.seq;
        }
    };

    struct Handler {
        void* ctx = nullptr;
        HandlerFn fn = nullptr;
    };

    [[nodiscard]] util::SimTime wheel_end() const noexcept {
        return static_cast<util::SimTime>((cur_slot_ + kBuckets))
               << kWidthShift;
    }

    void insert(Record r);
    /// Pops the earliest event if its time is <= horizon.  May advance the
    /// cursor, but never past the horizon's bucket, so later inserts (which
    /// are clamped to >= now) always map at or ahead of the cursor.
    bool pop_next(util::SimTime horizon, Record& out);
    /// Moves the cursor to at's bucket (forward only) and migrates overflow
    /// events that entered the wheel window.
    void advance_cursor_to(util::SimTime at);
    /// Migrates overflow events with at < wheel_end() into the wheel.
    void drain_overflow();
    void dispatch(const Record& ev);
    /// Publishes the finished per-minute queue-depth maximum and opens the
    /// window containing now_.  Off the per-event path: dispatch() only
    /// compares against depth_window_end_.
    void flush_depth_window() noexcept;

    std::array<std::vector<Record>, kBuckets> wheel_;  // per-bucket min-heaps
    std::vector<Record> overflow_;                     // min-heap, at >= wheel_end
    std::size_t wheel_count_ = 0;
    std::uint64_t cur_slot_ = 0;  // monotonic bucket number (time >> shift)

    std::vector<Handler> handlers_;

    util::SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t max_pending_ = kDefaultMaxPending;

    // Queue-depth high-water accumulation for the per-minute series.  The
    // running maximum stays in these plain members (no atomics on the
    // dispatch path) until the sim clock leaves the window.
    util::SimTime depth_window_start_ = 0;
    util::SimTime depth_window_end_ = 0;  // 0: first dispatch opens a window
    std::int64_t depth_window_max_ = 0;
};

}  // namespace concilium::net
