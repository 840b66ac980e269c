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
// The queue is one binary min-heap ordered by (time, sequence), because the
// measured queues are short: the deepest any default-size event loop
// reaches is 2,972 events (nightly's recovery soak), the deepest at --full
// is 10,967 (the same soak), runtime_e2e peaks at 158 and the 14-day daemon
// soak at 684, and the full-SCAN world builds no EventSim at all.  At those
// depths a push or pop is at most 14 sift steps over contiguous records,
// and a calendar or bucketed queue saves no measurable wall time
// (DESIGN.md, "POD event records", lists every event loop's depth).
//
// There is one scheduling API: a component registers a handler once, then
// posts events to it.  Events are 40-byte POD records — a handler id plus
// three integer operands — so scheduling never allocates once the heap has
// grown to the run's depth.  A component whose event needs more than three
// integers keeps that payload itself and posts an index to it
// (runtime::Cluster parks snapshots, evidence and signed notices in a slot
// table).
//
// Determinism contract: dispatch order is a pure function of the (time,
// sequence) pairs, sequence being the global post order.  A post for a
// time before now() is clamped to now() and so fires after every event
// already queued for now().

#pragma once

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

    /// Schedules a POD event for `handler` at absolute time t.  A t before
    /// now() is clamped to now(): the event fires at the current time,
    /// after the events already queued for it.
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

    [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
    [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

    /// Adjusts the runaway-queue valve (see kDefaultMaxPending).
    void set_max_pending(std::size_t cap) noexcept { max_pending_ = cap; }

  private:
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

    void insert(Record r);
    /// Pops the earliest event if its time is <= horizon.
    bool pop_next(util::SimTime horizon, Record& out);
    void dispatch(const Record& ev);
    /// Publishes the finished per-minute queue-depth maximum and opens the
    /// window containing now_.  Off the per-event path: dispatch() only
    /// compares against depth_window_end_.
    void flush_depth_window() noexcept;

    std::vector<Record> queue_;  // min-heap on (at, seq) under Later
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
