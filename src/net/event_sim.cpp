#include "net/event_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/metrics.h"

namespace concilium::net {

namespace {

constexpr util::SimTime kNoHorizon = std::numeric_limits<util::SimTime>::max();

util::metrics::Counter& events_scheduled() {
    static auto& c =
        util::metrics::Registry::global().counter("net.events_scheduled");
    return c;
}

util::metrics::Counter& events_executed() {
    static auto& c =
        util::metrics::Registry::global().counter("net.events_executed");
    return c;
}

util::metrics::Gauge& queue_depth_max() {
    static auto& g =
        util::metrics::Registry::global().gauge("net.queue_depth_max");
    return g;
}

// High-water marks use set_max (commutative), so the deterministic metrics
// section stays byte-identical across --jobs values.
util::metrics::Gauge& queue_high_water() {
    static auto& g = util::metrics::Registry::global().gauge(
        "net.eventsim.queue_high_water");
    return g;
}

util::metrics::Gauge& overflow_high_water() {
    static auto& g = util::metrics::Registry::global().gauge(
        "net.eventsim.overflow_high_water");
    return g;
}

// Per-sim-minute queue-depth high-water series (geometry matches the
// kWellKnownSeries catalogue).  Max mode commutes, so the exported windows
// are byte-identical across --jobs values like the gauges above.
util::metrics::SeriesMetric& queue_depth_by_minute() {
    static auto& s = util::metrics::Registry::global().series(
        "net.eventsim.queue_depth.by_minute", util::kMinute, 240,
        util::metrics::SeriesMetric::Mode::kMax);
    return s;
}

}  // namespace

EventSim::HandlerId EventSim::register_handler(void* ctx, HandlerFn fn) {
    if (handlers_.size() > std::numeric_limits<HandlerId>::max()) {
        throw std::length_error("EventSim: handler table full");
    }
    handlers_.push_back(Handler{ctx, fn});
    return static_cast<HandlerId>(handlers_.size() - 1);
}

void EventSim::insert(Record r) {
    if (pending() >= max_pending_) {
        throw std::length_error(
            "EventSim: pending events exceed max_pending "
            "(runaway scheduling?)");
    }
    if (r.at < wheel_end()) {
        auto& bucket = wheel_[(static_cast<std::uint64_t>(r.at) >> kWidthShift) &
                              kBucketMask];
        bucket.push_back(r);
        std::push_heap(bucket.begin(), bucket.end(), Later{});
        ++wheel_count_;
    } else {
        overflow_.push_back(r);
        std::push_heap(overflow_.begin(), overflow_.end(), Later{});
        overflow_high_water().set_max(static_cast<double>(overflow_.size()));
    }
    events_scheduled().add(1);
    const auto depth = static_cast<double>(pending());
    queue_depth_max().set_max(depth);
    queue_high_water().set_max(depth);
}

void EventSim::post_at(util::SimTime t, HandlerId handler, std::uint32_t a,
                       std::uint64_t b, std::uint64_t c) {
    insert(Record{t < now_ ? now_ : t, seq_++, b, c, a, handler});
}

void EventSim::post_after(util::SimTime delay, HandlerId handler,
                          std::uint32_t a, std::uint64_t b, std::uint64_t c) {
    post_at(now_ + delay, handler, a, b, c);
}

void EventSim::drain_overflow() {
    const util::SimTime end = wheel_end();
    while (!overflow_.empty() && overflow_.front().at < end) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        Record r = overflow_.back();
        overflow_.pop_back();
        auto& bucket = wheel_[(static_cast<std::uint64_t>(r.at) >> kWidthShift) &
                              kBucketMask];
        bucket.push_back(r);
        std::push_heap(bucket.begin(), bucket.end(), Later{});
        ++wheel_count_;
    }
}

void EventSim::advance_cursor_to(util::SimTime at) {
    const auto target = static_cast<std::uint64_t>(at) >> kWidthShift;
    if (target <= cur_slot_) return;
    cur_slot_ = target;
    drain_overflow();
}

bool EventSim::pop_next(util::SimTime horizon, Record& out) {
    if (pending() == 0) return false;
    for (;;) {
        auto& bucket = wheel_[cur_slot_ & kBucketMask];
        if (!bucket.empty()) {
            if (bucket.front().at > horizon) return false;
            std::pop_heap(bucket.begin(), bucket.end(), Later{});
            out = bucket.back();
            bucket.pop_back();
            --wheel_count_;
            return true;
        }
        if (wheel_count_ == 0) {
            // Whole wheel empty: the earliest remaining event is the
            // overflow top.  Jump straight to its bucket (or stop at the
            // horizon's) instead of stepping through empty laps.
            const util::SimTime at = overflow_.front().at;
            if (at > horizon) {
                advance_cursor_to(horizon);
                return false;
            }
            advance_cursor_to(at);
            continue;
        }
        // Advance one bucket; the cursor never passes the horizon's bucket,
        // so clamped future inserts cannot land behind it.
        const util::SimTime next_start =
            static_cast<util::SimTime>(cur_slot_ + 1) << kWidthShift;
        if (next_start > horizon) return false;
        ++cur_slot_;
        drain_overflow();
    }
}

void EventSim::dispatch(const Record& ev) {
    const Handler h = handlers_[ev.handler];
    h.fn(h.ctx, ev.a, ev.b, ev.c);
    events_executed().add(1);
    // Per-minute queue-depth high water: two compares per event; the shared
    // SeriesMetric is only touched when the clock leaves the window.
    if (now_ >= depth_window_end_) flush_depth_window();
    const auto depth = static_cast<std::int64_t>(pending());
    if (depth > depth_window_max_) depth_window_max_ = depth;
}

void EventSim::flush_depth_window() noexcept {
    if (depth_window_max_ > 0) {
        queue_depth_by_minute().observe(depth_window_start_,
                                        depth_window_max_);
        depth_window_max_ = 0;
    }
    depth_window_start_ = now_ - now_ % util::kMinute;
    depth_window_end_ = depth_window_start_ + util::kMinute;
}

EventSim::~EventSim() {
    if (depth_window_max_ > 0) {
        queue_depth_by_minute().observe(depth_window_start_,
                                        depth_window_max_);
    }
}

bool EventSim::step() {
    Record ev;
    if (!pop_next(kNoHorizon, ev)) return false;
    now_ = ev.at;
    dispatch(ev);
    return true;
}

void EventSim::run_until(util::SimTime t) {
    Record ev;
    while (pop_next(t, ev)) {
        now_ = ev.at;
        dispatch(ev);
    }
    if (now_ < t) now_ = t;
}

void EventSim::run_all() {
    while (step()) {
    }
}

}  // namespace concilium::net
