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

// The high-water mark uses set_max (commutative), so the deterministic
// metrics section stays byte-identical across --jobs values.
util::metrics::Gauge& queue_high_water() {
    static auto& g = util::metrics::Registry::global().gauge(
        "net.eventsim.queue_high_water");
    return g;
}

// Per-sim-minute queue-depth high-water series (geometry matches the
// kWellKnownSeries catalogue).  Max mode commutes, so the exported windows
// are byte-identical across --jobs values like the gauge above.
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
    queue_.push_back(r);
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    events_scheduled().add(1);
    queue_high_water().set_max(static_cast<double>(queue_.size()));
}

void EventSim::post_at(util::SimTime t, HandlerId handler, std::uint32_t a,
                       std::uint64_t b, std::uint64_t c) {
    insert(Record{t < now_ ? now_ : t, seq_++, b, c, a, handler});
}

void EventSim::post_after(util::SimTime delay, HandlerId handler,
                          std::uint32_t a, std::uint64_t b, std::uint64_t c) {
    post_at(now_ + delay, handler, a, b, c);
}

bool EventSim::pop_next(util::SimTime horizon, Record& out) {
    if (queue_.empty() || queue_.front().at > horizon) return false;
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    out = queue_.back();
    queue_.pop_back();
    return true;
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
