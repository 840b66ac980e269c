// Parallel experiment engine.
//
// Every figure of the evaluation is a Monte-Carlo aggregate over thousands
// of independent trials, and trials share no state: each one reads the
// (const, immutable-after-construction) Scenario and draws from its own RNG.
// ExperimentDriver fans those trials out over `jobs` workers through
// util::parallel_for (at one worker every trial runs inline on the calling
// thread) and merges their results in order, with two guarantees:
//
//   1. Determinism: trial i always runs with util::Rng::substream(seed, i),
//      a pure function of (seed, i), and results are merged strictly in
//      trial-index order.  The merged output is therefore byte-identical
//      for any worker count, including jobs = 1.  This extends to metric
//      counters incremented inside trials: every issued trial index is
//      fully computed at any worker count (results past an early merge
//      stop are discarded, not skipped), so the set of computed trials —
//      and hence every deterministic counter — is also independent of the
//      worker count.
//   2. Safety: trial callbacks run concurrently and must only read shared
//      state; the merge callback runs on the calling thread only, so
//      accumulators (util::Histogram, util::OnlineMoments, counters) need
//      no synchronization.
//
// Two shapes cover every experiment in the repo:
//
//   run(trials, trial, merge)        -- a fixed trial count, e.g. Monte
//                                       Carlo tables or per-row sweeps;
//   run_until(target, trial, merge)  -- rejection sampling: attempts are
//                                       issued in waves and merge() reports
//                                       whether each attempt was accepted,
//                                       until `target` acceptances.  The
//                                       accept/reject decision happens in
//                                       attempt order, so the accepted set
//                                       is again independent of the worker
//                                       count.
//
// Both return a RunStats (trials issued, wall/busy seconds, worker count)
// and report it to the process metrics registry (`sim.driver_*`; wall-time
// derived values land in the registry's timing section).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/function_ref.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/spans.h"

namespace concilium::sim {

struct DriverOptions {
    std::uint64_t seed = 1;
    /// Worker threads; 0 = std::thread::hardware_concurrency().
    std::size_t jobs = 0;
};

/// What one run()/run_until() call actually did.  `trials` counts every
/// trial index issued (for run_until, attempts including rejected and
/// discarded ones); `accepted` counts merged acceptances (== trials for
/// plain run).  Wall/busy seconds come from steady_clock and are NOT
/// deterministic; everything else is.
struct RunStats {
    std::uint64_t trials = 0;
    std::uint64_t accepted = 0;
    std::size_t jobs = 0;
    double wall_seconds = 0.0;
    /// Summed execution time of the trial callbacks across all workers.
    double busy_seconds = 0.0;

    /// Fraction of the pool's wall-clock capacity spent inside trials.
    [[nodiscard]] double utilization() const noexcept {
        const double capacity = wall_seconds * static_cast<double>(jobs);
        return capacity > 0.0 ? busy_seconds / capacity : 0.0;
    }
};

namespace detail {
util::metrics::Counter& driver_wave_counter();
util::metrics::HistogramMetric& driver_trial_seconds();
}  // namespace detail

class ExperimentDriver {
  public:
    ExperimentDriver() = default;
    explicit ExperimentDriver(DriverOptions options) : options_(options) {}
    ExperimentDriver(std::uint64_t seed, std::size_t jobs)
        : options_{seed, jobs} {}

    [[nodiscard]] std::uint64_t seed() const noexcept {
        return options_.seed;
    }

    /// The resolved worker count (never zero).
    [[nodiscard]] std::size_t jobs() const noexcept;

    /// The deterministic generator for one trial index.
    [[nodiscard]] util::Rng trial_rng(std::uint64_t trial) const {
        return util::Rng::substream(options_.seed, trial);
    }

    /// A generator for experiment setup that is disjoint from every trial
    /// substream (trial indices are dense from 0; tags live in the top
    /// half of the index space).
    [[nodiscard]] util::Rng setup_rng(std::uint64_t tag = 0) const {
        return util::Rng::substream(options_.seed,
                                    kSetupStreamBase + tag);
    }

    /// The deterministic generator for shard `shard` of trial `trial`
    /// (intra-trial sharding; see run_shards).  Disjoint from every
    /// trial_rng and setup_rng stream.  shard must be < 2^20.
    [[nodiscard]] util::Rng shard_rng(std::uint64_t trial,
                                      std::uint64_t shard) const {
        return util::Rng::substream(
            options_.seed, kShardStreamBase + (trial << 20) + shard);
    }

    /// Runs `trial(i, rng)` for i in [0, trials) across the worker pool and
    /// calls `merge(i, result)` on this thread in increasing i.
    template <typename TrialFn, typename MergeFn>
    RunStats run(std::size_t trials, TrialFn&& trial, MergeFn&& merge) const {
        return timed([&](RunStats& stats) {
            stats.busy_seconds = run_range(
                0, trials, [this](std::uint64_t i) { return trial_rng(i); },
                trial, [&](std::uint64_t i, auto&& r) {
                    merge(i, std::forward<decltype(r)>(r));
                    return true;
                },
                util::spans::SpanType::kTrial, scope_block());
            stats.trials = trials;
            stats.accepted = trials;
        });
    }

    /// Issues attempts 0, 1, 2, ... in waves until `merge` has returned
    /// true (accepted) `target` times.  Attempts computed beyond the target
    /// inside the final wave are discarded without being merged, in attempt
    /// order, so the accepted prefix is exactly what a sequential
    /// `for (q = 0; accepted < target; ++q)` loop would keep.
    template <typename TrialFn, typename MergeFn>
    RunStats run_until(std::size_t target, TrialFn&& trial,
                       MergeFn&& merge) const {
        return timed([&](RunStats& stats) {
            const std::uint64_t scopes = scope_block();
            std::uint64_t next_attempt = 0;
            std::size_t accepted = 0;
            while (accepted < target) {
                // Wave sizing depends only on already-merged history, so
                // the attempt schedule is itself deterministic.  Overshoot
                // the observed acceptance rate slightly to usually finish
                // in one extra wave.
                const std::size_t remaining = target - accepted;
                double rate = next_attempt == 0
                                  ? 1.0
                                  : static_cast<double>(accepted) /
                                        static_cast<double>(next_attempt);
                if (rate < 0.05) rate = 0.05;
                std::size_t wave = static_cast<std::size_t>(
                    static_cast<double>(remaining) / rate * 1.1);
                wave = std::max(wave, std::max<std::size_t>(64, 4 * jobs()));
                detail::driver_wave_counter().add(1);
                stats.busy_seconds += run_range(
                    next_attempt, wave,
                    [this](std::uint64_t i) { return trial_rng(i); }, trial,
                    [&](std::uint64_t i, auto&& r) {
                        if (accepted >= target) return false;
                        if (merge(i, std::forward<decltype(r)>(r))) {
                            ++accepted;
                        }
                        return accepted < target;
                    },
                    util::spans::SpanType::kTrial, scopes);
                next_attempt += wave;
            }
            stats.trials = next_attempt;
            stats.accepted = accepted;
        });
    }

    /// Intra-trial sharding: splits the *inside* of one heavy trial into
    /// `shards` independent pieces, runs `shard(s, rng)` for s in
    /// [0, shards) over the worker pool, and calls `merge(s, result)` on
    /// this thread strictly in shard order.  Shard s always draws from
    /// shard_rng(trial, s) -- a pure function of (seed, trial, s) -- so
    /// the merged output is byte-identical at any worker count, exactly
    /// like run().  Use when one trial (a full-SCAN-scale world slice)
    /// dwarfs the per-trial fan-out: the shards are the parallelism.
    template <typename ShardFn, typename MergeFn>
    RunStats run_shards(std::uint64_t trial, std::size_t shards,
                        ShardFn&& shard, MergeFn&& merge) const {
        return timed([&](RunStats& stats) {
            stats.busy_seconds = run_range(
                0, shards,
                [this, trial](std::uint64_t s) { return shard_rng(trial, s); },
                shard, [&](std::uint64_t s, auto&& r) {
                    merge(s, std::forward<decltype(r)>(r));
                    return true;
                },
                util::spans::SpanType::kShard, scope_block());
            stats.trials = shards;
            stats.accepted = shards;
        });
    }

  private:
    // Setup tags sit far above any realistic trial count.
    static constexpr std::uint64_t kSetupStreamBase = 0xC011'EC70'0000'0000ULL;
    // Shard streams pack (trial, shard) into the index; with shards < 2^20
    // and the base below both setup tags and any dense trial index, the
    // three stream families never collide.
    static constexpr std::uint64_t kShardStreamBase = 0x5AAD'0000'0000'0000ULL;

    /// A fresh span-scope block for one run, or 0 when the recorder is off
    /// (scope ids are only ever read by the recorder).
    static std::uint64_t scope_block() {
        return util::spans::enabled()
                   ? util::spans::Recorder::global().next_scope_block()
                   : 0;
    }

    /// One run's stats: `body` fills in the trial counts and busy seconds,
    /// this adds the worker count and the wall seconds around `body`, then
    /// reports the stats.
    RunStats timed(util::FunctionRef<void(RunStats&)> body) const;

    /// Runs trial indices [base, base + count) through util::parallel_for,
    /// each into its own result slot, then consumes the slots in index
    /// order; `consume` returns false to stop consuming (the remaining
    /// results are dropped).  Every index in the range is computed
    /// regardless -- see determinism guarantee 1 above.
    /// `rng_of(i)` supplies the generator for index i (trial substreams for
    /// run/run_until, shard substreams for run_shards).
    /// Each trial executes inside a spans::TrialScope (scope = the run's
    /// block | index + 1) wrapped in a wall span of `span_type`, which is
    /// what merges per-trial span buffers deterministically: a trial's
    /// sim-clock events carry (scope, seq) — a pure function of the seed —
    /// and the exporter sorts by it, so the trace is byte-stable across
    /// worker counts.
    /// Returns the summed trial execution time in seconds.
    template <typename RngOf, typename TrialFn, typename ConsumeFn>
    double run_range(std::uint64_t base, std::size_t count, RngOf&& rng_of,
                     TrialFn& trial, ConsumeFn&& consume,
                     util::spans::SpanType span_type,
                     std::uint64_t scope_base) const {
        using Result =
            std::invoke_result_t<TrialFn&, std::uint64_t, util::Rng&>;
        static_assert(!std::is_void_v<Result>,
                      "trial functions must return their result");
        auto& trial_seconds = detail::driver_trial_seconds();
        std::vector<std::optional<Result>> results(count);
        std::vector<double> seconds(count);
        util::parallel_for(count, jobs(), [&](std::size_t slot) {
            const std::uint64_t i = base + slot;
            util::Rng rng = rng_of(i);
            const auto t0 = std::chrono::steady_clock::now();
            {
                const util::spans::TrialScope scope(scope_base | (i + 1));
                const util::spans::WallSpan span(span_type, /*causal=*/i);
                results[slot].emplace(trial(i, rng));
            }
            seconds[slot] = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            trial_seconds.observe(seconds[slot]);
        });
        double busy = 0.0;
        bool consuming = true;
        for (std::size_t slot = 0; slot < count; ++slot) {
            busy += seconds[slot];
            if (consuming) {
                consuming = consume(base + slot, std::move(*results[slot]));
            }
        }
        return busy;
    }

    DriverOptions options_;
};

}  // namespace concilium::sim
