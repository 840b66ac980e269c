// conciliumd's engine: a long-running, resumable protocol run (DAEMON.md).
//
// A Daemon owns one deterministic world -- sim::Scenario built from the
// trace's directives, runtime::Cluster driven by the trace's records -- and
// advances it in fixed sim-time ticks.  Ticks exist for three reasons: they
// bound how much workload is scheduled ahead (a weeks-long trace streams
// instead of loading into the event queue at once), they are the points
// where checkpoints are cut and stop flags honored, and they give the live
// mode something to pace against wall time so a scraper can watch a run in
// flight.
//
// Determinism contract: the entire run is a pure function of the trace
// bytes (world directives + records) and the loop geometry (tick,
// checkpoint cadence).  Tick boundaries are derived from sim time alone,
// never from wall time, so a paced live run, a flat-out batch run, and a
// killed-and-resumed run all execute the identical event sequence.  That is
// what makes the checkpoint story work: resume replays from sim time zero,
// rewrites every checkpoint it passes (byte-identical by construction),
// verifies its recomputed state against the checkpoint it loaded, and only
// then continues into new work.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "daemon/checkpoint.h"
#include "daemon/workload.h"
#include "net/chaos.h"
#include "runtime/cluster.h"
#include "sim/scenario.h"
#include "util/faultfs.h"

namespace concilium::daemon {

struct DaemonOptions {
    /// Directory for periodic checkpoints (empty = checkpointing off, and
    /// therefore no resume).
    std::string checkpoint_dir;
    util::SimTime checkpoint_every = 10 * util::kMinute;
    /// Sim-time advance per loop iteration; also the stop-flag and pacing
    /// granularity.
    util::SimTime tick = 30 * util::kSecond;
    /// Extra sim time after the last scheduled record, so in-flight
    /// stewardships finish diagnosing before orphans are counted.
    util::SimTime settle = 5 * util::kMinute;
    /// Retain only the newest this-many checkpoints (0 = keep all).
    /// Redundancy is the fall-back budget: a corrupt newest checkpoint
    /// resumes from its ancestor, so keep >= 2 when pruning at all.
    std::size_t checkpoint_keep = 0;
    /// The storage seam every checkpoint and trace byte moves through.
    /// Defaults to a private passthrough; tests and the fault harness hand
    /// in a FaultFs armed with an injection schedule.
    std::shared_ptr<util::FaultFs> io;
    runtime::RuntimeParams params;
};

class Daemon {
  public:
    /// Builds the world and, when the checkpoint directory holds a prior
    /// run's checkpoint for this exact trace and loop geometry, arms
    /// replay-and-resume.  Throws std::invalid_argument on a checkpoint
    /// that does not match the trace (wrong trace digest, different tick
    /// or cadence) and std::runtime_error on I/O failure.
    Daemon(Workload workload, DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Advances the run to completion (trace duration + settle).  Returns
    /// true when the run finished; false when `stop` was raised, in which
    /// case a final off-cadence checkpoint has been written and a new
    /// Daemon on the same directory will resume.  `pace_ms` sleeps that
    /// many wall milliseconds per tick in live (non-replay) operation so
    /// external scrapers see a run in motion; replay never paces.
    /// Throws std::runtime_error when replay verification fails.
    bool run(const std::atomic<bool>* stop = nullptr, int pace_ms = 0);

    /// Ground-truth scoring of every completed message.  Every undelivered
    /// message counts as diagnosed, abstentions and messages with no
    /// recorded drop included.  A recorded forwarder drop is judged by the
    /// forwarder, even when a network drop was recorded too: blaming the
    /// dropper is correct, blaming anyone else false.  Otherwise a blamed
    /// node is a false accusation and a network verdict correct.  The
    /// recovery soak's rule differs (DAEMON.md).  Orphans are only
    /// meaningful after run() returns true.
    struct Score {
        std::uint64_t fed = 0;
        std::uint64_t completed = 0;
        std::uint64_t delivered = 0;
        std::uint64_t diagnosed = 0;
        std::uint64_t false_accusations = 0;
        std::uint64_t correct_attributions = 0;
        std::uint64_t insufficient = 0;
        [[nodiscard]] std::uint64_t orphans() const noexcept {
            return fed - completed;
        }
    };
    [[nodiscard]] const Score& score() const noexcept { return score_; }

    /// The current state serialized in checkpoint format; two runs of the
    /// same trace are identical iff these bytes are.
    [[nodiscard]] std::string state_text() const;

    /// Small key-value health block, first line "ok".  Safe to call from
    /// another thread while run() is executing.
    [[nodiscard]] std::string health_text() const;

    [[nodiscard]] util::SimTime clock() const noexcept { return clock_; }
    [[nodiscard]] util::SimTime end() const noexcept { return end_; }
    [[nodiscard]] bool resumed() const noexcept {
        return resume_target_.has_value();
    }
    [[nodiscard]] const runtime::Cluster& cluster() const noexcept {
        return *cluster_;
    }
    [[nodiscard]] const Workload& workload() const noexcept { return wl_; }

    /// True once checkpoint writing has been disarmed after exhausting the
    /// retry budget; the run itself is still healthy and deterministic.
    [[nodiscard]] bool io_degraded() const noexcept {
        return health_degraded_.load(std::memory_order_relaxed);
    }
    /// One human-readable line per checkpoint quarantined or write budget
    /// exhausted during construction/run, for the operator's stderr (the
    /// library prints nothing itself; these must not be silent).
    [[nodiscard]] const std::vector<std::string>& io_notes() const noexcept {
        return io_notes_;
    }
    [[nodiscard]] util::FaultFs& io() noexcept { return *io_; }

  private:
    [[nodiscard]] Checkpoint build_checkpoint() const;
    void write_checkpoint(bool on_cadence);
    /// Loads the newest *valid* checkpoint in the chain, quarantining any
    /// corrupt ones it walks past.  Returns nullopt when no readable
    /// checkpoint remains (fresh start).
    [[nodiscard]] std::optional<Checkpoint> load_resume_checkpoint();
    /// Posts every trace message before t as an event carrying its record
    /// index; feed_event() sends it when the sim clock reaches it.
    void feed_until(util::SimTime t);
    static void feed_event(void* ctx, std::uint32_t, std::uint64_t record,
                           std::uint64_t);
    void complete_message(const runtime::Cluster::MessageOutcome& outcome);

    Workload wl_;
    DaemonOptions opts_;
    std::unique_ptr<sim::Scenario> world_;
    std::vector<runtime::NodeBehavior> behaviors_;
    net::FaultPlan plan_;
    net::EventSim sim_;
    net::EventSim::HandlerId feed_handler_ = 0;
    std::unique_ptr<runtime::Cluster> cluster_;

    util::SimTime end_ = 0;          ///< duration + settle
    util::SimTime clock_ = 0;        ///< sim time the loop has reached
    std::size_t next_record_ = 0;    ///< feed cursor into wl_.records
    std::uint64_t checkpoints_written_ = 0;  ///< cadence checkpoints only
    util::SimTime next_checkpoint_ = 0;      ///< 0 = checkpointing off
    Score score_;

    /// Durability state.  checkpoint_armed_ flips false when the write
    /// retry budget is exhausted (graceful degradation); cadence
    /// accounting continues regardless, because checkpoints_written_ is
    /// part of the deterministic state text and must stay a pure function
    /// of sim progress, faults or no faults.
    std::shared_ptr<util::FaultFs> io_;
    bool checkpoint_armed_ = false;
    util::Rng io_retry_rng_;  ///< jitter stream for kIoRetry backoff
    std::vector<std::string> io_notes_;

    /// Replay-and-resume state (set when a valid checkpoint was loaded).
    std::optional<util::SimTime> resume_target_;
    std::string resume_expected_;  ///< loaded checkpoint, re-serialized

    /// Mirrors for health_text(), readable off-thread.
    std::atomic<std::int64_t> health_clock_{0};
    std::atomic<std::uint64_t> health_fed_{0};
    std::atomic<std::uint64_t> health_completed_{0};
    std::atomic<bool> health_replaying_{false};
    std::atomic<bool> health_degraded_{false};
    std::atomic<std::uint64_t> health_quarantined_{0};
};

}  // namespace concilium::daemon
