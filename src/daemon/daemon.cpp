#include "daemon/daemon.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "runtime/retry.h"
#include "util/metrics.h"

namespace concilium::daemon {

namespace {

/// Cluster rng substream id: keeps the cluster's randomness independent of
/// any other consumer of the trace seed (the generator scripts use the raw
/// seed; message keys come from the trace itself).
constexpr std::uint64_t kClusterStream = 0xDAE07;

struct Instruments {
    util::metrics::Counter& trace_records;
    util::metrics::Counter& messages_fed;
    util::metrics::Counter& messages_delivered;
    util::metrics::Counter& messages_diagnosed;
    util::metrics::Counter& false_accusations;
    util::metrics::Counter& correct_attributions;
    util::metrics::Counter& insufficient_outcomes;
    util::metrics::Counter& orphaned_messages;
    util::metrics::Counter& churn_events;
    util::metrics::Counter& crash_events;
    util::metrics::Counter& fault_downs;
    util::metrics::Counter& attack_roles;
    util::metrics::Counter& checkpoints_written;
    util::metrics::Counter& resume_replays;
    util::metrics::Counter& ticks;
    util::metrics::Counter& io_write_errors;
    util::metrics::Counter& io_write_retries;
    util::metrics::Counter& io_quarantined;
    util::metrics::Counter& io_pruned;
    util::metrics::Gauge& io_faults_injected;
    util::metrics::Gauge& io_degraded;
    util::metrics::SeriesMetric& fed_by_hour;
    util::metrics::SeriesMetric& false_by_hour;
};

Instruments& instruments() {
    auto& reg = util::metrics::Registry::global();
    static Instruments ins{
        reg.counter("daemon.trace_records"),
        reg.counter("daemon.messages_fed"),
        reg.counter("daemon.messages_delivered"),
        reg.counter("daemon.messages_diagnosed"),
        reg.counter("daemon.false_accusations"),
        reg.counter("daemon.correct_attributions"),
        reg.counter("daemon.insufficient_outcomes"),
        reg.counter("daemon.orphaned_messages"),
        reg.counter("daemon.churn_events"),
        reg.counter("daemon.crash_events"),
        reg.counter("daemon.fault_downs"),
        reg.counter("daemon.attack_roles"),
        reg.counter("daemon.checkpoints_written"),
        reg.counter("daemon.resume_replays"),
        reg.counter("daemon.ticks"),
        reg.counter("daemon.io.write_errors"),
        reg.counter("daemon.io.write_retries"),
        reg.counter("daemon.io.checkpoints_quarantined"),
        reg.counter("daemon.io.checkpoints_pruned"),
        reg.gauge("daemon.io.faults_injected"),
        reg.gauge("daemon.io.degraded"),
        reg.series("daemon.messages_fed.by_hour", util::kHour, 400,
                   util::metrics::SeriesMetric::Mode::kSum),
        reg.series("daemon.false_accusations.by_hour", util::kHour, 400,
                   util::metrics::SeriesMetric::Mode::kSum),
    };
    return ins;
}

void apply_role(runtime::NodeBehavior& b, AttackRole role) {
    switch (role) {
        case AttackRole::kDrop: b.drop_forward_probability = 1.0; break;
        case AttackRole::kFlip: b.flip_probe_reports = true; break;
        case AttackRole::kEquivocate: b.equivocate_snapshots = true; break;
        case AttackRole::kReplay: b.replay_snapshots = true; break;
        case AttackRole::kSlander: b.slander = true; break;
        case AttackRole::kSpam: b.spam_accusations = true; break;
        case AttackRole::kCollude: b.collude_revisions = true; break;
    }
}

}  // namespace

/// Bounded retry for *loud* checkpoint-write failures (EIO/ENOSPC).  When
/// the budget is exhausted the daemon degrades -- checkpointing disarms,
/// the run continues, /healthz and daemon.io.* say so -- instead of dying
/// mid-run.
constexpr runtime::RetryPolicy kIoRetry{.max_attempts = 3,
                                        .base_delay = 2 * util::kMillisecond,
                                        .max_delay = 50 * util::kMillisecond};

/// Substream id for checkpoint-write retry jitter; disjoint from
/// kClusterStream and util::FaultFs's kFaultStream so durability policy
/// never perturbs simulation randomness.
constexpr std::uint64_t kIoRetryStream = 0x10FA17;

Daemon::Daemon(Workload workload, DaemonOptions options)
    : wl_(std::move(workload)),
      opts_(std::move(options)),
      io_(opts_.io != nullptr ? opts_.io
                              : std::make_shared<util::FaultFs>()),
      io_retry_rng_(util::Rng::substream_seed(wl_.seed, kIoRetryStream)) {
    if (opts_.tick <= 0) {
        throw std::invalid_argument("daemon tick must be positive");
    }
    if (opts_.checkpoint_every <= 0) {
        throw std::invalid_argument("checkpoint cadence must be positive");
    }
    if (opts_.settle < 0) {
        throw std::invalid_argument("settle time must be non-negative");
    }
    end_ = wl_.duration + opts_.settle;

    sim::ScenarioParams wp;
    wp.topology = net::small_params();
    wp.topology.end_hosts = wl_.end_hosts;
    wp.topology.stub_domains = wl_.stub_domains;
    wp.overlay_nodes_override = wl_.overlay_nodes;
    wp.duration = wl_.duration;
    wp.seed = wl_.seed;
    world_ = std::make_unique<sim::Scenario>(wp);

    const std::size_t n = world_->overlay_net().size();
    behaviors_.assign(n, runtime::NodeBehavior{});

    auto& ins = instruments();
    std::uint64_t fault_downs_applied = 0;
    for (const auto& rec : wl_.records) {
        if (rec.kind != RecordKind::kMessage &&
            (rec.a >= n || (rec.kind == RecordKind::kFault && rec.b >= n))) {
            throw std::invalid_argument(
                "trace names member beyond the built overlay (" +
                std::to_string(n) + " nodes)");
        }
        switch (rec.kind) {
            case RecordKind::kMessage:
                break;
            case RecordKind::kChurn:
                plan_.churn.push_back(
                    {rec.a, rec.at, rec.at + rec.down});
                break;
            case RecordKind::kCrash:
                plan_.crashes.push_back(
                    {rec.a, rec.at, rec.at + rec.down});
                break;
            case RecordKind::kFault: {
                // The generator names an overlay member pair; the daemon
                // resolves it to IP reality here and downs the middle link
                // of a's path toward b (the interior is where tomography
                // has to work for its answer).  Direct paths only exist
                // toward routing peers, so a non-peer b deterministically
                // redirects to one of a's tree leaves instead.
                const auto a = static_cast<overlay::MemberIndex>(rec.a);
                const auto b = static_cast<overlay::MemberIndex>(rec.b);
                std::span<const net::LinkId> links;
                if (world_->trees().leaf_slot(a, b).has_value()) {
                    links = world_->path_links(a, b);
                } else if (const std::size_t leaves =
                               world_->trees().leaf_ids(a).size();
                           leaves > 0) {
                    links = world_->trees().slot_path_links(
                        a, static_cast<int>(rec.b % leaves));
                }
                if (!links.empty()) {
                    plan_.downs.add_down(links[links.size() / 2],
                                         {rec.at, rec.at + rec.down});
                    ++fault_downs_applied;
                }
                break;
            }
            case RecordKind::kAttack:
                apply_role(behaviors_[rec.a], rec.role);
                break;
        }
    }
    plan_.downs.finalize();
    const bool has_chaos =
        wl_.churns + wl_.crashes + fault_downs_applied > 0;

    ins.trace_records.add(static_cast<std::int64_t>(wl_.records.size()));
    ins.churn_events.add(static_cast<std::int64_t>(wl_.churns));
    ins.crash_events.add(static_cast<std::int64_t>(wl_.crashes));
    ins.fault_downs.add(static_cast<std::int64_t>(fault_downs_applied));
    ins.attack_roles.add(static_cast<std::int64_t>(wl_.attacks));

    feed_handler_ = sim_.register_handler(this, &Daemon::feed_event);
    cluster_ = std::make_unique<runtime::Cluster>(
        sim_, world_->timeline(), world_->overlay_net(), world_->trees(),
        opts_.params, behaviors_,
        util::Rng(util::Rng::substream_seed(wl_.seed, kClusterStream)));
    if (has_chaos) cluster_->set_chaos(&plan_);

    if (!opts_.checkpoint_dir.empty()) {
        std::filesystem::create_directories(opts_.checkpoint_dir);
        next_checkpoint_ = opts_.checkpoint_every;
        checkpoint_armed_ = true;
        const std::optional<Checkpoint> loaded = load_resume_checkpoint();
        if (loaded.has_value()) {
            // A checkpoint that *parses* but belongs to a different trace
            // or loop geometry is not corruption -- it is an operator
            // error, and falling back past it would silently run the wrong
            // experiment.  Refuse loudly instead.
            const Checkpoint& ck = *loaded;
            const std::string latest =
                latest_checkpoint_file(opts_.checkpoint_dir);
            if (ck.trace_fnv != wl_.content_fnv) {
                throw std::invalid_argument(
                    latest + ": checkpoint was written for a different "
                             "trace (digest mismatch); refusing to resume");
            }
            if (ck.tick != opts_.tick ||
                ck.checkpoint_every != opts_.checkpoint_every) {
                throw std::invalid_argument(
                    latest + ": checkpoint loop geometry (tick / cadence) "
                             "differs from this run; refusing to resume");
            }
            if (ck.sim_clock > end_) {
                throw std::invalid_argument(
                    latest + ": checkpoint is beyond this run's end");
            }
            if (ck.sim_clock > 0) {
                resume_target_ = ck.sim_clock;
                resume_expected_ = ck.to_text();
                ins.resume_replays.add(1);
            }
        }
    }

    cluster_->start();
    health_clock_.store(0, std::memory_order_relaxed);
}

Daemon::~Daemon() = default;

std::optional<Checkpoint> Daemon::load_resume_checkpoint() {
    auto& ins = instruments();
    // Verify-and-fall-back: walk the retained chain newest-first.  A
    // checkpoint that fails to read or parse (torn write, bitrot, tampering,
    // I/O error) is quarantined under a name that states the reason, and the
    // walk falls back to its ancestor.  Replay-from-zero regenerates every
    // cadence checkpoint byte-identically, so a quarantined file costs
    // nothing but the fall-back distance.
    for (const std::string& path : checkpoint_chain(opts_.checkpoint_dir)) {
        try {
            return Checkpoint::parse_file(path, *io_);
        } catch (const std::exception& e) {
            const std::string reason = checkpoint_failure_reason(e.what());
            const std::string moved = quarantine_checkpoint(path, reason);
            ins.io_quarantined.add(1);
            health_quarantined_.fetch_add(1, std::memory_order_relaxed);
            std::string note = "quarantined corrupt checkpoint " + path +
                               " (" + reason + "): " + e.what();
            if (!moved.empty()) {
                note += "; kept as " + moved;
            } else {
                note += "; quarantine rename failed, skipping in place";
            }
            io_notes_.push_back(std::move(note));
        }
    }
    return std::nullopt;
}

void Daemon::feed_until(util::SimTime t) {
    while (next_record_ < wl_.records.size() &&
           wl_.records[next_record_].at < t) {
        const std::size_t index = next_record_++;
        const WorkloadRecord& rec = wl_.records[index];
        if (rec.kind != RecordKind::kMessage) continue;
        sim_.post_at(rec.at, feed_handler_, 0, index);
    }
}

void Daemon::feed_event(void* ctx, std::uint32_t, std::uint64_t record,
                        std::uint64_t) {
    auto* self = static_cast<Daemon*>(ctx);
    auto& ins = instruments();
    const WorkloadRecord& rec = self->wl_.records[record];
    // The destination is a pure function of the trace's key64, so every
    // incarnation routes the message identically.
    util::Rng key_rng(rec.key);
    const util::NodeId dest = util::NodeId::random(key_rng);
    ++self->messages_fed_;
    ++self->score_.fed;
    ins.messages_fed.add(1);
    ins.fed_by_hour.observe(self->sim_.now());
    self->health_fed_.store(self->messages_fed_, std::memory_order_relaxed);
    self->cluster_->send(static_cast<overlay::MemberIndex>(rec.a), dest,
                         [self](const runtime::Cluster::MessageOutcome& o) {
                             self->complete_message(o);
                         });
}

void Daemon::complete_message(const runtime::Cluster::MessageOutcome& res) {
    auto& ins = instruments();
    ++score_.completed;
    health_completed_.store(score_.completed, std::memory_order_relaxed);
    if (res.delivered) {
        ++score_.delivered;
        ins.messages_delivered.add(1);
        return;
    }
    ++score_.diagnosed;
    ins.messages_diagnosed.add(1);
    if (res.insufficient_evidence) {
        ++score_.insufficient;
        ins.insufficient_outcomes.add(1);
        return;
    }
    if (res.true_drop_hop.has_value()) {
        // A forwarder ate it, whatever the network also did; naming exactly
        // that node is correct, naming anyone else is a false accusation.
        // The recovery soak judges a message the network also dropped by
        // the network instead (DAEMON.md).
        const util::NodeId& culprit =
            world_->overlay_net()
                .member(res.route[*res.true_drop_hop])
                .id();
        if (res.blamed == culprit) {
            ++score_.correct_attributions;
            ins.correct_attributions.add(1);
        } else if (res.blamed.has_value()) {
            ++score_.false_accusations;
            ins.false_accusations.add(1);
            ins.false_by_hour.observe(sim_.now());
        }
    } else {
        // The IP network ate the message (or its ack), or no drop was
        // recorded at all: blaming the network is right, blaming any node
        // is the failure mode the paper is engineered to avoid.  The soak
        // ignores a message with no recorded drop.
        if (res.blamed.has_value()) {
            ++score_.false_accusations;
            ins.false_accusations.add(1);
            ins.false_by_hour.observe(sim_.now());
        } else if (res.network_blamed) {
            ++score_.correct_attributions;
            ins.correct_attributions.add(1);
        }
    }
}

bool Daemon::run(const std::atomic<bool>* stop, int pace_ms) {
    auto& ins = instruments();
    while (clock_ < end_) {
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
            if (!opts_.checkpoint_dir.empty()) {
                write_checkpoint(/*on_cadence=*/false);
            }
            return false;
        }

        util::SimTime next = std::min<util::SimTime>(clock_ + opts_.tick,
                                                     end_);
        if (next_checkpoint_ > 0 && next_checkpoint_ > clock_ &&
            next_checkpoint_ < next) {
            next = next_checkpoint_;
        }
        if (resume_target_.has_value() && *resume_target_ > clock_ &&
            *resume_target_ < next) {
            next = *resume_target_;
        }
        const bool replaying =
            resume_target_.has_value() && clock_ < *resume_target_;
        health_replaying_.store(replaying, std::memory_order_relaxed);

        feed_until(next);
        sim_.run_until(next);
        clock_ = next;
        health_clock_.store(clock_, std::memory_order_relaxed);
        ins.ticks.add(1);

        if (next_checkpoint_ > 0 && clock_ == next_checkpoint_) {
            write_checkpoint(/*on_cadence=*/true);
            next_checkpoint_ += opts_.checkpoint_every;
        }
        if (resume_target_.has_value() && clock_ == *resume_target_) {
            const std::string got = state_text();
            if (got != resume_expected_) {
                throw std::runtime_error(
                    "resume verification failed at sim clock " +
                    std::to_string(clock_) +
                    "us: replayed state does not match the loaded "
                    "checkpoint (non-determinism, or the trace or "
                    "checkpoint changed underneath this run)");
            }
            resume_target_.reset();
            resume_expected_.clear();
            health_replaying_.store(false, std::memory_order_relaxed);
        }

        if (pace_ms > 0 && !replaying && clock_ < end_) {
            std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
        }
    }
    ins.orphaned_messages.add(static_cast<std::int64_t>(score_.orphans()));
    ins.io_faults_injected.set(static_cast<double>(io_->injected()));
    return true;
}

Checkpoint Daemon::build_checkpoint() const {
    Checkpoint ck;
    ck.trace_fnv = wl_.content_fnv;
    ck.sim_clock = clock_;
    ck.tick = opts_.tick;
    ck.checkpoint_every = opts_.checkpoint_every;
    ck.messages_fed = messages_fed_;
    ck.checkpoints_written = checkpoints_written_;
    for (const runtime::StatRow& row : runtime::kStatTable) {
        ck.stats.emplace_back(row.name, cluster_->stats().*row.field);
    }
    const std::size_t n = world_->overlay_net().size();
    ck.journals.reserve(n);
    for (std::size_t m = 0; m < n; ++m) {
        const runtime::NodeJournal& j =
            cluster_->journal(static_cast<overlay::MemberIndex>(m));
        ck.journals.push_back({j.size(), j.fnv()});
    }
    return ck;
}

void Daemon::write_checkpoint(bool on_cadence) {
    // checkpoints_written_ is part of the checkpoint text, so it must
    // advance at every cadence point whether or not a file lands on disk:
    // a degraded run's state_text() has to stay byte-identical to an
    // unfaulted run's, or degradation itself would look like divergence.
    if (on_cadence) ++checkpoints_written_;
    if (!checkpoint_armed_) return;
    auto& ins = instruments();
    const std::string path = opts_.checkpoint_dir + "/checkpoint-" +
                             std::to_string(clock_) + ".ckpt";
    const std::string text = build_checkpoint().to_text();
    for (int attempt = 1;; ++attempt) {
        try {
            write_atomic(path, text, *io_);
            break;
        } catch (const std::runtime_error& e) {
            ins.io_write_errors.add(1);
            const int next_attempt = attempt + 1;
            if (!kIoRetry.allows(next_attempt)) {
                // Budget exhausted: disarm checkpointing and keep running.
                // A long run that loses its disk should finish its science
                // and say so on /healthz, not die at 90%.
                checkpoint_armed_ = false;
                health_degraded_.store(true, std::memory_order_relaxed);
                ins.io_degraded.set(1.0);
                io_notes_.push_back(
                    "checkpoint write failed " + std::to_string(attempt) +
                    "x, retry budget exhausted; checkpointing disarmed, "
                    "run continues without durability (" + e.what() + ")");
                return;
            }
            ins.io_write_retries.add(1);
            const util::SimTime backoff =
                kIoRetry.delay_before(next_attempt, io_retry_rng_);
            std::this_thread::sleep_for(std::chrono::microseconds(backoff));
        }
    }
    ins.checkpoints_written.add(1);
    if (opts_.checkpoint_keep > 0) {
        const std::size_t pruned = prune_checkpoint_chain(
            opts_.checkpoint_dir, opts_.checkpoint_keep);
        if (pruned > 0) {
            ins.io_pruned.add(static_cast<std::int64_t>(pruned));
        }
    }
    ins.io_faults_injected.set(static_cast<double>(io_->injected()));
}

std::string Daemon::state_text() const { return build_checkpoint().to_text(); }

std::string Daemon::health_text() const {
    std::string out = "ok\n";
    const auto line = [&out](const char* name, std::uint64_t v) {
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    };
    line("sim-clock-us", static_cast<std::uint64_t>(
                             health_clock_.load(std::memory_order_relaxed)));
    line("end-us", static_cast<std::uint64_t>(end_));
    line("replaying",
         health_replaying_.load(std::memory_order_relaxed) ? 1 : 0);
    line("messages-fed", health_fed_.load(std::memory_order_relaxed));
    line("messages-completed",
         health_completed_.load(std::memory_order_relaxed));
    line("io-degraded",
         health_degraded_.load(std::memory_order_relaxed) ? 1 : 0);
    line("checkpoints-quarantined",
         health_quarantined_.load(std::memory_order_relaxed));
    return out;
}

}  // namespace concilium::daemon
