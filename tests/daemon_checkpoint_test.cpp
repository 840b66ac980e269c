// Checkpoint format round-trips and the daemon's replay-and-resume
// contract (daemon/checkpoint.h, daemon/daemon.h): a killed-and-restarted
// run must end in byte-identical state to an uninterrupted run of the same
// trace, and every mismatch -- tampered bytes, different trace, different
// loop geometry -- must refuse loudly instead of silently diverging.

#include "daemon/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "daemon/daemon.h"
#include "daemon/workload.h"
#include "scratch_root.h"
#include "util/fnv.h"
#include "util/time.h"

namespace concilium::daemon {
namespace {

namespace fs = std::filesystem;
using util::kMinute;
using util::kSecond;

// A small world with every record kind: enough protocol activity that the
// checkpointed stats and journals are non-trivial, small enough that three
// full runs stay test-suite cheap.
constexpr const char* kTrace =
    "concilium-trace v1\n"
    "seed 11\n"
    "nodes 16\n"
    "hosts 120\n"
    "stubs 4\n"
    "duration 10min\n"
    "attack 0us 9 drop\n"
    "msg 15s 0 00000000000000aa\n"
    "msg 45s 1 00000000000000bb\n"
    "crash 70s 3 2min\n"
    "msg 90s 2 00000000000000cc\n"
    "churn 2min 5 3min\n"
    "msg 3min 4 00000000000000dd\n"
    "fault 4min 1 2 2min\n"
    "msg 5min 6 00000000000000ee\n"
    "msg 7min 7 00000000000000ff\n"
    "msg 8min 8 0000000000000011\n"
    "end 11\n";

DaemonOptions test_options(std::string checkpoint_dir) {
    DaemonOptions opts;
    opts.checkpoint_dir = std::move(checkpoint_dir);
    opts.checkpoint_every = 2 * kMinute;
    opts.tick = 30 * kSecond;
    opts.settle = 2 * kMinute;
    return opts;
}

/// A fresh, empty scratch directory under this process's own temp root.
fs::path scratch_dir(const std::string& name) {
    static const testing::ScratchRoot root("concilium_daemon_test");
    return root.fresh(name);
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

Checkpoint sample_checkpoint() {
    Checkpoint ck;
    ck.trace_fnv = 0x1234abcd5678ef00ull;
    ck.sim_clock = 5 * kMinute;
    ck.tick = 30 * kSecond;
    ck.checkpoint_every = 2 * kMinute;
    ck.messages_fed = 42;
    ck.checkpoints_written = 2;
    ck.stats = {{"messages_sent", 42}, {"messages_delivered", 40},
                {"accusations", 1}};
    ck.journals = {{7, 0xdeadbeefull}, {0, util::kFnvOffset}, {3, 0x42ull}};
    return ck;
}

TEST(Checkpoint, TextRoundTripPreservesEveryField) {
    const Checkpoint ck = sample_checkpoint();
    const std::string text = ck.to_text();
    const Checkpoint back = Checkpoint::parse(text, "mem");

    EXPECT_EQ(back.trace_fnv, ck.trace_fnv);
    EXPECT_EQ(back.sim_clock, ck.sim_clock);
    EXPECT_EQ(back.tick, ck.tick);
    EXPECT_EQ(back.checkpoint_every, ck.checkpoint_every);
    EXPECT_EQ(back.messages_fed, ck.messages_fed);
    EXPECT_EQ(back.checkpoints_written, ck.checkpoints_written);
    ASSERT_EQ(back.stats.size(), ck.stats.size());
    for (std::size_t i = 0; i < ck.stats.size(); ++i) {
        EXPECT_EQ(back.stats[i], ck.stats[i]) << "stat " << i;
    }
    ASSERT_EQ(back.journals.size(), ck.journals.size());
    for (std::size_t i = 0; i < ck.journals.size(); ++i) {
        EXPECT_EQ(back.journals[i].entries, ck.journals[i].entries);
        EXPECT_EQ(back.journals[i].fnv, ck.journals[i].fnv);
    }
    // Identity: re-serialization is byte-stable, the property cmp(1) and
    // resume verification both lean on.
    EXPECT_EQ(back.to_text(), text);
}

TEST(Checkpoint, RejectsTamperedBytes) {
    std::string text = sample_checkpoint().to_text();
    // Nudge one stat value; the trailing self-digest no longer matches.
    const auto pos = text.find("messages_delivered 40");
    ASSERT_NE(pos, std::string::npos);
    text[pos + std::string("messages_delivered 4").size()] = '1';
    try {
        (void)Checkpoint::parse(text, "mem");
        FAIL() << "parse accepted a tampered checkpoint";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
            << "error was: " << e.what();
    }
}

TEST(Checkpoint, RejectsTruncation) {
    const std::string text = sample_checkpoint().to_text();
    // Drop the final "end\n" -- the torn-write shape rename() prevents but
    // the parser must still detect.
    EXPECT_THROW(
        (void)Checkpoint::parse(text.substr(0, text.size() - 4), "mem"),
        std::invalid_argument);
    EXPECT_THROW((void)Checkpoint::parse("", "mem"), std::invalid_argument);
}

TEST(Checkpoint, LatestCheckpointFilePicksTheHighestClock) {
    const fs::path dir = scratch_dir("latest");
    EXPECT_EQ(latest_checkpoint_file(dir.string()), "");

    Checkpoint early = sample_checkpoint();
    early.sim_clock = 2 * kMinute;
    Checkpoint late = sample_checkpoint();
    late.sim_clock = 8 * kMinute;
    const auto name = [&](const Checkpoint& ck) {
        return (dir / ("checkpoint-" + std::to_string(ck.sim_clock) +
                       ".ckpt"))
            .string();
    };
    util::FaultFs& io = util::FaultFs::system();
    write_atomic(name(early), early.to_text(), io);
    write_atomic(name(late), late.to_text(), io);
    // An unrelated file must not confuse the scan.
    write_atomic((dir / "notes.txt").string(), "not a checkpoint\n", io);

    EXPECT_EQ(latest_checkpoint_file(dir.string()), name(late));
    fs::remove_all(dir);
}

// The tentpole contract: SIGKILL-shaped interruption (stop mid-run, start
// a fresh Daemon on the same directory) ends in exactly the bytes of an
// uninterrupted run, and the replay rewrites the cadence checkpoints it
// passes byte-identically.
TEST(DaemonResume, StoppedAndResumedRunMatchesUninterruptedByteForByte) {
    const fs::path ref_dir = scratch_dir("ref");
    const fs::path cut_dir = scratch_dir("cut");

    // Reference: one uninterrupted run.
    std::string ref_state;
    {
        Daemon ref(Workload::parse(kTrace, "test"),
                   test_options(ref_dir.string()));
        ASSERT_TRUE(ref.run());
        ref_state = ref.state_text();
        EXPECT_GT(ref.score().fed, 0u);
    }

    // Interrupted: stop the run once its sim clock passes 4 minutes.  The
    // stopper watches health_text() (the documented thread-safe view) and
    // the run paces 2ms per tick, so the flag lands mid-run, at some tick
    // boundary past the threshold.
    {
        Daemon victim(Workload::parse(kTrace, "test"),
                      test_options(cut_dir.string()));
        std::atomic<bool> stop{false};
        std::thread stopper([&] {
            while (!stop.load()) {
                const std::string health = victim.health_text();
                const auto pos = health.find("sim-clock-us ");
                if (pos != std::string::npos &&
                    std::stoll(health.substr(
                        pos + std::string("sim-clock-us ").size())) >=
                        4 * kMinute) {
                    stop.store(true);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
        const bool finished = victim.run(&stop, /*pace_ms=*/2);
        stop.store(true);  // unblock the stopper on the finished path
        stopper.join();
        ASSERT_FALSE(finished) << "stop flag never landed mid-run";
        EXPECT_FALSE(latest_checkpoint_file(cut_dir.string()).empty());
    }

    // Resumed: a fresh Daemon on the same directory replays, verifies
    // against the loaded checkpoint, and runs to completion.
    {
        Daemon resumed(Workload::parse(kTrace, "test"),
                       test_options(cut_dir.string()));
        EXPECT_TRUE(resumed.resumed());
        ASSERT_TRUE(resumed.run());
        EXPECT_FALSE(resumed.resumed());  // verification consumed the target
        EXPECT_EQ(resumed.state_text(), ref_state);
    }

    // Every cadence checkpoint of the reference run exists in the resumed
    // directory with identical bytes (the off-cadence stop checkpoint is
    // extra, and ignored here).
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(ref_dir)) {
        const fs::path twin = cut_dir / entry.path().filename();
        ASSERT_TRUE(fs::exists(twin)) << twin;
        EXPECT_EQ(slurp(entry.path()), slurp(twin)) << twin;
        ++compared;
    }
    EXPECT_GT(compared, 0u);
    fs::remove_all(ref_dir);
    fs::remove_all(cut_dir);
}

TEST(DaemonResume, RefusesGeometryAndTraceMismatches) {
    const fs::path dir = scratch_dir("mismatch");

    // Leave a checkpoint behind by stopping right after the first cadence
    // point: run un-paced with a stop flag armed from the start is not
    // enough (it checkpoints at clock 0, which resume ignores), so run to
    // completion instead -- the final cadence checkpoint is on disk.
    {
        Daemon d(Workload::parse(kTrace, "test"),
                 test_options(dir.string()));
        ASSERT_TRUE(d.run());
    }
    ASSERT_FALSE(latest_checkpoint_file(dir.string()).empty());

    // Same trace, different tick: refused.
    {
        DaemonOptions opts = test_options(dir.string());
        opts.tick = 1 * kMinute;
        EXPECT_THROW(Daemon(Workload::parse(kTrace, "test"), opts),
                     std::invalid_argument);
    }
    // Same trace, different cadence: refused.
    {
        DaemonOptions opts = test_options(dir.string());
        opts.checkpoint_every = 5 * kMinute;
        EXPECT_THROW(Daemon(Workload::parse(kTrace, "test"), opts),
                     std::invalid_argument);
    }
    // Edited trace bytes (one destination key changed): refused.
    {
        std::string edited = kTrace;
        const auto pos = edited.find("00000000000000aa");
        ASSERT_NE(pos, std::string::npos);
        edited[pos + 15] = 'b';
        EXPECT_THROW(Daemon(Workload::parse(edited, "test"),
                            test_options(dir.string())),
                     std::invalid_argument);
    }
    fs::remove_all(dir);
}

TEST(CheckpointChain, SkipsTmpQuarantinedAndForeignFiles) {
    const fs::path dir = scratch_dir("chain");
    Checkpoint ck = sample_checkpoint();
    const auto write_at = [&](util::SimTime clock) {
        ck.sim_clock = clock;
        const std::string path =
            (dir / ("checkpoint-" + std::to_string(clock) + ".ckpt"))
                .string();
        write_atomic(path, ck.to_text(), util::FaultFs::system());
        return path;
    };
    const std::string oldest = write_at(2 * kMinute);
    const std::string newest = write_at(6 * kMinute);
    // Distractors: an interrupted write's leftover temp file, a quarantined
    // artifact, a non-decimal stem, and an unrelated file.
    std::ofstream(dir / "checkpoint-999.ckpt.tmp") << "torn";
    std::ofstream(dir / "checkpoint-888.ckpt.quarantined-digest-mismatch")
        << "bad";
    std::ofstream(dir / "checkpoint-abc.ckpt") << "junk";
    std::ofstream(dir / "notes.txt") << "unrelated";

    const std::vector<std::string> chain = checkpoint_chain(dir.string());
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], newest);
    EXPECT_EQ(chain[1], oldest);
    EXPECT_EQ(latest_checkpoint_file(dir.string()), newest);
    fs::remove_all(dir);
}

TEST(CheckpointChain, PruneKeepsTheNewestAndSparesQuarantine) {
    const fs::path dir = scratch_dir("prune");
    Checkpoint ck = sample_checkpoint();
    for (int i = 1; i <= 5; ++i) {
        ck.sim_clock = i * kMinute;
        write_atomic((dir / ("checkpoint-" + std::to_string(ck.sim_clock) +
                             ".ckpt"))
                         .string(),
                     ck.to_text(), util::FaultFs::system());
    }
    std::ofstream(dir / "checkpoint-7.ckpt.quarantined-truncated") << "bad";

    EXPECT_EQ(prune_checkpoint_chain(dir.string(), 0), 0u);  // keep all
    EXPECT_EQ(prune_checkpoint_chain(dir.string(), 2), 3u);
    const std::vector<std::string> chain = checkpoint_chain(dir.string());
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_NE(chain[0].find(std::to_string(5 * kMinute)), std::string::npos);
    EXPECT_NE(chain[1].find(std::to_string(4 * kMinute)), std::string::npos);
    EXPECT_TRUE(
        fs::exists(dir / "checkpoint-7.ckpt.quarantined-truncated"));
    fs::remove_all(dir);
}

// The self-healing contract (DAEMON.md "Durability under storage faults"):
// whatever shape of corruption hits the newest checkpoint -- truncation,
// one flipped bit, a tampered self-digest line -- resume quarantines it
// with a named reason, falls back to the newest valid ancestor, finishes
// byte-identical to an unfaulted run, and regenerates the corrupted
// cadence checkpoint cleanly along the way.
class DaemonSelfHeal : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        ref_dir_ = new fs::path(scratch_dir("selfheal_ref"));
        Daemon ref(Workload::parse(kTrace, "test"),
                   test_options(ref_dir_->string()));
        ASSERT_TRUE(ref.run());
        ref_state_ = new std::string(ref.state_text());
    }

    static void TearDownTestSuite() {
        fs::remove_all(*ref_dir_);
        delete ref_dir_;
        delete ref_state_;
        ref_dir_ = nullptr;
        ref_state_ = nullptr;
    }

    /// A fresh copy of the reference checkpoint directory.
    static fs::path cloned_dir(const std::string& name) {
        const fs::path dir = scratch_dir(name);
        for (const auto& entry : fs::directory_iterator(*ref_dir_)) {
            fs::copy_file(entry.path(), dir / entry.path().filename());
        }
        return dir;
    }

    /// Corrupts the newest checkpoint in `dir`; returns its path.
    static std::string corrupt_newest(const fs::path& dir,
                                      const std::string& shape) {
        const std::string path = latest_checkpoint_file(dir.string());
        EXPECT_FALSE(path.empty());
        std::string text = slurp(path);
        if (shape == "truncate") {
            // Tear at a line boundary: whole trailing lines (self-digest
            // and 'end' included) are gone, the prefix is intact.
            text.resize(text.rfind('\n', text.size() / 2) + 1);
        } else if (shape == "bitflip") {
            text[text.size() / 3] =
                static_cast<char>(text[text.size() / 3] ^ 0x10);
        } else {  // tamper the self-digest line itself
            const auto pos = text.rfind("digest ");
            EXPECT_NE(pos, std::string::npos);
            char& c = text[pos + 7];
            c = c == '0' ? '1' : '0';
        }
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        return path;
    }

    void expect_heals(const std::string& name, const std::string& shape,
                      const std::string& reason) {
        const fs::path dir = cloned_dir(name);
        const std::string corrupted = corrupt_newest(dir, shape);
        const std::string clean_bytes =
            slurp(*ref_dir_ / fs::path(corrupted).filename());

        Daemon d(Workload::parse(kTrace, "test"),
                 test_options(dir.string()));
        // The corrupt file is out of the candidate set, under a name that
        // states why, and the daemon said so.
        EXPECT_FALSE(fs::exists(corrupted));
        EXPECT_TRUE(fs::exists(corrupted + ".quarantined-" + reason))
            << shape;
        ASSERT_EQ(d.io_notes().size(), 1u);
        EXPECT_NE(d.io_notes()[0].find(corrupted), std::string::npos);
        EXPECT_NE(d.io_notes()[0].find(reason), std::string::npos);
        EXPECT_NE(d.health_text().find("checkpoints-quarantined 1"),
                  std::string::npos);
        // Resume fell back to the older ancestor, not a fresh start.
        EXPECT_TRUE(d.resumed());

        ASSERT_TRUE(d.run());
        EXPECT_EQ(d.state_text(), *ref_state_) << shape;
        // Replay regenerated the corrupted cadence checkpoint cleanly.
        EXPECT_EQ(slurp(corrupted), clean_bytes) << shape;
        fs::remove_all(dir);
    }

    static fs::path* ref_dir_;
    static std::string* ref_state_;
};

fs::path* DaemonSelfHeal::ref_dir_ = nullptr;
std::string* DaemonSelfHeal::ref_state_ = nullptr;

TEST_F(DaemonSelfHeal, TruncatedNewestFallsBackToOlder) {
    expect_heals("selfheal_trunc", "truncate", "truncated");
}

TEST_F(DaemonSelfHeal, BitFlippedNewestFallsBackToOlder) {
    expect_heals("selfheal_flip", "bitflip", "digest-mismatch");
}

TEST_F(DaemonSelfHeal, TamperedDigestLineFallsBackToOlder) {
    expect_heals("selfheal_digest", "digest", "digest-mismatch");
}

TEST_F(DaemonSelfHeal, FullyCorruptChainStartsFreshAndStillMatches) {
    const fs::path dir = cloned_dir("selfheal_all");
    std::size_t corrupted = 0;
    for (const std::string& path : checkpoint_chain(dir.string())) {
        std::string text = slurp(path);
        text.resize(text.size() / 2);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        ++corrupted;
    }
    ASSERT_GT(corrupted, 1u);

    Daemon d(Workload::parse(kTrace, "test"), test_options(dir.string()));
    EXPECT_FALSE(d.resumed());  // nothing valid left: fresh start
    EXPECT_EQ(d.io_notes().size(), corrupted);
    ASSERT_TRUE(d.run());
    EXPECT_EQ(d.state_text(), *ref_state_);
    fs::remove_all(dir);
}

TEST_F(DaemonSelfHeal, ExhaustedWriteRetriesDegradeInsteadOfDying) {
    // Every write fails loudly (eio at rate 1): the daemon retries within
    // its bounded budget, then disarms checkpointing and finishes the run
    // -- with the exact bytes of the unfaulted reference, because cadence
    // accounting keeps advancing while degraded.
    const fs::path dir = scratch_dir("selfheal_degraded");
    DaemonOptions opts = test_options(dir.string());
    opts.io = std::make_shared<util::FaultFs>(
        util::IoFaultSpec::parse("eio:1", /*seed=*/3));

    Daemon d(Workload::parse(kTrace, "test"), opts);
    EXPECT_FALSE(d.resumed());
    ASSERT_TRUE(d.run());
    EXPECT_TRUE(d.io_degraded());
    EXPECT_NE(d.health_text().find("io-degraded 1"), std::string::npos);
    ASSERT_FALSE(d.io_notes().empty());
    EXPECT_NE(d.io_notes().back().find("retry budget exhausted"),
              std::string::npos);
    EXPECT_EQ(d.state_text(), *ref_state_);
    EXPECT_TRUE(latest_checkpoint_file(dir.string()).empty());
    fs::remove_all(dir);
}

TEST_F(DaemonSelfHeal, CheckpointKeepBoundsTheChainOnDisk) {
    const fs::path dir = scratch_dir("selfheal_keep");
    DaemonOptions opts = test_options(dir.string());
    opts.checkpoint_keep = 2;
    Daemon d(Workload::parse(kTrace, "test"), opts);
    ASSERT_TRUE(d.run());
    const std::vector<std::string> chain = checkpoint_chain(dir.string());
    EXPECT_EQ(chain.size(), 2u);
    EXPECT_EQ(d.state_text(), *ref_state_);
    // The retained prefix of the chain is byte-identical to the unpruned
    // reference run's: pruning is a disk policy, not a state change.
    for (const std::string& path : chain) {
        EXPECT_EQ(slurp(path),
                  slurp(*ref_dir_ / fs::path(path).filename()));
    }
    fs::remove_all(dir);
}

}  // namespace
}  // namespace concilium::daemon
