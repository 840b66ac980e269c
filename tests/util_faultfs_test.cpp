// util::FaultFs: the deterministic storage-fault seam (util/faultfs.h).
//
// The seam's contract has three load-bearing parts: the passthrough mode is
// byte-transparent real I/O, loud faults throw naming path/op/site, and
// silent faults corrupt the artifact in exactly the promised shape while
// claiming success.  Determinism is the meta-contract -- the same spec,
// seed, and operation sequence must produce the same fault schedule.

#include "util/faultfs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "scratch_root.h"

namespace concilium::util {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory under this process's own temp root.
std::string scratch_dir(const char* name) {
    static const testing::ScratchRoot root("concilium_faultfs_test");
    return root.fresh(name).string();
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// The full atomic-write sequence through the seam, checkpoint.cpp style.
void write_through(FaultFs& f, const std::string& dir,
                   const std::string& name, const std::string& text) {
    const std::string path = dir + "/" + name;
    const std::string tmp = path + ".tmp";
    const int fd = f.open_trunc(tmp);
    f.write_all(fd, text, tmp);
    f.fsync_fd(fd, tmp);
    f.close_fd(fd);
    f.rename_file(tmp, path);
    f.fsync_dir(dir);
}

TEST(IoFaultSpec, ParsesAndFormatsTheFullGrammar) {
    const IoFaultSpec spec = IoFaultSpec::parse(
        "eio:0.01,short:0.01,torn_rename:0.005,bitrot:0.001,enospc:0.002",
        42);
    EXPECT_DOUBLE_EQ(spec.rates[static_cast<std::size_t>(IoFaultKind::kEio)],
                     0.01);
    EXPECT_DOUBLE_EQ(
        spec.rates[static_cast<std::size_t>(IoFaultKind::kBitrot)], 0.001);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.any());
    // format() is canonical and parse() round-trips it.
    const IoFaultSpec again = IoFaultSpec::parse(spec.format(), 42);
    EXPECT_EQ(again.format(), spec.format());
}

TEST(IoFaultSpec, EmptySpecIsInert) {
    const IoFaultSpec spec = IoFaultSpec::parse("", 0);
    EXPECT_FALSE(spec.any());
    EXPECT_EQ(spec.format(), "");
}

TEST(IoFaultSpec, RejectsUnknownKindsAndMalformedRates) {
    EXPECT_THROW((void)IoFaultSpec::parse("diskfire:0.5", 0),
                 std::invalid_argument);
    EXPECT_THROW((void)IoFaultSpec::parse("eio:nope", 0),
                 std::invalid_argument);
    EXPECT_THROW((void)IoFaultSpec::parse("eio:2.0", 0),
                 std::invalid_argument);
    // crash is one-shot-only by design: a rate-driven process exit is not
    // a reproducible experiment.
    EXPECT_THROW((void)IoFaultSpec::parse("crash:0.5", 0),
                 std::invalid_argument);
}

TEST(ParseOneShotFault, AcceptsEveryKindAndRejectsJunk) {
    const auto [site, kind] = parse_one_shot_fault("17:bitrot");
    EXPECT_EQ(site, 17u);
    EXPECT_EQ(kind, IoFaultKind::kBitrot);
    EXPECT_EQ(parse_one_shot_fault("0:crash").second, IoFaultKind::kCrash);
    EXPECT_THROW((void)parse_one_shot_fault("17"), std::invalid_argument);
    EXPECT_THROW((void)parse_one_shot_fault(":eio"), std::invalid_argument);
    EXPECT_THROW((void)parse_one_shot_fault("x:eio"), std::invalid_argument);
    EXPECT_THROW((void)parse_one_shot_fault("3:diskfire"),
                 std::invalid_argument);
}

TEST(FaultFs, PassthroughRoundTripsBytesAndCountsSites) {
    const std::string dir = scratch_dir("passthrough");
    FaultFs f;
    const std::string text = "line one\nline two\n";
    write_through(f, dir, "a.txt", text);
    // open, write, fsync, rename, dir-fsync = 5 sites; read is the 6th.
    EXPECT_EQ(f.ops(), 5u);
    EXPECT_EQ(f.read_file(dir + "/a.txt"), text);
    EXPECT_EQ(f.ops(), 6u);
    EXPECT_EQ(f.injected(), 0u);
    EXPECT_FALSE(fs::exists(dir + "/a.txt.tmp"));
}

TEST(FaultFs, OneShotEioThrowsNamingPathOpAndSite) {
    const std::string dir = scratch_dir("oneshot_eio");
    for (std::uint64_t site = 0; site < 5; ++site) {
        FaultFs f;
        f.arm_one_shot(site, IoFaultKind::kEio);
        try {
            write_through(f, dir, "a.txt", "payload\n");
            FAIL() << "site " << site << " did not throw";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("injected EIO"), std::string::npos) << what;
            EXPECT_NE(what.find("[io fault site " + std::to_string(site)),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(f.injected(), 1u);
    }
}

TEST(FaultFs, OneShotEnospcNamesEnospc) {
    const std::string dir = scratch_dir("oneshot_enospc");
    FaultFs f;
    f.arm_one_shot(1, IoFaultKind::kEnospc);  // the write site
    try {
        write_through(f, dir, "a.txt", "payload\n");
        FAIL() << "did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("injected ENOSPC"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultFs, ShortWritePersistsAPrefixAndClaimsSuccess) {
    const std::string dir = scratch_dir("short");
    FaultFs f;
    f.arm_one_shot(1, IoFaultKind::kShortWrite);
    const std::string text(1000, 'x');
    write_through(f, dir, "a.txt", text);  // must NOT throw
    EXPECT_EQ(f.injected(), 1u);
    const std::string got = slurp(dir + "/a.txt");
    EXPECT_LT(got.size(), text.size());
    EXPECT_EQ(got, text.substr(0, got.size()));
}

TEST(FaultFs, TornRenameLeavesTruncatedDestinationAndNoSource) {
    const std::string dir = scratch_dir("torn");
    FaultFs f;
    f.arm_one_shot(3, IoFaultKind::kTornRename);  // the rename site
    const std::string text(1000, 'y');
    write_through(f, dir, "a.txt", text);  // must NOT throw
    EXPECT_FALSE(fs::exists(dir + "/a.txt.tmp"));
    const std::string got = slurp(dir + "/a.txt");
    EXPECT_LT(got.size(), text.size());
    EXPECT_EQ(got, text.substr(0, got.size()));
}

TEST(FaultFs, BitrotFlipsExactlyOneBit) {
    const std::string dir = scratch_dir("bitrot");
    FaultFs f;
    f.arm_one_shot(3, IoFaultKind::kBitrot);
    const std::string text(512, 'z');
    write_through(f, dir, "a.txt", text);  // must NOT throw
    const std::string got = slurp(dir + "/a.txt");
    ASSERT_EQ(got.size(), text.size());
    int bits_flipped = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        unsigned diff = static_cast<unsigned char>(got[i]) ^
                        static_cast<unsigned char>(text[i]);
        while (diff != 0) {
            bits_flipped += static_cast<int>(diff & 1u);
            diff >>= 1;
        }
    }
    EXPECT_EQ(bits_flipped, 1);
}

TEST(FaultFs, RateScheduleIsReproducibleAndSeedSensitive) {
    const auto schedule = [](std::uint64_t seed) {
        const std::string dir = scratch_dir("sched");
        IoFaultSpec spec = IoFaultSpec::parse("eio:0.3", seed);
        FaultFs f(spec);
        std::string fired;
        for (int i = 0; i < 64; ++i) {
            try {
                const int fd = f.open_trunc(dir + "/s.tmp");
                f.close_fd(fd);
                fired += '.';
            } catch (const std::runtime_error&) {
                fired += 'X';
            }
        }
        return fired;
    };
    const std::string a = schedule(7);
    EXPECT_EQ(a, schedule(7));   // byte-reproducible
    EXPECT_NE(a, schedule(8));   // and actually seed-driven
    EXPECT_NE(a.find('X'), std::string::npos);
    EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultFs, OneShotFiresOnlyAtApplicableSites) {
    // Arm bitrot at a write site: writes cannot bitrot, so nothing fires
    // anywhere and the file is intact.
    const std::string dir = scratch_dir("inapplicable");
    FaultFs f;
    f.arm_one_shot(1, IoFaultKind::kBitrot);
    write_through(f, dir, "a.txt", "payload\n");
    EXPECT_EQ(f.injected(), 0u);
    EXPECT_EQ(slurp(dir + "/a.txt"), "payload\n");
}

TEST(FaultFs, RateFaultsSpareReadSitesButOneShotDoesNot) {
    const std::string dir = scratch_dir("read_exempt");
    {
        // Rate mode is a write-path failure model: even at eio:1 a read
        // goes through (or the trace load would abort every degraded run
        // at startup), while the write path fails every time.
        FaultFs clean;
        write_through(clean, dir, "a.txt", "payload\n");
        FaultFs f(IoFaultSpec::parse("eio:1", 5));
        EXPECT_EQ(f.read_file(dir + "/a.txt"), "payload\n");
        EXPECT_THROW((void)f.open_trunc(dir + "/b.txt"),
                     std::runtime_error);
    }
    {
        // One-shot still reaches reads: the sweep needs every site
        // addressable.
        FaultFs f;
        f.arm_one_shot(0, IoFaultKind::kEio);
        EXPECT_THROW((void)f.read_file(dir + "/a.txt"), std::runtime_error);
    }
}

TEST(FaultFs, RealIoErrorsStillSurface) {
    FaultFs f;
    EXPECT_THROW((void)f.read_file("/nonexistent/concilium/nope.txt"),
                 std::runtime_error);
    EXPECT_THROW((void)f.open_trunc("/nonexistent/concilium/nope.txt"),
                 std::runtime_error);
}

}  // namespace
}  // namespace concilium::util
