// Strict trace-parser edge cases (daemon/workload.h): a daemon fed garbage
// must refuse to start, naming the offending line, never guess.

#include "daemon/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/time.h"

namespace concilium::daemon {
namespace {

using util::kHour;
using util::kMicrosecond;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

constexpr const char* kGood =
    "concilium-trace v1\n"
    "# a comment, then a blank line\n"
    "\n"
    "seed 7\n"
    "nodes 16\n"
    "hosts 120\n"
    "stubs 4\n"
    "duration 10min\n"
    "attack 0us 3 drop\n"
    "msg 5s 0 00000000000000aa\n"
    "churn 20s 1 2min\n"
    "crash 40s 2 90s\n"
    "fault 1min 4 5 3min\n"
    "msg 2min 6 ff\n"
    "end 6\n";

/// Expects parse() to throw std::invalid_argument whose message contains
/// `needle` (always prefixed "origin:line:", so "t:N" pins the line too).
void expect_rejects(const std::string& text, const std::string& needle) {
    try {
        (void)Workload::parse(text, "t");
        FAIL() << "parse accepted a trace that should be rejected ("
               << needle << ")";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error was: " << e.what();
    }
}

TEST(Workload, ParsesDirectivesRecordsAndCounts) {
    const auto wl = Workload::parse(kGood, "t");
    EXPECT_EQ(wl.seed, 7u);
    EXPECT_EQ(wl.overlay_nodes, 16u);
    EXPECT_EQ(wl.end_hosts, 120u);
    EXPECT_EQ(wl.stub_domains, 4u);
    EXPECT_EQ(wl.duration, 10 * kMinute);
    ASSERT_EQ(wl.records.size(), 6u);
    EXPECT_EQ(wl.messages, 2u);
    EXPECT_EQ(wl.churns, 1u);
    EXPECT_EQ(wl.crashes, 1u);
    EXPECT_EQ(wl.faults, 1u);
    EXPECT_EQ(wl.attacks, 1u);
    EXPECT_EQ(wl.last_record_at(), 2 * kMinute);

    EXPECT_EQ(wl.records[0].kind, RecordKind::kAttack);
    EXPECT_EQ(wl.records[0].role, AttackRole::kDrop);
    EXPECT_EQ(wl.records[1].kind, RecordKind::kMessage);
    EXPECT_EQ(wl.records[1].a, 0u);
    EXPECT_EQ(wl.records[1].key, 0xaaull);
    EXPECT_EQ(wl.records[4].kind, RecordKind::kFault);
    EXPECT_EQ(wl.records[4].b, 5u);
    EXPECT_EQ(wl.records[4].down, 3 * kMinute);
}

TEST(Workload, ContentFnvBindsToTheExactBytes) {
    const auto a = Workload::parse(kGood, "t");
    const auto b = Workload::parse(kGood, "t");
    EXPECT_EQ(a.content_fnv, b.content_fnv);

    // Even a comment edit changes the digest: a checkpoint binds to trace
    // *bytes*, not parsed meaning, so resume-after-tamper fails loudly.
    std::string edited = kGood;
    edited.insert(edited.find("# a comment"), "# extra\n");
    const auto c = Workload::parse(edited, "t");
    EXPECT_NE(a.content_fnv, c.content_fnv);
    EXPECT_EQ(a.records.size(), c.records.size());
}

TEST(Workload, RejectsMissingOrWrongHeader) {
    expect_rejects("", "t:1");
    expect_rejects("msg 0us 0 aa\nend 1\n", "concilium-trace v1");
    expect_rejects("concilium-trace v2\nend 0\n", "concilium-trace v1");
}

TEST(Workload, RejectsUnknownRecordKind) {
    expect_rejects("concilium-trace v1\nbogus 1s 0 aa\nend 1\n",
                   "unknown record kind 'bogus'");
}

TEST(Workload, RejectsOutOfOrderTimestamps) {
    expect_rejects(
        "concilium-trace v1\n"
        "msg 5s 0 aa\n"
        "msg 4s 1 bb\n"
        "end 2\n",
        "t:3: out-of-order timestamp");
}

TEST(Workload, RejectsTruncatedFile) {
    // A trace chopped mid-stream loses its `end` trailer.
    expect_rejects("concilium-trace v1\nmsg 5s 0 aa\n", "missing 'end'");
    // ... or keeps the trailer but lost records before it.
    expect_rejects("concilium-trace v1\nmsg 5s 0 aa\nend 3\n",
                   "end trailer says 3 records but 1");
}

TEST(Workload, RejectsContentAfterEnd) {
    expect_rejects("concilium-trace v1\nend 0\nmsg 5s 0 aa\n",
                   "content after the 'end' trailer");
}

TEST(Workload, RejectsDuplicateAndLateDirectives) {
    expect_rejects("concilium-trace v1\nseed 1\nseed 2\nend 0\n",
                   "duplicate directive 'seed'");
    expect_rejects("concilium-trace v1\nmsg 1s 0 aa\nnodes 16\nend 1\n",
                   "directive 'nodes' after the first record");
}

TEST(Workload, RejectsOutOfRangeDirectiveValues) {
    expect_rejects("concilium-trace v1\nnodes 4\nend 0\n",
                   "nodes must be in [8, 100000]");
    expect_rejects("concilium-trace v1\nhosts 2\nend 0\n",
                   "hosts must be >= 16");
    expect_rejects("concilium-trace v1\nstubs 1\nend 0\n",
                   "stubs must be >= 2");
    expect_rejects("concilium-trace v1\nduration 0s\nend 0\n",
                   "duration must be positive");
}

TEST(Workload, RejectsMembersOutsideTheOverlay) {
    // Default overlay is 90 nodes; member indices saturate at nodes-1.
    expect_rejects("concilium-trace v1\nmsg 1s 90 aa\nend 1\n",
                   "member 90 out of range");
    expect_rejects("concilium-trace v1\nnodes 16\nmsg 1s 16 aa\nend 1\n",
                   "member 16 out of range");
}

TEST(Workload, RejectsMalformedRecordFields) {
    expect_rejects("concilium-trace v1\nmsg 1s 0\nend 1\n",
                   "'msg' takes: time member key64");
    expect_rejects("concilium-trace v1\nmsg 1s 0 xyz\nend 1\n",
                   "expected hex digits");
    expect_rejects("concilium-trace v1\nattack 1s 0 nice\nend 1\n",
                   "unknown attack role 'nice'");
    expect_rejects("concilium-trace v1\nchurn 1s 0 0s\nend 1\n",
                   "down-for must be positive");
    expect_rejects("concilium-trace v1\nfault 1s 3 3 1min\nend 1\n",
                   "fault endpoints must differ");
}

TEST(Workload, ParseTimeUnitsAndErrors) {
    EXPECT_EQ(parse_time("250us", "w"), 250 * kMicrosecond);
    EXPECT_EQ(parse_time("250ms", "w"), 250 * kMillisecond);
    EXPECT_EQ(parse_time("90s", "w"), 90 * kSecond);
    EXPECT_EQ(parse_time("5min", "w"), 5 * kMinute);
    EXPECT_EQ(parse_time("2h", "w"), 2 * kHour);
    EXPECT_THROW((void)parse_time("90", "w"), std::invalid_argument);
    EXPECT_THROW((void)parse_time("90d", "w"), std::invalid_argument);
    EXPECT_THROW((void)parse_time("s", "w"), std::invalid_argument);
    EXPECT_THROW((void)parse_time("-5s", "w"), std::invalid_argument);
}

// gen_workload.py takes any 64-bit seed, so the trace parser must too: the
// largest one has 20 digits.  One more is out of range, refused with the
// line named.
TEST(Workload, SeedTakesTheWholeUint64Range) {
    const auto wl = Workload::parse(
        "concilium-trace v1\n# generated\nseed 18446744073709551615\nend 0\n",
        "t");
    EXPECT_EQ(wl.seed, UINT64_MAX);
    expect_rejects(
        "concilium-trace v1\n# generated\nseed 18446744073709551616\nend 0\n",
        "t:3: expected a count in [0, 18446744073709551615], got "
        "'18446744073709551616'");
}

TEST(Workload, ParseFileRejectsMissingFile) {
    EXPECT_THROW((void)Workload::parse_file("/nonexistent/no.trace"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace concilium::daemon
