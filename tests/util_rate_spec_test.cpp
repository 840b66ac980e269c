// The shared "kind:rate" spec parser (util/rate_spec.h): rejection
// semantics and canonical formatting, tested once against a synthetic
// vocabulary.  net::FaultSpec and runtime::AttackCampaign both delegate
// here, so their own tests only need to cover kind wiring.  Also the
// numeric flag parser every binary's command line goes through.

#include "util/rate_spec.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace concilium::util {
namespace {

constexpr std::array<RateSpecKind, 3> kKinds = {{
    {0, "alpha"},
    {1, "beta"},
    {2, "gamma"},
}};

std::array<double, 3> parse(std::string_view text) {
    std::array<double, 3> rates = {};
    parse_rate_spec(text, "--test", "thing", kKinds, rates);
    return rates;
}

/// The diagnostic text of the std::invalid_argument `fn` throws.
template <typename Fn>
std::string thrown_what(Fn&& fn) {
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return "";
}

TEST(RateSpec, EmptyStringLeavesEveryRateUntouched) {
    std::array<double, 3> rates = {0.5, 0.25, 0.125};
    parse_rate_spec("", "--test", "thing", kKinds, rates);
    EXPECT_DOUBLE_EQ(rates[0], 0.5);
    EXPECT_DOUBLE_EQ(rates[1], 0.25);
    EXPECT_DOUBLE_EQ(rates[2], 0.125);
}

TEST(RateSpec, ParsesIntoNamedSlots) {
    const auto rates = parse("gamma:0.75,alpha:0.5");
    EXPECT_DOUBLE_EQ(rates[0], 0.5);
    EXPECT_DOUBLE_EQ(rates[1], 0.0);  // beta not named: untouched
    EXPECT_DOUBLE_EQ(rates[2], 0.75);
}

TEST(RateSpec, DiagnosticsCarryOptionPrefixAndToken) {
    // Every rejection names the option (so a bench's --chaos error reads
    // differently from its --attack error) and the offending token.
    EXPECT_NE(thrown_what([] { parse("alpha"); })
                  .find("--test: expected 'kind:rate', got 'alpha'"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("delta:0.1"); })
                  .find("unknown thing kind 'delta'"),
              std::string::npos);
    // The unknown-kind message lists the vocabulary.
    EXPECT_NE(thrown_what([] { parse("delta:0.1"); }).find("alpha"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("alpha:0.1,alpha:0.2"); })
                  .find("thing 'alpha' given twice"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("alpha:"); })
                  .find("thing 'alpha' has an empty rate"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("alpha:0.1q"); })
                  .find("malformed rate '0.1q'"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("alpha:2"); })
                  .find("outside [0, 1]"),
              std::string::npos);
    EXPECT_NE(thrown_what([] { parse("alpha:0.1,"); })
                  .find("trailing ','"),
              std::string::npos);
}

TEST(RateSpec, RejectsNonFiniteRates) {
    EXPECT_THROW(parse("alpha:nan"), std::invalid_argument);
    EXPECT_THROW(parse("alpha:inf"), std::invalid_argument);
    EXPECT_THROW(parse("alpha:-inf"), std::invalid_argument);
}

TEST(RateSpec, CheckRateBoundsRejectsNaN) {
    EXPECT_NO_THROW(check_rate_bounds("--test", 0.0));
    EXPECT_NO_THROW(check_rate_bounds("--test", 1.0));
    EXPECT_THROW(check_rate_bounds("--test", 1.0000001),
                 std::invalid_argument);
    EXPECT_THROW(check_rate_bounds("--test", -0.0000001),
                 std::invalid_argument);
    const double nan = std::stod("nan");
    EXPECT_THROW(check_rate_bounds("--test", nan), std::invalid_argument);
}

TEST(RateSpec, FormatEmitsTableOrderAndRoundTrips) {
    const std::array<double, 3> rates = {0.0, 0.25, 0.5};
    const std::string text = format_rate_spec(kKinds, rates);
    // alpha's zero rate is omitted; the rest appear in table order.
    EXPECT_EQ(text, "beta:0.25,gamma:0.5");
    EXPECT_EQ(parse(text), rates);
    const std::array<double, 3> empty = {};
    EXPECT_EQ(format_rate_spec(kKinds, empty), "");
}

std::uint64_t count(std::string_view text) {
    return parse_number<std::uint64_t>("--n", text, 0, UINT64_MAX);
}

std::uint64_t port(std::string_view text) {
    return parse_number<std::uint64_t>("--http-port", text, 0, 65535);
}

TEST(ParseNumber, CountRefusesJunkSignsOverflowAndTheEmptyToken) {
    for (const char* bad : {"5x", "abc", "zz", "1e3", " 1", "1 ", "-1", "+1",
                            "-0", "", "18446744073709551616"}) {
        EXPECT_THROW(count(bad), std::invalid_argument) << "'" << bad << "'";
    }
    EXPECT_EQ(count("0"), 0u);
    EXPECT_EQ(count("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(thrown_what([] { count("5x"); }),
              "--n: expected a count in [0, 18446744073709551615], got '5x'");
}

TEST(ParseNumber, PortAcceptsItsRangeEdgesAndRefusesBeyond) {
    EXPECT_EQ(port("0"), 0u);
    EXPECT_EQ(port("65535"), 65535u);
    EXPECT_THROW(port("65536"), std::invalid_argument);
    EXPECT_EQ(thrown_what([] { port("70000"); }),
              "--http-port: expected a count in [0, 65535], got '70000'");
}

TEST(ParseNumber, NumberIsOneFiniteDecimalInRange) {
    const auto fraction = [](std::string_view text) {
        return parse_number("--collusion", text, 0.0, 1.0);
    };
    EXPECT_DOUBLE_EQ(fraction("0"), 0.0);
    EXPECT_DOUBLE_EQ(fraction("1"), 1.0);
    EXPECT_DOUBLE_EQ(fraction("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(fraction("2.5e-1"), 0.25);
    for (const char* bad : {"7", "-0.5", "+0.5", " 0.5", "0.5x", "nan", "inf",
                            "", "1e400"}) {
        EXPECT_THROW(fraction(bad), std::invalid_argument) << "'" << bad << "'";
    }
    EXPECT_EQ(thrown_what([&] { fraction("7"); }),
              "--collusion: expected a number in [0, 1], got '7'");
    // A negative number is the range's business, not the parser's.
    EXPECT_DOUBLE_EQ(parse_number("--x", "-0.5", -1.0, 1.0), -0.5);
}

}  // namespace
}  // namespace concilium::util
