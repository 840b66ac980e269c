// Strict command-line values: the "kind:rate[,kind:rate]*" spec shared by
// the chaos and attack surfaces, and the one numeric flag parser every
// binary uses.
//
// net::FaultSpec (`--chaos flap:0.02,...`) and runtime::AttackCampaign
// (`--attack equivocate:0.05,...`) expose the same grammar with the same
// deliberately unforgiving rejection semantics: unknown kinds, duplicated
// kinds, empty/malformed/out-of-range rates, and trailing commas all throw
// std::invalid_argument naming the offending token.  Both parsers live
// here now, parameterized by the option name ("--chaos"), the noun used in
// diagnostics ("fault" / "attack"), and the kind vocabulary, so the
// rejection semantics are specified -- and tested -- exactly once.  Both
// read numbers with the same whole-token decimal parse.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace concilium::util {

/// One name in a rate-spec vocabulary: `slot` indexes the caller's dense
/// rate array (an enum value), `name` is the spelling accepted on the
/// command line.  Table order is also the canonical format_rate_spec()
/// order.
struct RateSpecKind {
    std::size_t slot = 0;
    std::string_view name;
};

/// Throws std::invalid_argument("<option>: <what>"); the shared prefix
/// convention for every rate-spec diagnostic.
[[noreturn]] void throw_bad_rate_spec(std::string_view option,
                                      const std::string& what);

/// Parses `text` and stores each kind's rate into `rates[kind.slot]`
/// (slots not named in the spec are left untouched; the empty string is
/// the empty spec).  Rejections, all via throw_bad_rate_spec(option, ...):
///   - "expected 'kind:rate', got '<pair>'"         (missing colon)
///   - "trailing ',' after '<pair>'"
///   - "unknown <noun> kind '<name>' (known: ...)"
///   - "<noun> '<name>' given twice"
///   - "<noun> '<name>' has an empty rate"
///   - "<noun> '<name>' has a malformed rate '<text>'"  (the whole token
///     must be a finite decimal: trailing junk, blanks, a leading '+' and
///     non-finite values are rejected)
///   - "<noun> '<name>' rate <text> is outside [0, 1]"
void parse_rate_spec(std::string_view text, std::string_view option,
                     std::string_view noun,
                     std::span<const RateSpecKind> kinds,
                     std::span<double> rates);

/// The [0, 1] bound check used by programmatic set_rate() calls; throws
/// "<option>: rate <rate> is outside [0, 1]".  Written so NaN fails too.
void check_rate_bounds(std::string_view option, double rate);

/// Strict numeric flag value: the whole of `text` must be one number in
/// [lo, hi], else std::invalid_argument("<flag>: expected a count|number in
/// [lo, hi], got '<text>'") is thrown.  A count (std::uint64_t) is decimal
/// digits only -- no sign, blank, exponent or trailing junk -- and is
/// refused on overflow, never wrapped.  A number (double) is a finite
/// decimal with no leading blank or '+'; whether it may be negative is the
/// range's business.
template <class T>
[[nodiscard]] T parse_number(std::string_view flag, std::string_view text,
                             T lo, T hi);
extern template std::uint64_t parse_number(std::string_view, std::string_view,
                                           std::uint64_t, std::uint64_t);
extern template double parse_number(std::string_view, std::string_view,
                                    double, double);

/// Canonical spec text: enabled kinds (rate != 0) in table order as
/// "kind:rate" with %g formatting; parse_rate_spec() round-trips it.
[[nodiscard]] std::string format_rate_spec(std::span<const RateSpecKind> kinds,
                                           std::span<const double> rates);

}  // namespace concilium::util
