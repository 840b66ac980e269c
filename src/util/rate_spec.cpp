#include "util/rate_spec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace concilium::util {

namespace {

std::string known_kinds(std::span<const RateSpecKind> kinds) {
    std::string out;
    for (const RateSpecKind& k : kinds) {
        if (!out.empty()) out += ", ";
        out += k.name;
    }
    return out;
}

/// The whole of `text` as one T, or nothing: from_chars takes no blank and
/// no '+' (nor, for an unsigned T, a '-'), and reports overflow instead of
/// wrapping; a real must also be finite (strtod would accept "1e3x"
/// prefixes, " 5" or "nan").
template <class T>
std::optional<T> whole_number(std::string_view text) {
    if (text.empty()) return std::nullopt;
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last) return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) return std::nullopt;
    }
    return value;
}

std::string show(std::uint64_t v) { return std::to_string(v); }

std::string show(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/// Strict [0, 1] rate parse; rejects empty text, anything but one whole
/// finite decimal, and values outside [0, 1].
double parse_rate(std::string_view option, std::string_view noun,
                  std::string_view kind, std::string_view text) {
    const std::string owned(text);
    if (owned.empty()) {
        throw_bad_rate_spec(option, std::string(noun) + " '" +
                                        std::string(kind) +
                                        "' has an empty rate");
    }
    const std::optional<double> parsed = whole_number<double>(text);
    if (!parsed.has_value()) {
        throw_bad_rate_spec(option, std::string(noun) + " '" +
                                        std::string(kind) +
                                        "' has a malformed rate '" + owned +
                                        "'");
    }
    const double value = *parsed;
    if (value < 0.0 || value > 1.0) {
        throw_bad_rate_spec(option, std::string(noun) + " '" +
                                        std::string(kind) + "' rate " + owned +
                                        " is outside [0, 1]");
    }
    return value;
}

}  // namespace

void throw_bad_rate_spec(std::string_view option, const std::string& what) {
    throw std::invalid_argument(std::string(option) + ": " + what);
}

void parse_rate_spec(std::string_view text, std::string_view option,
                     std::string_view noun,
                     std::span<const RateSpecKind> kinds,
                     std::span<double> rates) {
    // Small vocabularies: the linear scans below beat any map.
    std::vector<bool> seen(rates.size(), false);
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view pair = text.substr(0, comma);
        if (comma != std::string_view::npos &&
            text.substr(comma + 1).empty()) {
            throw_bad_rate_spec(option,
                                "trailing ',' after '" + std::string(pair) +
                                    "'");
        }
        text = comma == std::string_view::npos ? std::string_view{}
                                               : text.substr(comma + 1);
        const std::size_t colon = pair.find(':');
        if (pair.empty() || colon == std::string_view::npos) {
            throw_bad_rate_spec(option, "expected 'kind:rate', got '" +
                                            std::string(pair) + "'");
        }
        const std::string_view name = pair.substr(0, colon);
        const RateSpecKind* match = nullptr;
        for (const RateSpecKind& k : kinds) {
            if (k.name == name) {
                match = &k;
                break;
            }
        }
        if (match == nullptr) {
            throw_bad_rate_spec(option, "unknown " + std::string(noun) +
                                            " kind '" + std::string(name) +
                                            "' (known: " +
                                            known_kinds(kinds) + ")");
        }
        if (seen[match->slot]) {
            throw_bad_rate_spec(option, std::string(noun) + " '" +
                                            std::string(name) +
                                            "' given twice");
        }
        seen[match->slot] = true;
        rates[match->slot] =
            parse_rate(option, noun, name, pair.substr(colon + 1));
    }
}

template <class T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi) {
    const std::optional<T> value = whole_number<T>(text);
    if (!value.has_value() || !(*value >= lo && *value <= hi)) {
        throw std::invalid_argument(
            std::string(flag) + ": expected a " +
            (std::is_floating_point_v<T> ? "number" : "count") + " in [" +
            show(lo) + ", " + show(hi) + "], got '" + std::string(text) +
            "'");
    }
    return *value;
}

template std::uint64_t parse_number(std::string_view, std::string_view,
                                    std::uint64_t, std::uint64_t);
template double parse_number(std::string_view, std::string_view, double,
                             double);

void check_rate_bounds(std::string_view option, double rate) {
    if (!(rate >= 0.0) || rate > 1.0) {
        throw_bad_rate_spec(option, "rate " + std::to_string(rate) +
                                        " is outside [0, 1]");
    }
}

std::string format_rate_spec(std::span<const RateSpecKind> kinds,
                             std::span<const double> rates) {
    std::string out;
    for (const RateSpecKind& k : kinds) {
        const double r = rates[k.slot];
        if (r == 0.0) continue;
        if (!out.empty()) out += ',';
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s:%g", std::string(k.name).c_str(),
                      r);
        out += buf;
    }
    return out;
}

}  // namespace concilium::util
