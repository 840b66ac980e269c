// The one command-line argument every example takes: an optional seed.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/rate_spec.h"

namespace concilium::examples {

/// argv[1] through util::parse_number (the whole token, no sign, no
/// overflow), or `fallback` when it is absent.  A bad seed prints the
/// reason and a usage line and exits 2.
inline std::uint64_t seed_arg(int argc, char** argv, std::uint64_t fallback) {
    if (argc < 2) return fallback;
    try {
        return util::parse_number<std::uint64_t>("seed", argv[1], 0,
                                                 UINT64_MAX);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\nusage: %s [seed]\n", e.what(), argv[0]);
        std::exit(2);
    }
}

}  // namespace concilium::examples
