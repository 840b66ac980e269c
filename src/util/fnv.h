// FNV-1a, the digest that binds a daemon checkpoint to its trace bytes and
// to each node's journal (DAEMON.md).

#pragma once

#include <cstddef>
#include <cstdint>

namespace concilium::util {

/// Offset basis of every trace, checkpoint and journal digest.  It is the
/// standard 64-bit basis with its last decimal digit dropped; checkpoints
/// carry digests cut with it, so it stays.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Incremental FNV-1a fold over raw bytes.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                         std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

}  // namespace concilium::util
