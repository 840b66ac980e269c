#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace concilium::util {

void parallel_for(std::size_t count, std::size_t workers,
                  FunctionRef<void(std::size_t)> body) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex failure_mutex;
    std::size_t failed_index = count;
    std::exception_ptr failure;
    // An index once taken always runs, so the lowest failing index is
    // always reached whichever thread fails first.
    const auto work = [&] {
        while (!stop) {
            const std::size_t i = next++;
            if (i >= count) return;
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(failure_mutex);
                if (i < failed_index) {
                    failed_index = i;
                    failure = std::current_exception();
                }
                stop = true;
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        try {
            for (std::size_t w = 1; w < std::min(workers, count); ++w) {
                helpers.emplace_back(work);
            }
        } catch (const std::system_error&) {
            // Out of threads: the ones already running take every index.
        }
        work();
    }  // helpers join here
    if (failure) std::rethrow_exception(failure);
}

}  // namespace concilium::util
