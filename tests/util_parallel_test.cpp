#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace concilium::util {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
    for (const std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
        for (const std::size_t count : {0u, 1u, 5u, 100u}) {
            std::vector<std::atomic<int>> runs(count);
            parallel_for(count, workers, [&](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(runs[i].load(), 1)
                    << "workers=" << workers << " count=" << count
                    << " index=" << i;
            }
        }
    }
}

TEST(ParallelFor, OneWorkerRunsInlineInIndexOrder) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool all_on_caller = true;
    parallel_for(50, 1, [&](std::size_t i) {
        order.push_back(i);
        all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(all_on_caller);
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
    for (const std::size_t workers : {1u, 4u}) {
        try {
            parallel_for(64, workers, [](std::size_t i) {
                if (i == 3 || i == 40) {
                    throw std::runtime_error("index " + std::to_string(i));
                }
            });
            ADD_FAILURE() << "no exception at workers=" << workers;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "index 3")
                << "workers=" << workers;
        }
    }
}

}  // namespace
}  // namespace concilium::util
