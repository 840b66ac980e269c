// A temp directory private to one test process.
//
// gtest_discover_tests runs every test in its own process, and `ctest -j`
// runs those processes side by side.  A temp directory shared by name is
// therefore a race: one process's cleanup deletes another's files mid-run.
// A ScratchRoot is keyed by pid and test name (the suite name when built
// outside a test body, e.g. in SetUpTestSuite), and only its owner ever
// removes it.

#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace concilium::testing {

class ScratchRoot {
  public:
    /// Creates <tmp>/<prefix>.<pid>.<test name>, empty.
    explicit ScratchRoot(const std::string& prefix)
        : path_(std::filesystem::temp_directory_path() /
                (prefix + "." + std::to_string(::getpid()) + "." +
                 current_test())) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchRoot() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScratchRoot(const ScratchRoot&) = delete;
    ScratchRoot& operator=(const ScratchRoot&) = delete;

    /// A fresh, empty directory `name` under the root.
    [[nodiscard]] std::filesystem::path fresh(const std::string& name) const {
        const std::filesystem::path dir = path_ / name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    }

  private:
    static std::string current_test() {
        const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
        if (const auto* test = unit.current_test_info()) {
            return std::string(test->test_suite_name()) + "." + test->name();
        }
        const auto* suite = unit.current_test_suite();
        return suite != nullptr ? suite->name() : "main";
    }

    std::filesystem::path path_;
};

}  // namespace concilium::testing
