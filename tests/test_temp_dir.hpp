#pragma once
// A scratch directory private to the running test. ctest -j runs every
// discovered test in its own process at the same time, so the directory
// name carries the test's suite, its name and the process id: no two
// concurrent tests can share (and tear down) each other's files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("mvcom-" + std::string(info->test_suite_name()) + "." +
             info->name() + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;
  ~TestTempDir() { std::filesystem::remove_all(path_); }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};
