#ifndef OMNIMATCH_TESTS_TEST_UTIL_TEMP_DIR_H_
#define OMNIMATCH_TESTS_TEST_UTIL_TEMP_DIR_H_

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace omnimatch {
namespace testing_util {

/// A scratch directory private to this test process:
/// testing::TempDir()/<suite>.<test>.<pid>, created on first use and removed
/// with everything in it when the process exits. gtest_discover_tests runs
/// every case as its own process and `ctest -j` runs those side by side, so
/// a fixed file name directly under testing::TempDir() can be replaced by a
/// concurrent case between writing and reading it. Write test files here.
inline std::string TestTempDir() {
  struct Registry {
    std::mutex mu;
    std::set<std::string> dirs;
    ~Registry() {
      for (const std::string& dir : dirs) {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Registry registry;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      info == nullptr
          ? std::string("global")
          : std::string(info->test_suite_name()) + "." + info->name();
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '.') ch = '_';
  }
  const std::string dir = ::testing::TempDir() + "/" + name + "." +
                          std::to_string(static_cast<long>(getpid()));
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.dirs.insert(dir).second) {
    std::filesystem::create_directories(dir);
  }
  return dir;
}

}  // namespace testing_util
}  // namespace omnimatch

#endif  // OMNIMATCH_TESTS_TEST_UTIL_TEMP_DIR_H_
