#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace obs {
namespace {

// Tracing state is process-global; every test starts from a clean, disabled
// trace and leaves it that way.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableTracing(false);
    EnableMetrics(false);
    ClearTrace();
  }
  void TearDown() override {
    EnableTracing(false);
    EnableMetrics(false);
    ClearTrace();
  }
};

TEST_F(TraceTest, DisabledByDefaultRecordsNothing) {
  {
    OM_TRACE_SPAN("trace_test.noop");
  }
  EXPECT_TRUE(ExportSpans().empty());
  EXPECT_EQ(DroppedSpans(), 0u);
}

TEST_F(TraceTest, NestedSpansAreContainedAndOrdered) {
  EnableTracing(true);
  {
    OM_TRACE_SPAN("trace_test.outer");
    {
      OM_TRACE_SPAN("trace_test.inner");
    }
  }
  std::vector<ExportedSpan> spans = ExportSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: the outer span opened first.
  EXPECT_STREQ(spans[0].name, "trace_test.outer");
  EXPECT_STREQ(spans[1].name, "trace_test.inner");
  // Proper nesting: the inner span lies inside the outer interval.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[1].start_ns);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
}

TEST_F(TraceTest, SpansOpenedWhileDisabledAreNotRecorded) {
  // The record decision is taken at construction time.
  TraceSpan* span = new TraceSpan("trace_test.late_enable");
  EnableTracing(true);
  delete span;
  EXPECT_TRUE(ExportSpans().empty());
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  EnableTracing(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { OM_TRACE_SPAN("trace_test.worker"); });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ExportedSpan> spans = ExportSpans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads));
  std::vector<int> tids;
  for (const ExportedSpan& s : spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(TraceTest, RingWrapCountsDroppedSpans) {
  EnableTracing(true);
  constexpr int kRecorded = (1 << 16) + 100;
  for (int i = 0; i < kRecorded; ++i) {
    OM_TRACE_SPAN("trace_test.wrap");
  }
  EXPECT_EQ(ExportSpans().size(), size_t{1} << 16);
  EXPECT_EQ(DroppedSpans(), 100u);
}

TEST_F(TraceTest, TimedSpanFeedsHistogramWhenMetricsEnabled) {
  EnableMetrics(true);
  Histogram* hist = MetricsRegistry::Global().GetHistogram(
      "trace_test.span_ns", {1e12});
  hist->Reset();
  {
    OM_TRACE_SPAN_TIMED("trace_test.timed", hist);
  }
  EXPECT_EQ(hist->Count(), 1);
  EXPECT_GE(hist->Sum(), 0.0);
  // Tracing stayed off: the duration was observed but no span recorded.
  EXPECT_TRUE(ExportSpans().empty());
}

TEST_F(TraceTest, TimedSpanSkipsHistogramWhenMetricsDisabled) {
  Histogram* hist = MetricsRegistry::Global().GetHistogram(
      "trace_test.span_off_ns", {1e12});
  hist->Reset();
  {
    OM_TRACE_SPAN_TIMED("trace_test.timed_off", hist);
  }
  EXPECT_EQ(hist->Count(), 0);
}

// Minimal structural JSON checker: verifies balanced braces/brackets and
// quote pairing outside strings — enough to catch malformed emission
// without a JSON library.
bool JsonStructurallyValid(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  EnableTracing(true);
  {
    OM_TRACE_SPAN("trace_test.chrome_a");
    OM_TRACE_SPAN("trace_test.chrome_b");
  }
  std::string json = RenderChromeTrace();
  EXPECT_TRUE(JsonStructurallyValid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace_test.chrome_a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace_test.chrome_b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"dropped_spans\":0}"),
            std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceRoundTripsThroughFile) {
  EnableTracing(true);
  {
    OM_TRACE_SPAN("trace_test.file");
  }
  std::string path = testing_util::TestTempDir() + "/trace_test_out.json";
  ASSERT_TRUE(WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_TRUE(JsonStructurallyValid(contents.str()));
  EXPECT_NE(contents.str().find("trace_test.file"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, WriteChromeTraceFailsOnBadPath) {
  EXPECT_FALSE(WriteChromeTrace("/nonexistent_dir_for_trace_test/t.json"));
}

}  // namespace
}  // namespace obs
}  // namespace omnimatch
