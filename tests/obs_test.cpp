// Observability layer suite (src/obs/): the trace writer's structural
// invariants — output parses with util/json, nests properly, and stays
// timestamp-ordered per thread; disabled, every emission is a no-op.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace sb::obs {
namespace {

// ---------------------------------------------------------------------------
// Trace writer
// ---------------------------------------------------------------------------

struct ParsedTrace {
  util::JsonValue json;
  const util::JsonValue* events = nullptr;
};

/// Serializes the live writer through its real JSON path and re-parses.
ParsedTrace parse_current_trace() {
  ParsedTrace parsed;
  parsed.json = util::parse_json(TraceWriter::instance().to_json().dump(2));
  parsed.events = parsed.json.find("traceEvents");
  return parsed;
}

TEST(Trace, SpansFromTwoThreadsParseNestAndStayMonotone) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  tracer.enable();

  const auto emit = [&tracer](const char* outer) {
    tracer.set_thread_name(std::string("t-") + outer);
    for (int round = 0; round < 3; ++round) {
      const TraceSpan window(outer, "test");
      const TraceSpan inner("inner", "test",
                            {{"round", static_cast<uint64_t>(round)}});
      tracer.instant("tick", "test");
    }
  };
  std::thread other([&] { emit("worker"); });
  emit("main");
  other.join();
  tracer.disable();

  const ParsedTrace parsed = parse_current_trace();
  ASSERT_NE(parsed.events, nullptr);
  // 2 threads x (1 metadata + 3 rounds x (2 B + 2 E + 1 instant)).
  ASSERT_EQ(parsed.events->size(), 32u);

  std::map<double, std::vector<std::string>> stacks;  // tid -> open spans
  std::map<double, double> last_ts;
  for (const util::JsonValue& event : parsed.events->as_array()) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    const std::string& ph = event.find("ph")->as_string();
    if (ph == "M") continue;
    const double tid = event.find("tid")->as_number();
    const double ts = event.find("ts")->as_number();
    if (last_ts.count(tid) != 0) {
      EXPECT_GE(ts, last_ts[tid]) << "per-thread order must be by timestamp";
    }
    last_ts[tid] = ts;
    const std::string& name = event.find("name")->as_string();
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name) << "spans must nest";
      stacks[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(event.find("s")->as_string(), "t");
      // Instants fire inside both spans on their thread.
      EXPECT_EQ(stacks[tid].size(), 2u);
    }
  }
  EXPECT_EQ(last_ts.size(), 2u) << "both threads must appear in the trace";
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left a span open";
  }
  tracer.reset_for_tests();
}

TEST(Trace, DisabledWriterRecordsNothing) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  ASSERT_FALSE(tracer.enabled());
  tracer.begin("never", "test");
  tracer.instant("never", "test");
  tracer.set_thread_name("ghost");
  { const TraceSpan span("never", "test"); }
  tracer.end("never", "test");
  EXPECT_EQ(tracer.now_us(), 0u);
  const ParsedTrace parsed = parse_current_trace();
  ASSERT_NE(parsed.events, nullptr);
  EXPECT_EQ(parsed.events->size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, SpanLatchedAtConstructionNeverEmitsUnmatchedEnd) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  {
    const TraceSpan span("raced", "test");  // constructed while disabled
    tracer.enable();
  }  // destructor must not emit an "E" with no matching "B"
  tracer.disable();
  const ParsedTrace parsed = parse_current_trace();
  EXPECT_EQ(parsed.events->size(), 0u);
  tracer.reset_for_tests();
}

}  // namespace
}  // namespace sb::obs
