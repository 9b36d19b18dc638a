// Observability layer suite (src/obs/): histogram bucket geometry over the
// full uint64_t range, the deterministic-merge guarantee the shard engine
// relies on (a merged Registry is identical regardless of how samples were
// partitioned across workers), and the trace writer's structural
// invariants — output parses with util/json, nests properly, and stays
// timestamp-ordered per thread; disabled, every emission is a no-op.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace sb::obs {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(Histogram, BucketEdgesCoverTheWholeRange) {
  // Bucket 0 is exact zeros; bucket k holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(Histogram::bucket_of(uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::bucket_of(kU64Max), 64u);

  // Every edge: 2^(k-1) opens bucket k and 2^k - 1 closes it.
  for (size_t k = 1; k < Histogram::kBuckets; ++k) {
    const uint64_t low = uint64_t{1} << (k - 1);
    EXPECT_EQ(Histogram::bucket_of(low), k) << "bucket " << k;
    EXPECT_EQ(Histogram::bucket_of(low + (low - 1)), k) << "bucket " << k;
  }
}

TEST(Histogram, RecordsExtremesIntoTheirBuckets) {
  Histogram hist;
  hist.record(0);
  hist.record(0);
  hist.record(1);
  hist.record(1000);
  hist.record(kU64Max);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(10), 1u);  // 1000 in [512, 1024)
  EXPECT_EQ(hist.bucket(64), 1u);
  EXPECT_EQ(hist.sum(), uint64_t{1000});  // 1001 + u64-max wraps to 1000
}

// ---------------------------------------------------------------------------
// Registry merge determinism
// ---------------------------------------------------------------------------

/// A fixed pseudo-random sample stream (deterministic, no std::random).
std::vector<uint64_t> sample_stream(size_t n) {
  std::vector<uint64_t> samples;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(x >> (i % 48));  // mix magnitudes across buckets
  }
  return samples;
}

/// Every field of one named histogram, as text.
std::string dump(const Registry& registry, const std::string& name) {
  const Histogram* hist = registry.histogram(name);
  if (hist == nullptr) return "absent";
  std::string out = std::to_string(hist->count()) + "/" +
                    std::to_string(hist->sum()) + ":";
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    out += " " + std::to_string(hist->bucket(i));
  }
  return out;
}

TEST(Registry, MergeIsIndependentOfWorkerPartition) {
  const std::vector<uint64_t> samples = sample_stream(257);
  std::vector<std::string> dumps;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    // Strided partition, exactly like ShardEngine's shard ownership.
    std::vector<Registry> per_worker(workers);
    for (size_t i = 0; i < samples.size(); ++i) {
      per_worker[i % workers].hist("phase_ns").record(samples[i]);
      per_worker[i % workers].hist("events").record(samples[i] % 5);
    }
    Registry merged;
    for (const Registry& registry : per_worker) merged.merge(registry);
    dumps.push_back(dump(merged, "phase_ns") + " | " + dump(merged, "events"));
  }
  for (size_t i = 1; i < dumps.size(); ++i) {
    EXPECT_EQ(dumps[0], dumps[i]) << "partition " << i << " diverged";
  }
}

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
