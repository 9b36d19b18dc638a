// Resilience suite for the distributed sweep backend: the write-ahead
// result journal, coordinator kill + `sweep --resume`, worker reconnect
// with in-flight result redelivery, and the clean-failure satellites
// (occupied bind port, dead coordinator host).
//
// The acceptance bar is the same byte-identity contract as dist_test.cpp:
// whatever the chaos schedule does to the fleet, the merged timing-scrubbed
// BENCH_sim.json must equal the local thread-pool backend's, and no
// completed work may re-execute after a resume beyond the single batch a
// crash can tear.
//
// Subprocess cases drive the real ./sweep and ./sweep_worker binaries
// (SMARTBLOCKS_BIN_DIR) so the chaos kill takes out a whole process, exactly
// as in the CI dist-chaos job; in-process cases script faults through
// SB_DIST_CHAOS + chaos::reset_for_tests().

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/chaos.hpp"
#include "dist/coordinator.hpp"
#include "dist/journal.hpp"
#include "dist/socket.hpp"
#include "dist/worker.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::dist {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() /
          fmt("sb-resilience-{}-{}", ::getpid(), name))
      .string();
}

/// Removes the paths on scope exit so failed runs don't pollute /tmp.
struct TempFiles {
  std::vector<std::string> paths;
  std::string make(const std::string& name) {
    paths.push_back(temp_path(name));
    return paths.back();
  }
  ~TempFiles() {
    for (const std::string& path : paths) {
      std::error_code ignored;
      fs::remove(path, ignored);
    }
  }
};

/// Sets SB_DIST_CHAOS for the current process and re-arms the parsed state;
/// restores a clean (unset) environment on destruction.
struct ChaosGuard {
  explicit ChaosGuard(const char* spec) {
    ::setenv("SB_DIST_CHAOS", spec, 1);
    chaos::reset_for_tests();
  }
  ~ChaosGuard() {
    ::unsetenv("SB_DIST_CHAOS");
    chaos::reset_for_tests();
  }
};

/// Runs a shell command; returns its exit code (128+signal when killed).
int run_tool(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status < 0) return 127;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 127;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

runner::RunRow sample_row(uint64_t salt) {
  runner::RunRow row;
  row.scenario = "tower16";
  row.ruleset = "uniform";
  row.seed = 0xdeadbeefcafef00dULL ^ salt;
  row.complete = true;
  row.events = (1ULL << 53) + salt;  // beyond double's exact integer range
  row.events_per_sec = 123456.789012345678;
  row.wall_seconds = 0.0123456789012345678;
  row.hops = salt;
  row.sim_ticks = 0xffffffffffffff01ULL;
  return row;
}

std::vector<runner::RunRow> rows_for(size_t begin, size_t count) {
  std::vector<runner::RunRow> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(sample_row(begin + i));
  return rows;
}

runner::SweepCliOptions small_grid(size_t seeds = 6) {
  runner::SweepCliOptions options;
  options.scenarios = {"tower16"};
  options.seed_count = seeds;
  options.latency = "uniform";  // every seed takes a different path
  return options;
}

std::string report_text(const runner::SweepCliOptions& options,
                        const std::vector<runner::RunRow>& rows) {
  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = options.master_seed;
  runner::BenchReport report = runner::assemble_report(ropts, rows);
  report.scrub_timing();
  return report.to_json_text();
}

std::string local_report_text(const runner::SweepCliOptions& options) {
  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = options.master_seed;
  runner::BenchReport report =
      runner::SweepRunner(ropts)
          .run(runner::expand(runner::make_sweep_grid(options)))
          .report;
  report.scrub_timing();
  return report.to_json_text();
}

// ---------------------------------------------------------------------------
// Journal (dist/journal)
// ---------------------------------------------------------------------------

TEST(Journal, RecordsRoundTrip) {
  TempFiles tmp;
  const std::string path = tmp.make("roundtrip.journal");
  {
    JournalWriter writer =
        JournalWriter::create(path, {"0.0.0.0", 4242});
    writer.record_job({small_grid(6), 6, 2});
    writer.record_batch({1, 2, 4}, rows_for(2, 2));
  }
  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.header.bind_address, "0.0.0.0");
  EXPECT_EQ(contents.header.port, 4242);
  EXPECT_EQ(contents.job.options.scenarios,
            std::vector<std::string>{"tower16"});
  EXPECT_EQ(contents.job.options.latency, "uniform");
  EXPECT_EQ(contents.job.spec_count, 6u);
  EXPECT_EQ(contents.job.unit_size, 2u);
  ASSERT_EQ(contents.batches.size(), 1u);
  EXPECT_EQ(contents.batches[0].unit, (WorkUnit{1, 2, 4}));
  ASSERT_EQ(contents.batches[0].rows.size(), 2u);
  // Bit-exact round trips — the byte-identity of resumed reports rests on
  // these (runner/serialize is exercised in depth by dist_test.cpp).
  EXPECT_EQ(contents.batches[0].rows[0].seed, sample_row(2).seed);
  EXPECT_EQ(contents.batches[0].rows[0].events_per_sec,
            sample_row(2).events_per_sec);
  EXPECT_EQ(contents.batches[0].rows[1].sim_ticks, sample_row(3).sim_ticks);
}

TEST(Journal, TornFinalLineIsDropped) {
  TempFiles tmp;
  const std::string path = tmp.make("torn.journal");
  {
    JournalWriter writer = JournalWriter::create(path, {});
    writer.record_job({small_grid(4), 4, 2});
    writer.record_batch({0, 0, 2}, rows_for(0, 2));
    writer.record_batch({1, 2, 4}, rows_for(2, 2));
  }
  // A crash mid-write tears at most the final line: truncate the file to
  // cut the last record in half.
  const uintmax_t full = fs::file_size(path);
  fs::resize_file(path, full - 40);
  const JournalContents torn = read_journal(path);
  ASSERT_EQ(torn.batches.size(), 1u);
  EXPECT_EQ(torn.batches[0].unit, (WorkUnit{0, 0, 2}));

  // An unterminated-but-parseable tail is equally untrusted: without the
  // '\n' commit marker the write may not have been the whole record.
  {
    const std::string text = read_file(path);
    const size_t first_batch = text.find(R"({"record": "batch")");
    ASSERT_NE(first_batch, std::string::npos);
    const size_t end = text.find('\n', first_batch);
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, end + 1)
        << text.substr(first_batch, end - first_batch);  // no newline
  }
  EXPECT_EQ(read_journal(path).batches.size(), 1u);
}

TEST(Journal, MidFileCorruptionThrows) {
  TempFiles tmp;
  const std::string path = tmp.make("corrupt.journal");
  {
    JournalWriter writer = JournalWriter::create(path, {});
    writer.record_job({small_grid(4), 4, 1});
  }
  std::string text = read_file(path);
  {
    std::ofstream out(path, std::ios::trunc);
    const size_t newline = text.find('\n');
    // Garbage between the header and the job record: not a torn tail, so
    // the reader must refuse the file instead of resuming from half a
    // story.
    out << text.substr(0, newline + 1) << "!garbage!\n"
        << text.substr(newline + 1);
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);
}

TEST(Journal, MissingFileOrHeaderThrows) {
  TempFiles tmp;
  EXPECT_THROW(read_journal(temp_path("nonexistent.journal")),
               std::runtime_error);
  const std::string path = tmp.make("headerless.journal");
  {
    JournalWriter writer = JournalWriter::create(path, {});
    writer.record_job({small_grid(4), 4, 1});
  }
  const std::string text = read_file(path);
  const std::string records = text.substr(text.find('\n') + 1);
  {
    std::ofstream out(path, std::ios::trunc);
    out << records;
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);

  // A v1 journal is refused with a message naming the expected format.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"record": "header", "format": "sb-dist-journal-v1", )"
        << R"("bind": "127.0.0.1", "port": 7777})" << "\n"
        << records;
  }
  try {
    (void)read_journal(path);
    ADD_FAILURE() << "a v1 journal must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(kJournalFormat), std::string::npos)
        << error.what();
  }

  // So is a header-only journal: without the job record there is no sweep
  // to resume.
  {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.find('\n') + 1);
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Coordinator kill + resume (subprocess, via the real binaries)
// ---------------------------------------------------------------------------

TEST(Resilience, CoordinatorKilledMidSweepResumesByteIdentical) {
  TempFiles tmp;
  const std::string journal = tmp.make("kill.journal");
  const std::string dist_json = tmp.make("kill-dist.json");
  const std::string local_json = tmp.make("kill-local.json");
  const std::string grid_flags =
      "--scenario tower16 --seeds 8 --latency uniform";

  // Phase 1: the chaos schedule SIGKILLs the coordinator the instant its
  // 2nd result batch is journaled — workers are mid-flight, acknowledgment
  // unsent. The spawned fleet gets a reconnect window wide enough to
  // survive until phase 2 rebinds the journaled port.
  const int killed = run_tool(fmt(
      "SB_DIST_CHAOS='coord.merge@2:kill' {}/sweep {} --backend dist "
      "--workers 2 --worker-reconnect-ms 15000 --journal {} --json {} "
      "--scrub-timing >/dev/null 2>&1",
      SMARTBLOCKS_BIN_DIR, grid_flags, journal, dist_json));
  EXPECT_EQ(killed, 137);
  EXPECT_EQ(read_journal(journal).batches.size(), 2u)
      << "exactly the acknowledged work survives the crash";

  // Phase 2: resume. The journaled grid and port are authoritative — no
  // grid flags here. The orphaned phase-1 workers reconnect alongside the
  // fresh fleet and their redelivered duplicates must be dropped.
  const int resumed = run_tool(
      fmt("{}/sweep --resume {} --workers 2 --json {} --scrub-timing "
          ">/dev/null 2>&1",
          SMARTBLOCKS_BIN_DIR, journal, dist_json));
  ASSERT_EQ(resumed, 0);

  const int local = run_tool(
      fmt("{}/sweep {} --json {} --scrub-timing >/dev/null 2>&1",
          SMARTBLOCKS_BIN_DIR, grid_flags, local_json));
  ASSERT_EQ(local, 0);
  EXPECT_EQ(read_file(dist_json), read_file(local_json))
      << "a killed-and-resumed sweep must be indistinguishable from an "
         "uninterrupted one";
}

// ---------------------------------------------------------------------------
// Worker reconnect + redelivery (in-process, scripted chaos)
// ---------------------------------------------------------------------------

TEST(Resilience, WorkerRedeliversInFlightResultAfterPartialFrame) {
  // The sole worker tears its connection mid-frame while sending its 2nd
  // result (the coordinator reads a truncated frame and abandons the
  // connection), reconnects, and redelivers the kept result. Nothing
  // re-executes: the merged report still byte-matches local.
  ChaosGuard guard("worker.result@2:partial");
  const runner::SweepCliOptions grid = small_grid(6);
  Coordinator::Options copts;
  copts.total_timeout_ms = 60000;
  Coordinator coordinator(grid, copts);

  Worker::Options wopts;
  wopts.port = coordinator.port();
  wopts.heartbeat_ms = 50;
  wopts.reconnect_window_ms = 20000;
  wopts.reconnect_base_ms = 20;
  int code = -1;
  std::thread worker([&] { code = Worker(wopts).run(); });
  const std::vector<runner::RunRow> rows = coordinator.run();
  worker.join();
  EXPECT_EQ(code, Worker::kExitOk);
  EXPECT_EQ(report_text(grid, rows), local_report_text(grid));
}

TEST(Resilience, WorkerWithoutReconnectWindowFailsLoudly) {
  // reconnect_window_ms = 0 keeps the old contract: a vanished coordinator
  // is a hard error, not an infinite retry loop.
  Worker::Options wopts;
  wopts.host = "127.0.0.1";
  wopts.port = 1;  // nothing listens on the reserved tcpmux port
  wopts.connect_timeout_ms = 200;
  EXPECT_THROW((void)Worker(wopts).run(), std::runtime_error);
}

TEST(Resilience, ReconnectGivesUpAfterTheWindow) {
  Worker::Options wopts;
  wopts.host = "127.0.0.1";
  wopts.port = 1;
  wopts.connect_timeout_ms = 100;
  wopts.reconnect_window_ms = 300;
  wopts.reconnect_base_ms = 20;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)Worker(wopts).run(), std::runtime_error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 10000) << "the window must bound the retries";
}

// ---------------------------------------------------------------------------
// Clean-failure satellites
// ---------------------------------------------------------------------------

TEST(Satellites, OccupiedBindPortFailsWithOneClearError) {
  TempFiles tmp;
  const Listener squatter("127.0.0.1", 0);

  // In-process: constructing a coordinator on the occupied port throws.
  Coordinator::Options copts;
  copts.port = squatter.port();
  EXPECT_THROW(Coordinator(small_grid(2), copts), std::runtime_error);

  // Tool-level: one clear line on stderr, exit 1 — not an abort.
  const std::string log = tmp.make("bind.log");
  const int code = run_tool(
      fmt("{}/sweep --scenario tower16 --seeds 2 --backend dist --workers 0 "
          "--port {} >{} 2>&1",
          SMARTBLOCKS_BIN_DIR, squatter.port(), log));
  EXPECT_EQ(code, 1);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("cannot bind"), std::string::npos) << text;
}

TEST(Satellites, WorkerAgainstDeadHostFailsLoudly) {
  TempFiles tmp;
  const std::string log = tmp.make("dead.log");
  const int code = run_tool(
      fmt("{}/sweep_worker --connect 127.0.0.1:1 --connect-timeout-ms 200 "
          ">{} 2>&1",
          SMARTBLOCKS_BIN_DIR, log));
  EXPECT_EQ(code, 1);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("cannot connect"), std::string::npos) << text;
}

TEST(Satellites, MalformedChaosSpecFailsLoudly) {
  ChaosGuard guard("coord.merge@oops:kill");
  EXPECT_THROW((void)chaos::hit(chaos::kCoordMerge), std::runtime_error);
}

}  // namespace
}  // namespace sb::dist
