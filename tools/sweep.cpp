// Multi-run sweep driver: scenario x seed x rule-set grids with
// machine-readable BENCH_sim.json output, on either the in-process
// thread-pool backend or a multi-process coordinator/worker fleet.
//
//   $ ./sweep --scenario tower16 --seeds 8 --threads 4
//   $ ./sweep data/scenarios/fig10.surf --seeds 4 --json out.json
//   $ ./sweep --scenario blob100000 --shards 8 --max-events 2000000
//   $ ./sweep --scenario tower16,tower64 --backend dist --workers 3
//   $ ./sweep --backend dist --workers 0 --bind 0.0.0.0 --port 7777
//         # then on other machines: ./sweep_worker --connect <host>:7777
//         # (with --port 0, read the bound port off the "sweep: ..." line)
//
// Resilience (docs/ARCHITECTURE.md "Distributed sweep backend"):
//
//   $ ./sweep --backend dist --journal sweep.journal ...   # crash-safe
//   $ ./sweep --resume sweep.journal                       # after a crash
//
// Scenario names are resolved by lat::resolve_scenario (--list-scenarios
// prints the vocabulary). The two backends produce byte-identical
// BENCH_sim.json for the same grid modulo the wall-clock fields; pass
// --scrub-timing to zero those and make the file a pure function of the
// grid (the CI dist-smoke and dist-chaos jobs diff the backends this way,
// across coordinator kills and worker reconnects).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/journal.hpp"
#include "dist/spawn.hpp"
#include "dist/worker.hpp"
#include "obs/trace.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"
#include "util/string_util.hpp"

namespace {

using namespace sb;

dist::Coordinator::Options coordinator_options(const CliParser& cli) {
  dist::Coordinator::Options copts;
  copts.bind_address = cli.get_string("bind");
  const int64_t port = cli.get_int("port");
  if (port < 0 || port > 65535) {
    throw std::runtime_error(fmt("--port must be in [0, 65535], got {}",
                                 port));
  }
  copts.port = static_cast<uint16_t>(port);
  const int64_t unit_size = cli.get_int("unit-size");
  if (unit_size < 1) {
    throw std::runtime_error(fmt("--unit-size must be >= 1, got {}",
                                 unit_size));
  }
  copts.unit_size = static_cast<size_t>(unit_size);
  copts.unit_timeout_ms = runner::parse_ms_flag(cli, "unit-timeout-ms", 1);
  copts.journal_path = cli.get_string("journal");
  copts.verbose = cli.get_bool("verbose");
  return copts;
}

/// Spawns the --workers subprocess fleet against `port`. Must run before
/// Coordinator::run starts service threads (fork in a threaded process is
/// not survivable). Workers connect and are queued by the listener backlog
/// until the coordinator starts accepting.
std::vector<dist::WorkerProcess> spawn_fleet(const CliParser& cli,
                                             uint16_t port,
                                             const char* argv0) {
  const int64_t workers = cli.get_int("workers");
  if (workers < 0) {
    throw std::runtime_error(
        fmt("--workers must be >= 0 (0 = serve external sweep_worker "
            "processes only), got {}",
            workers));
  }
  if (workers == 0) return {};
  dist::FleetOptions fopts;
  if (const char* fault = std::getenv(dist::kFleetFaultEnv)) {
    const auto parsed = parse_int(fault);
    if (!parsed.has_value() || *parsed < 0) {
      throw std::runtime_error(
          fmt("{} must be a non-negative unit count, got '{}'",
              dist::kFleetFaultEnv, fault));
    }
    fopts.fault_after_units = static_cast<long>(*parsed);
    std::printf("sweep: fault injection armed — worker 0 dies after %ld "
                "units\n",
                fopts.fault_after_units);
  }
  fopts.reconnect_window_ms =
      runner::parse_ms_flag(cli, "worker-reconnect-ms", 0);
  fopts.verbose = cli.get_bool("verbose");
  return dist::spawn_worker_fleet(dist::default_worker_binary(argv0),
                                  "127.0.0.1", port,
                                  static_cast<size_t>(workers), fopts);
}

void reap_fleet(const std::vector<dist::WorkerProcess>& fleet) {
  for (size_t i = 0; i < fleet.size(); ++i) {
    const int code = dist::reap_worker(fleet[i]);
    if (code == dist::Worker::kExitFault) {
      std::printf("sweep: worker %zu died by fault injection (reassignment "
                  "covered its units)\n",
                  i);
    } else if (code != 0) {
      std::fprintf(stderr, "sweep: worker %zu exited with code %d\n", i,
                   code);
    }
  }
}

/// Runs the grid on the coordinator/worker fleet; returns rows in spec
/// order (byte-identical to what the local backend computes).
std::vector<runner::RunRow> run_dist(const runner::SweepCliOptions& options,
                                     const CliParser& cli,
                                     const char* argv0) {
  dist::Coordinator coordinator(options, coordinator_options(cli));
  // Flushed immediately: scripts joining external workers (--port 0)
  // read the bound port off this line, and a pipe- or file-redirected
  // stdout is fully buffered by default.
  std::printf("sweep: %zu runs on %lld dist workers (port %u)\n",
              coordinator.spec_count(),
              static_cast<long long>(cli.get_int("workers")),
              coordinator.port());
  std::fflush(stdout);
  const std::vector<dist::WorkerProcess> fleet =
      spawn_fleet(cli, coordinator.port(), argv0);
  std::vector<runner::RunRow> rows = coordinator.run();
  reap_fleet(fleet);
  return rows;
}

/// Resumes a crashed dist sweep from its journal. The journal pins the
/// sweep's grid (so the rebuilt report is byte-identical to an
/// uninterrupted run) and the coordinator's bind address (so orphaned
/// workers reconnect); `options` is overwritten with the journaled grid.
std::vector<runner::RunRow> resume_dist(const std::string& journal_path,
                                        const CliParser& cli,
                                        const char* argv0,
                                        runner::SweepCliOptions& options) {
  const dist::JournalContents contents = dist::read_journal(journal_path);
  options = contents.job.options;
  dist::Coordinator::Options copts = coordinator_options(cli);
  copts.journal_path = journal_path;  // keep appending to the same file
  dist::Coordinator coordinator(contents, copts);
  std::printf("sweep: resuming %zu-run sweep from %s (%zu batches "
              "journaled, port %u)\n",
              coordinator.spec_count(), journal_path.c_str(),
              contents.batches.size(), coordinator.port());
  std::fflush(stdout);  // see run_dist
  const std::vector<dist::WorkerProcess> fleet =
      spawn_fleet(cli, coordinator.port(), argv0);
  std::vector<runner::RunRow> rows = coordinator.run();
  reap_fleet(fleet);
  return rows;
}

/// Prints the summary table, writes --json, and derives the exit code.
int emit_report(runner::BenchReport& report, const CliParser& cli,
                const runner::SweepCliOptions& options) {
  if (cli.get_bool("scrub-timing")) report.scrub_timing();

  std::printf("%-12s %-12s %6s %6s %10s %14s %10s %10s %10s\n", "scenario",
              "ruleset", "shards", "runs", "completed", "events/s mean",
              "hops mean", "moves", "conn fast");
  for (const auto& group : report.summarize()) {
    std::printf("%-12s %-12s %6zu %6zu %10zu %14.0f %10.1f %10.1f %10.4f\n",
                group.scenario.c_str(), group.ruleset.c_str(), group.shards,
                group.runs, group.completed, group.events_per_sec.mean,
                group.hops.mean, group.elementary_moves.mean,
                group.conn_fast_rate.mean);
    if (group.shards < 2) continue;
    // Shard-load diagnostic: a pathological map shows up as a busiest
    // shard far above the mean (imbalance 1.0 = perfectly balanced).
    uint64_t lightest = UINT64_MAX;
    uint64_t busiest = 0;
    for (const runner::RunRow& row : report.rows()) {
      if (row.scenario != group.scenario || row.ruleset != group.ruleset) {
        continue;
      }
      for (const uint64_t events : row.shard_events) {
        lightest = std::min(lightest, events);
        busiest = std::max(busiest, events);
      }
    }
    if (busiest == 0) continue;
    std::printf("  %-10s shard events min %llu max %llu imbalance %.2fx "
                "(busiest/mean)\n",
                "", static_cast<unsigned long long>(lightest),
                static_cast<unsigned long long>(busiest),
                group.shard_imbalance.mean);
  }

  const std::string json_path = cli.get_string("json");
  if (json_path == "-") {
    std::printf("%s", report.to_json_text().c_str());
  } else if (!json_path.empty()) {
    report.write_file(json_path);  // throws a clear error when unwritable
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Exit non-zero when any run failed to complete, so scripted sweeps fail
  // loudly. Runs stopped by an explicit --max-events budget are expected to
  // be incomplete (the giant throughput workloads) and do not fail.
  for (const runner::RunRow& row : report.rows()) {
    if (!row.complete &&
        !(options.max_events > 0 &&
          row.stop_reason == sim::StopReason::kEventLimit)) {
      return 2;
    }
  }
  return 0;
}

/// Scoped trace capture: enables the process-wide TraceWriter when a path
/// was given and serializes the buffer on scope exit — every mode path
/// (local, dist, resume) and the exception unwind all pass through the
/// same destructor.
class TraceCapture {
 public:
  explicit TraceCapture(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::TraceWriter::instance().enable();
  }
  ~TraceCapture() {
    if (path_.empty()) return;
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    tracer.disable();
    if (!tracer.write_file(path_)) {
      std::fprintf(stderr, "sweep: cannot write trace to %s\n",
                   path_.c_str());
      return;
    }
    if (tracer.dropped() != 0) {
      std::fprintf(stderr,
                   "sweep: trace buffer overflowed, %llu events dropped\n",
                   static_cast<unsigned long long>(tracer.dropped()));
    }
    std::printf("wrote %s\n", path_.c_str());
  }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

 private:
  std::string path_;
};

int run_sweep(int argc, char** argv) {
  CliParser cli("parallel scenario/seed/rule-set sweep harness");
  runner::SweepCliOptions defaults;
  defaults.scenarios = {"tower16"};
  runner::add_sweep_flags(cli, defaults);
  cli.add_string("json", "", "write BENCH_sim.json here ('-' = stdout)");
  cli.add_bool("trace", false,
               "capture per-run move traces (printed count; local backend "
               "only)");
  cli.add_bool("list-scenarios", false,
               "print the scenario vocabulary and exit");
  cli.add_bool("scrub-timing", false,
               "zero wall-clock fields in the report so the JSON is a pure "
               "function of the grid (backend-independent byte-for-byte)");
  cli.add_string("backend", "local",
                 "execution backend: local (in-process thread pool) | dist "
                 "(coordinator + worker fleet)");
  cli.add_int("workers", 3,
              "dist: subprocess workers to spawn (0 = only serve external "
              "sweep_worker connections)");
  cli.add_string("bind", "127.0.0.1",
                 "dist: coordinator listen address (0.0.0.0 for remote "
                 "workers)");
  cli.add_int("port", 0, "dist: coordinator listen port (0 = ephemeral)");
  cli.add_int("unit-size", 1, "dist: specs per work unit");
  cli.add_int("unit-timeout-ms", 600000,
              "dist: hard per-unit deadline before an in-flight unit is "
              "also handed to another worker (set above the worst-case "
              "runtime of one unit)");
  cli.add_string("journal", "",
                 "dist: write-ahead result journal — every merged batch is "
                 "fsync'd here before acknowledgment, so a killed "
                 "coordinator can be resumed losslessly");
  cli.add_string("resume", "",
                 "resume a dist sweep from this journal (rebinds the "
                 "journaled port so orphaned workers reconnect; only "
                 "unfinished units re-execute)");
  cli.add_int("worker-reconnect-ms", 0,
              "dist: reconnect window passed to spawned workers so they "
              "survive a coordinator kill + --resume cycle (0 = off)");
  cli.add_string("trace-out", "",
                 "write a Chrome Trace Event Format file (load in Perfetto "
                 "or chrome://tracing) covering this process's shard "
                 "phases and dist milestones");
  cli.add_bool("verbose", false, "dist: fleet chatter on stderr");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_bool("list-scenarios")) {
    std::printf("%s", runner::scenario_vocabulary().c_str());
    return 0;
  }

  const TraceCapture capture(cli.get_string("trace-out"));

  const std::string resume_path = cli.get_string("resume");
  runner::SweepCliOptions options = runner::parse_sweep_flags(cli);
  const std::string backend = cli.get_string("backend");
  if (backend != "local" && backend != "dist") {
    throw std::runtime_error("unknown --backend '" + backend +
                             "' (local | dist)");
  }

  std::vector<runner::SweepRun> runs;  // local backend only (traces)
  runner::BenchReport report{"sweep"};
  if (!resume_path.empty()) {
    // resume_dist replaces `options` with the journaled grid — the report
    // must describe the original sweep, not this process's default flags.
    std::vector<runner::RunRow> rows =
        resume_dist(resume_path, cli, argv[0], options);
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.generator = "sweep";
    report = runner::assemble_report(ropts, std::move(rows));
  } else if (backend == "dist") {
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.generator = "sweep";
    report = runner::assemble_report(ropts, run_dist(options, cli, argv[0]));
  } else {
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.capture_traces = cli.get_bool("trace");
    ropts.generator = "sweep";
    const runner::SweepGrid grid = runner::make_sweep_grid(options);
    const runner::SweepRunner runner(ropts);
    const std::vector<runner::RunSpec> specs = runner::expand(grid);
    std::printf("sweep: %zu runs on %zu threads\n", specs.size(),
                runner.effective_threads(specs.size()));
    runner::SweepResult result = runner.run(specs);
    report = std::move(result.report);
    runs = std::move(result.runs);
    if (ropts.capture_traces) {
      size_t moves = 0;
      for (const auto& run : runs) moves += run.move_trace.size();
      std::printf("captured %zu move-trace lines\n", moves);
    }
  }
  return emit_report(report, cli, options);
}

}  // namespace

int main(int argc, char** argv) {
  // CLI mistakes (typo'd scenario names, bad seeds, unwritable --json
  // paths, missing files) and fleet failures (occupied --port, corrupt
  // --resume journals) surface as exceptions; report them as one-line
  // errors instead of aborting.
  try {
    return run_sweep(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep: %s\n", error.what());
    return 1;
  }
}
