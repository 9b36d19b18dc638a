// Distributed sweep worker process (see docs/ARCHITECTURE.md "Distributed
// sweep backend"). Normally spawned by `sweep --backend dist --workers N`,
// but can also be pointed at a remote coordinator by hand:
//
//   $ ./sweep_worker --connect 192.168.1.10:7777
//
// The worker re-materializes the sweep grid from the coordinator's job
// message, pulls work units until told to stop, and exits 0. Exit code 3
// means the SB_SWEEP_WORKER_FAULT_AFTER fault injection tripped (CI uses it
// to prove unit reassignment); any other nonzero exit is a real failure.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "dist/spawn.hpp"
#include "dist/worker.hpp"
#include "obs/trace.hpp"
#include "runner/cli_options.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  sb::CliParser cli("distributed sweep worker");
  cli.add_string("connect", "",
                 "coordinator address as host:port (required)");
  cli.add_int("connect-timeout-ms", 10000,
              "how long to keep retrying the initial connect");
  cli.add_int("heartbeat-ms", 1000, "liveness heartbeat period");
  cli.add_int("reconnect-window-ms", 0,
              "keep retrying a lost coordinator (jittered exponential "
              "backoff) for this long before giving up; in-flight results "
              "are redelivered on reconnect (0 = exit on disconnect)");
  cli.add_int("reconnect-base-ms", 100, "first reconnect backoff step");
  cli.add_int("shard-threads", 0,
              "override SimConfig::shard_threads on every run executed here "
              "(0 = keep each spec's value); rows are independent of it, so "
              "big boxes can raise it safely");
  cli.add_string("trace-out", "",
                 "write a Chrome Trace Event Format file of this worker's "
                 "unit executions and reconnects on exit");
  cli.add_bool("verbose", false, "progress chatter on stderr");
  if (!cli.parse(argc, argv)) return 1;

  try {
    const std::string connect = cli.get_string("connect");
    const size_t colon = connect.rfind(':');
    if (connect.empty() || colon == std::string::npos) {
      throw std::runtime_error(
          "--connect expects host:port, e.g. --connect 127.0.0.1:7777");
    }
    const auto port = sb::parse_int(connect.substr(colon + 1));
    if (!port.has_value() || *port < 1 || *port > 65535) {
      throw std::runtime_error("--connect port must be in [1, 65535], got '" +
                               connect.substr(colon + 1) + "'");
    }

    sb::dist::Worker::Options options;
    options.host = connect.substr(0, colon);
    options.port = static_cast<uint16_t>(*port);
    options.connect_timeout_ms =
        sb::runner::parse_ms_flag(cli, "connect-timeout-ms", 1);
    options.heartbeat_ms = sb::runner::parse_ms_flag(cli, "heartbeat-ms", 1);
    options.reconnect_window_ms =
        sb::runner::parse_ms_flag(cli, "reconnect-window-ms", 0);
    options.reconnect_base_ms =
        sb::runner::parse_ms_flag(cli, "reconnect-base-ms", 1);
    const int64_t shard_threads = cli.get_int("shard-threads");
    if (shard_threads < 0) {
      throw std::runtime_error("--shard-threads must be >= 0");
    }
    options.shard_threads = static_cast<size_t>(shard_threads);
    options.verbose = cli.get_bool("verbose");
    if (const char* fault = std::getenv(sb::dist::kWorkerFaultEnv)) {
      const auto after = sb::parse_int(fault);
      if (!after.has_value() || *after < 0) {
        throw std::runtime_error(std::string(sb::dist::kWorkerFaultEnv) +
                                 " must be a non-negative unit count");
      }
      options.abandon_after_units = static_cast<size_t>(*after);
    }
    const std::string trace_out = cli.get_string("trace-out");
    if (!trace_out.empty()) sb::obs::TraceWriter::instance().enable();
    const int code = sb::dist::Worker(options).run();
    if (!trace_out.empty()) {
      sb::obs::TraceWriter::instance().disable();
      if (!sb::obs::TraceWriter::instance().write_file(trace_out)) {
        std::fprintf(stderr, "sweep_worker: cannot write trace to %s\n",
                     trace_out.c_str());
      }
    }
    return code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_worker: %s\n", error.what());
    return 1;
  }
}
