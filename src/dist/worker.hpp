#pragma once
// Distributed sweep worker: connects to a coordinator, re-materializes its
// sweep grid from the job description, and executes pulled work units via
// runner::execute_run, streaming RunRow batches back.
//
// A worker is stateless between units — any unit can run on any worker in
// any order, and a re-executed unit produces byte-identical rows (run
// execution is deterministic and seed forking is index-keyed) — which is
// what lets the coordinator reassign units from dead workers freely.
//
// The worker distinguishes an orderly stop message (exit 0) from a lost
// coordinator (connection closed or reset). With a reconnect window
// configured it rides out the latter: it keeps the result of any unit the
// coordinator has not yet acknowledged, retries the coordinator's address
// with jittered exponential backoff, and redelivers that result on the new
// connection — the coordinator's at-most-once merge drops it if the
// original delivery actually landed. This is what lets a fleet survive a
// coordinator SIGKILL + `sweep --resume` cycle without losing or
// double-counting work.
//
// Runs in-process (tests drive Worker::run on a thread) or as the
// tools/sweep_worker binary (one per subprocess or remote machine).

#include <cstddef>
#include <cstdint>
#include <string>

namespace sb::dist {

class Worker {
 public:
  /// Worker::run exit codes (also the sweep_worker process exit codes).
  static constexpr int kExitOk = 0;     ///< coordinator sent stop
  static constexpr int kExitFault = 3;  ///< fault injection tripped

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Budget for the initial connect (covers a coordinator that is still
    /// binding its listener; connect is retried until the deadline).
    int connect_timeout_ms = 10000;
    /// Liveness heartbeat period while executing or idle.
    int heartbeat_ms = 1000;
    /// How long to keep retrying a coordinator that vanished mid-session
    /// before giving up, measured from the first failed attempt of the
    /// outage. 0 disables reconnect — the first connection loss is fatal,
    /// the pre-reconnect behavior.
    int reconnect_window_ms = 0;
    /// First reconnect backoff delay; doubles per failed attempt (capped at
    /// 5 s) with uniform jitter in [delay/2, delay] so a whole fleet does
    /// not stampede a freshly resumed coordinator.
    int reconnect_base_ms = 100;
    /// Shard-thread override passed to execute_run; 0 keeps each spec's own
    /// value. Row values are shard_threads-independent (proven by the
    /// determinism suite), so a big box may raise this freely.
    size_t shard_threads = 0;
    /// Fault injection for tests and the CI dist-smoke job: after
    /// completing this many units the worker drops its connection without
    /// reporting the next unit — an abrupt mid-sweep death as seen by the
    /// coordinator. SIZE_MAX disables. (Scripted faults live in
    /// dist/chaos.hpp; this single-shot knob predates them.)
    size_t abandon_after_units = SIZE_MAX;
    /// Chatter to stderr (connect, units executed, reconnects, faults).
    bool verbose = false;
  };

  explicit Worker(Options options);

  /// Connects, serves until the coordinator says stop, and returns an exit
  /// code. Throws std::runtime_error on connection or protocol failure
  /// (after the reconnect window, if one is configured, is exhausted).
  [[nodiscard]] int run();

 private:
  Options options_;
};

}  // namespace sb::dist
