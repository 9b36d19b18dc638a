#pragma once
// Distributed sweep coordinator: partitions one sweep grid's expanded spec
// list into contiguous work units and serves them to a fleet of workers
// over the dist protocol, merging RunRow batches at most once per unit.
//
// Dispatch is pull-based — a worker that finishes early simply pulls the
// next unit, so fast workers steal more of the grid with no static
// partition.
//
// Fault model (docs/ARCHITECTURE.md "Distributed sweep backend"): a worker
// can die (connection drop) or stall (heartbeats stop) at any time; its
// in-flight units are requeued and reassigned, and a reconnecting worker may
// redeliver a result the coordinator already merged — the at-most-once merge
// drops the duplicate. The coordinator itself can be SIGKILLed at any
// instant: with a journal attached (Options::journal_path), every merged
// batch is fsync'd to disk *before* the sending worker's next frame is
// served, so `sweep --resume <journal>` reconstructs the exact merge state
// and re-dispatches only unfinished units. Because run execution is
// deterministic, a unit executed twice yields byte-identical rows and the
// first merged batch wins, so the merged report is independent of worker
// count, arrival order, deaths, reassignments, and resume cycles.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/journal.hpp"
#include "runner/cli_options.hpp"
#include "runner/report.hpp"

namespace sb::dist {

class Coordinator {
 public:
  struct Options {
    /// Listener address; keep the loopback default unless remote workers
    /// need to reach the coordinator (then bind 0.0.0.0).
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Specs per work unit. 1 maximizes stealing granularity; raise it to
    /// amortize protocol overhead on grids of tiny runs.
    size_t unit_size = 1;
    /// Hard per-unit deadline, measured from assignment and deliberately
    /// NOT refreshed by heartbeats: a live worker stuck on a unit is
    /// indistinguishable from a slow one, so after this long the unit is
    /// handed to another worker as well (the at-most-once merge makes the
    /// duplicate execution harmless). Set it above the worst-case runtime
    /// of one unit.
    int unit_timeout_ms = 600000;
    /// A worker connection that sends nothing (heartbeats included) for
    /// this long is declared dead and its in-flight units are requeued
    /// immediately. Workers heartbeat every second by default, so this is
    /// generous.
    int worker_silence_ms = 15000;
    /// Accept-loop and timeout-monitor poll granularity.
    int tick_ms = 100;
    /// Once the sweep is complete, connections get a stop message and
    /// this long to wind down; a worker still grinding a stale (reassigned
    /// and already-merged) unit is then cut off so run() returns promptly.
    int stop_linger_ms = 2000;
    /// Hard deadline for run(); 0 = none. Guards CI against a wedged fleet
    /// — run() throws when it expires.
    int total_timeout_ms = 0;
    /// Write-ahead result journal (dist/journal.hpp); empty = volatile
    /// coordinator, kill loses unmerged progress.
    std::string journal_path;
    /// Progress chatter (worker arrivals, deaths, reassignments) on stderr.
    bool verbose = false;
  };

  /// Binds the listener immediately (so port() is valid and workers may
  /// start connecting) and queues the grid's full partition; run() returns
  /// its rows. The coordinator counts the grid's specs itself and announces
  /// the count to workers as a cross-check.
  Coordinator(runner::SweepCliOptions grid_options, Options options);

  /// Resume constructor: rebuilds the sweep from a parsed journal,
  /// binding the address/port pinned in its header (so orphaned workers
  /// find the resumed coordinator), replays every journaled batch through
  /// the merger, and re-dispatches only unfinished units.
  /// `options.journal_path` should name the same file — new batches append
  /// to it, and replay dedups any record that raced a previous crash.
  Coordinator(const JournalContents& contents, Options options);

  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  [[nodiscard]] uint16_t port() const;

  [[nodiscard]] size_t spec_count() const;

  /// Serves the fleet and returns the rows in spec order once every spec
  /// is merged. Throws std::runtime_error if total_timeout_ms expires
  /// first.
  [[nodiscard]] std::vector<runner::RunRow> run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sb::dist
