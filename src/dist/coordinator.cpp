#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "dist/chaos.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "obs/trace.hpp"
#include "runner/merge.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Spec count from the grid dimensions rather than a full expand(): the
/// coordinator never executes a run, and expand() would copy each scenario
/// (up to 10^6 blocks) into every one of its specs just to be counted.
size_t count_specs(const runner::SweepCliOptions& options) {
  const runner::SweepGrid grid = runner::make_sweep_grid(options);
  const size_t seeds =
      grid.seeds.empty() ? grid.seed_count : grid.seeds.size();
  return grid.scenarios.size() * std::max<size_t>(1, grid.configs.size()) *
         seeds;
}

}  // namespace

struct Coordinator::Impl {
  Options options;
  Listener listener;
  JournalWriter journal;

  // The one sweep this coordinator serves; grid, spec_count and unit_size
  // are set before any thread starts and never change.
  runner::SweepCliOptions grid;
  size_t spec_count = 0;
  size_t unit_size = 1;
  runner::ResultMerger merger{0};
  std::deque<WorkUnit> pending;

  // All coordination state lives under one mutex; handler threads are
  // blocked either in recv (their own socket) or on this cv.
  std::mutex mu;
  std::condition_variable cv;
  struct InFlight {
    WorkUnit unit;
    uint64_t conn_id = 0;
    Clock::time_point deadline;
  };
  std::vector<InFlight> in_flight;
  bool stopping = false;
  uint64_t next_conn_id = 1;

  std::vector<std::thread> handlers;

  explicit Impl(Options opts)
      : options(opts), listener(opts.bind_address, opts.port) {}

  void log(const std::string& line) const {
    if (options.verbose) {
      std::fprintf(stderr, "sweep dist: %s\n", line.c_str());
    }
  }

  // --- state transitions (callers hold `mu`) ------------------------------

  /// The unit the partition assigns to `id` (units are contiguous
  /// unit_size slices; the last one is short).
  [[nodiscard]] WorkUnit partition_unit(size_t id) const {
    const size_t begin = id * unit_size;
    return {id, begin, std::min(spec_count, begin + unit_size)};
  }

  /// Sets the sweep and queues its full partition.
  void set_sweep(runner::SweepCliOptions grid_options, size_t specs,
                 size_t unit) {
    grid = std::move(grid_options);
    spec_count = specs;
    unit_size = std::max<size_t>(1, unit);
    merger = runner::ResultMerger(spec_count);
    for (size_t u = 0; u * unit_size < spec_count; ++u) {
      pending.push_back(partition_unit(u));
    }
    log(fmt("sweep queued ({} specs in units of {})", spec_count, unit_size));
  }

  /// Puts a unit back up for grabs unless its rows already merged. Only
  /// units of the partition qualify — a unit echoed back by a confused
  /// worker must not be able to poison the pending queue.
  void requeue_locked(const WorkUnit& unit, const char* why) {
    if (unit.begin >= spec_count || unit != partition_unit(unit.id)) {
      log(fmt("dropped bogus unit {} [{}, {}) instead of requeueing ({})",
              unit.id, unit.begin, unit.end, why));
      return;
    }
    if (merger.has(unit.begin)) return;
    pending.push_back(unit);
    log(fmt("unit {} [{}, {}) requeued ({})", unit.id, unit.begin, unit.end,
            why));
  }

  /// Drops every in-flight entry owned by `conn_id`, requeueing the units.
  void abandon_connection_locked(uint64_t conn_id, const char* why) {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->conn_id == conn_id) {
        requeue_locked(it->unit, why);
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    cv.notify_all();
  }

  void merge_result_locked(const Message& message, uint64_t conn_id) {
    const WorkUnit& unit = message.unit;
    // Whatever the verdict, this connection no longer owns the unit; a
    // merged or duplicate unit must also leave the pending queue (it can
    // sit there when a slow original reports after a timeout requeue) —
    // claim_unit's stale-skip handles that part.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->unit.id == unit.id && it->conn_id == conn_id) {
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    if (unit != partition_unit(unit.id) ||
        message.rows.size() != unit.size()) {
      log(fmt("dropped malformed result for unit {} from connection {}",
              unit.id, conn_id));
      requeue_locked(unit, "malformed result");
      cv.notify_all();
      return;
    }
    if (merger.has(unit.begin)) {
      // Late redelivery of an already-merged batch (timeout reassignment or
      // a reconnecting worker replaying its unacknowledged result).
      log(fmt("dropped duplicate result for unit {} from connection {}",
              unit.id, conn_id));
      cv.notify_all();
      return;
    }
    // Write-ahead: the batch must be durable before this handler serves the
    // worker's next frame (the implicit acknowledgment). A journal failure
    // leaves the unit unmerged — requeue it and surface the error.
    if (journal.open()) {
      try {
        journal.record_batch(unit, message.rows);
      } catch (...) {
        requeue_locked(unit, "journal write failed");
        cv.notify_all();
        throw;
      }
    }
    const auto accept = merger.accept(unit.begin, message.rows);
    if (accept != runner::ResultMerger::Accept::kMerged) {
      // Unreachable given the checks above (units are partition-aligned),
      // but never let the journal and merger drift apart silently.
      throw std::runtime_error(
          fmt("unit {} journaled but not merged", unit.id));
    }
    // The batch is journaled and merged — the documented coord.merge
    // instant. kill here models a crash after durability but before the
    // worker's ack, which resume + duplicate-drop must absorb.
    chaos::hit(chaos::kCoordMerge);
    log(fmt("merged {}/{}", merger.merged(), merger.total()));
    if (merger.complete()) {
      log("sweep complete");
      stopping = true;
    }
    cv.notify_all();
  }

  // --- threads ------------------------------------------------------------

  void handle_connection(Socket socket, uint64_t conn_id) {
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    if (tracer.enabled()) {
      tracer.set_thread_name(fmt("coord-conn-{}", conn_id));
    }
    try {
      serve_connection(socket, conn_id);
    } catch (const std::exception& error) {
      log(fmt("connection {} failed: {}", conn_id, error.what()));
    }
    std::lock_guard<std::mutex> lock(mu);
    abandon_connection_locked(conn_id, "peer died");
  }

  void serve_connection(Socket& socket, uint64_t conn_id) {
    // Handshake: hello (version-checked by decode), then welcome.
    const RecvResult first = socket.recv_frame(options.worker_silence_ms);
    if (first.status != RecvStatus::kFrame) {
      throw std::runtime_error("peer did not say hello");
    }
    const Message hello = decode(first.payload);
    if (hello.type != MsgType::kHello) {
      throw std::runtime_error("peer did not say hello");
    }
    socket.send_frame(encode(Message::welcome()));
    log(fmt("worker connected (connection {}, pid {})", conn_id,
            hello.worker_pid));
    serve_worker(socket, conn_id);
  }

  void serve_worker(Socket& socket, uint64_t conn_id) {
    bool sent_stop = false;
    // Once the sweep is complete, the connection gets stop plus an
    // absolute wind-down deadline — absolute so that a straggler still
    // heartbeating (or streaming stale duplicate results) cannot keep
    // run() hostage.
    std::optional<Clock::time_point> linger_deadline;
    const auto arm_linger = [&] {
      if (!linger_deadline.has_value()) {
        linger_deadline =
            Clock::now() + std::chrono::milliseconds(options.stop_linger_ms);
      }
    };
    for (;;) {
      const bool finished = [&] {
        std::lock_guard<std::mutex> lock(mu);
        return stopping;
      }();
      if (finished && !sent_stop) {
        // Proactive stop: a worker grinding a stale (already reassigned
        // and merged) unit reads it right after reporting, instead of
        // pulling from a finished sweep.
        socket.send_frame(encode(Message::stop()));
        sent_stop = true;
        arm_linger();
      }
      int timeout_ms = options.worker_silence_ms;
      if (linger_deadline.has_value()) {
        const auto remaining = std::chrono::duration_cast<
            std::chrono::milliseconds>(*linger_deadline - Clock::now());
        if (remaining.count() <= 0) return;  // cut the straggler off
        timeout_ms = static_cast<int>(remaining.count()) + 1;
      }
      // Worker silence beyond the budget means dead (a healthy worker
      // heartbeats far more often than this, even while executing).
      const RecvResult frame = socket.recv_frame(timeout_ms);
      if (frame.status == RecvStatus::kTimeout) {
        if (linger_deadline.has_value()) return;  // linger expired
        throw std::runtime_error("worker went silent");
      }
      if (frame.status == RecvStatus::kClosed) return;  // orderly exit
      const Message message = decode(frame.payload);
      switch (message.type) {
        case MsgType::kHeartbeat:
          break;  // liveness only: the recv timeout just reset
        case MsgType::kResult: {
          obs::TraceSpan span("merge", "dist", {{"unit", message.unit.id}});
          std::lock_guard<std::mutex> lock(mu);
          merge_result_locked(message, conn_id);
          break;
        }
        case MsgType::kJobRequest:
          socket.send_frame(encode(Message::job_description(grid, spec_count)));
          break;
        case MsgType::kPull: {
          const std::optional<WorkUnit> unit = claim_unit(conn_id);
          if (!unit.has_value()) {
            // The sweep completed while this worker waited; tell it to
            // stop (unless the proactive stop above already did) and keep
            // looping — the next recv sees its close within the linger.
            if (!sent_stop) {
              socket.send_frame(encode(Message::stop()));
              sent_stop = true;
              arm_linger();
            }
            break;
          }
          obs::TraceWriter& tracer = obs::TraceWriter::instance();
          if (tracer.enabled()) {
            tracer.instant("dispatch", "dist", {{"unit", unit->id}});
          }
          const chaos::Action action = chaos::hit(chaos::kCoordDispatch);
          try {
            const std::string payload = encode(Message::make_unit(*unit));
            if (action == chaos::Action::kPartial) {
              socket.send_partial_frame(payload);
              throw std::runtime_error("chaos: partial dispatch frame");
            }
            socket.send_frame(payload);
          } catch (...) {
            // The worker died between pulling and receiving; hand the
            // unit on.
            std::lock_guard<std::mutex> lock(mu);
            abandon_connection_locked(conn_id, "send failed");
            throw;
          }
          break;
        }
        default:
          throw std::runtime_error(fmt("unexpected '{}' message from worker",
                                       to_string(message.type)));
      }
    }
  }

  /// Claims the next pending unit: blocks until one frees up, or returns
  /// nullopt once the sweep is complete.
  std::optional<WorkUnit> claim_unit(uint64_t conn_id) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (stopping) return std::nullopt;
      // Skip pending copies whose rows arrived while they waited.
      while (!pending.empty() && merger.has(pending.front().begin)) {
        pending.pop_front();
      }
      if (!pending.empty()) {
        const WorkUnit unit = pending.front();
        pending.pop_front();
        const Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(options.unit_timeout_ms);
        in_flight.push_back({unit, conn_id, deadline});
        return unit;
      }
      cv.wait(lock);
    }
  }

  void accept_loop() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) return;
      }
      std::optional<Socket> socket;
      try {
        socket = listener.accept(options.tick_ms);
      } catch (const std::exception& error) {
        // Transient accept failures (EMFILE under a huge fleet, ...) must
        // degrade to a refused connection, not a dead coordinator.
        log(fmt("accept failed, retrying: {}", error.what()));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.tick_ms));
        continue;
      }
      if (!socket.has_value()) continue;
      std::lock_guard<std::mutex> lock(mu);
      const uint64_t conn_id = next_conn_id++;
      handlers.emplace_back(
          [this, conn_id, sock = std::move(*socket)]() mutable {
            handle_connection(std::move(sock), conn_id);
          });
    }
  }

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      cv.wait_for(lock, std::chrono::milliseconds(options.tick_ms));
      if (stopping) return;
      const Clock::time_point now = Clock::now();
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->deadline <= now) {
          requeue_locked(it->unit, "unit timeout");
          it = in_flight.erase(it);
          cv.notify_all();
        } else {
          ++it;
        }
      }
    }
  }

  std::vector<runner::RunRow> run() {
    {
      std::lock_guard<std::mutex> lock(mu);
      // A resumed sweep may already be fully merged (and an empty grid
      // always is); don't wait for a fleet that has nothing to do.
      if (merger.complete()) stopping = true;
    }

    std::thread acceptor([this] { accept_loop(); });
    std::thread monitor([this] { monitor_loop(); });

    const bool bounded = options.total_timeout_ms > 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options.total_timeout_ms);
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      while (!stopping) {
        if (bounded) {
          if (cv.wait_until(lock, deadline) == std::cv_status::timeout &&
              !stopping) {
            expired = true;
            stopping = true;  // unblock every thread; workers get stop
            break;
          }
        } else {
          cv.wait(lock);
        }
      }
      cv.notify_all();
    }

    acceptor.join();
    monitor.join();
    // Handler threads wind down once their worker closes (stop was or
    // will be sent on its next pull) or goes silent past the linger.
    for (;;) {
      std::vector<std::thread> batch;
      {
        std::lock_guard<std::mutex> lock(mu);
        batch.swap(handlers);
      }
      if (batch.empty()) break;
      for (std::thread& handler : batch) handler.join();
    }

    std::lock_guard<std::mutex> lock(mu);
    if (expired) {
      throw std::runtime_error(
          fmt("distributed sweep timed out after {} ms with {}/{} runs "
              "merged",
              options.total_timeout_ms, merger.merged(), merger.total()));
    }
    return merger.take_rows();
  }
};

Coordinator::Coordinator(runner::SweepCliOptions grid_options,
                         Options options)
    : impl_(std::make_unique<Impl>(options)) {
  // Resolving the grid here (not in run) validates it before any worker is
  // spawned and pins the spec count announced in job messages.
  const size_t spec_count = count_specs(grid_options);
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->set_sweep(std::move(grid_options), spec_count, options.unit_size);
  if (!options.journal_path.empty()) {
    impl_->journal = JournalWriter::create(
        options.journal_path,
        {options.bind_address, impl_->listener.port()});
    impl_->journal.record_job(
        {impl_->grid, impl_->spec_count, impl_->unit_size});
  }
}

Coordinator::Coordinator(const JournalContents& contents, Options options)
    : impl_(nullptr) {
  // The journal header pins the coordinator's identity: orphaned workers
  // are retrying that address, so the resumed instance must live there.
  Options effective = options;
  effective.bind_address = contents.header.bind_address;
  effective.port = contents.header.port;
  impl_ = std::make_unique<Impl>(effective);
  if (!options.journal_path.empty()) {
    impl_->journal = JournalWriter::append_to(options.journal_path);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->set_sweep(contents.job.options, contents.job.spec_count,
                   contents.job.unit_size);
  for (const JournalBatch& batch : contents.batches) {
    if (batch.unit != impl_->partition_unit(batch.unit.id)) {
      throw std::runtime_error(
          fmt("journal batch for unit {} does not match the partition",
              batch.unit.id));
    }
    if (impl_->merger.has(batch.unit.begin)) continue;  // raced a crash
    impl_->merger.accept(batch.unit.begin, batch.rows);
  }
}

Coordinator::~Coordinator() = default;

uint16_t Coordinator::port() const { return impl_->listener.port(); }

size_t Coordinator::spec_count() const { return impl_->spec_count; }

std::vector<runner::RunRow> Coordinator::run() { return impl_->run(); }

}  // namespace sb::dist
