#include "dist/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/chaos.hpp"
#include "dist/protocol.hpp"
#include "obs/trace.hpp"
#include "dist/socket.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Serializes sends from the main loop and the heartbeat thread onto one
/// socket. Heartbeat failures are swallowed — the main loop will hit the
/// dead socket itself and report properly.
class SharedSender {
 public:
  explicit SharedSender(Socket& socket) : socket_(socket) {}

  void send(const Message& message) {
    const std::string payload = encode(message);
    std::lock_guard<std::mutex> lock(mu_);
    socket_.send_frame(payload);
  }

  bool try_send(const Message& message) {
    try {
      send(message);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Chaos `partial`: truncated frame, then the socket is closed (under the
  /// same mutex, so the heartbeat thread cannot race the teardown).
  void send_partial(const Message& message) {
    const std::string payload = encode(message);
    std::lock_guard<std::mutex> lock(mu_);
    socket_.send_partial_frame(payload);
  }

 private:
  Socket& socket_;
  std::mutex mu_;
};

/// The whole worker state machine; a thin struct so the reconnect loop,
/// session loop, and spec cache can share state without a parameter
/// parade. One instance per Worker::run call.
struct WorkerLoop {
  const Worker::Options& options;

  /// The sweep's expanded spec list, kept across reconnects (a resumed
  /// coordinator serves the journaled grid, so the description never
  /// changes).
  std::optional<std::vector<runner::RunSpec>> specs;
  /// A result the coordinator has not provably processed yet. Set before
  /// every send, redelivered after a reconnect, and cleared as soon as any
  /// later frame arrives on the same connection — TCP ordering guarantees
  /// the coordinator consumed (journaled + merged or deduped) the result
  /// before producing that frame.
  std::optional<Message> pending_result;
  size_t units_completed = 0;
  /// True once the current session got a welcome — used to tell "the same
  /// outage continues" from "a new outage after a healthy session".
  bool session_established = false;
  std::mt19937 jitter_rng{std::random_device{}()};

  explicit WorkerLoop(const Worker::Options& opts) : options(opts) {}

  void log(const std::string& line) const {
    if (options.verbose) {
      std::fprintf(stderr, "sweep_worker[%d]: %s\n",
                   static_cast<int>(::getpid()), line.c_str());
    }
  }

  [[nodiscard]] Message recv_message(Socket& socket) const {
    const RecvResult frame = socket.recv_frame(/*timeout_ms=*/-1);
    if (frame.status != RecvStatus::kFrame) {
      throw std::runtime_error("coordinator closed the connection");
    }
    return decode(frame.payload);
  }

  /// The sweep's expanded specs, fetching the description from the
  /// coordinator on first use. Returns nullptr if a stop message arrives
  /// instead (the sweep completed meanwhile).
  const std::vector<runner::RunSpec>* load_specs(Socket& socket,
                                                 SharedSender& sender) {
    if (specs.has_value()) return &*specs;
    sender.send(Message::job_request());
    const Message reply = recv_message(socket);
    pending_result.reset();  // any frame acknowledges an earlier result
    if (reply.type == MsgType::kStop) return nullptr;
    if (reply.type != MsgType::kJob) {
      throw std::runtime_error(fmt("expected the job description, got '{}'",
                                   to_string(reply.type)));
    }
    // Re-materialize the grid locally; only the option struct crossed the
    // wire. The spec count must agree with the coordinator's expansion or
    // the two sides would silently disagree about what unit [begin, end)
    // means (e.g. a .surf scenario file differing between machines).
    std::vector<runner::RunSpec> expanded =
        runner::expand(runner::make_sweep_grid(reply.options));
    if (expanded.size() != reply.spec_count) {
      throw std::runtime_error(
          fmt("grid expansion mismatch: coordinator announced {} specs, "
              "local expansion has {}",
              reply.spec_count, expanded.size()));
    }
    log(fmt("job description cached ({} specs)", expanded.size()));
    return &specs.emplace(std::move(expanded));
  }

  /// One connection's lifetime: handshake, then pull/execute/report until
  /// stop. Throws on connection loss (the reconnect loop catches it).
  int session(int connect_timeout_ms) {
    Socket socket =
        Socket::connect_to(options.host, options.port, connect_timeout_ms);
    SharedSender sender(socket);
    sender.send(Message::hello(static_cast<uint64_t>(::getpid())));
    const RecvResult first = socket.recv_frame(options.connect_timeout_ms);
    if (first.status != RecvStatus::kFrame) {
      throw std::runtime_error("coordinator vanished during the handshake");
    }
    if (decode(first.payload).type != MsgType::kWelcome) {
      throw std::runtime_error("coordinator did not say welcome");
    }
    session_established = true;
    if (obs::TraceWriter::instance().enabled()) {
      obs::TraceWriter::instance().set_thread_name(
          fmt("worker-{}", static_cast<int>(::getpid())));
    }
    log(fmt("connected to {}:{}", options.host, options.port));

    // Liveness heartbeats, sent for the whole session so the coordinator
    // can tell "still crunching a big unit" from "dead".
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread heartbeat([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (!hb_cv.wait_for(lock,
                             std::chrono::milliseconds(options.heartbeat_ms),
                             [&] { return hb_stop; })) {
        lock.unlock();
        if (!sender.try_send(Message::heartbeat())) {
          lock.lock();
          break;
        }
        lock.lock();
      }
    });
    const auto stop_heartbeat = [&] {
      {
        std::lock_guard<std::mutex> lock(hb_mu);
        hb_stop = true;
      }
      hb_cv.notify_all();
      heartbeat.join();
    };

    try {
      if (pending_result.has_value()) {
        // Redelivery: the previous connection died after this result was
        // sent but before anything proved the coordinator processed it.
        // At worst it merged already and this copy is dropped as a
        // duplicate.
        log(fmt("redelivering result for unit {}", pending_result->unit.id));
        sender.send(*pending_result);
      }
      for (;;) {
        sender.send(Message::pull());
        const Message message = recv_message(socket);
        // Any frame from the coordinator proves every earlier frame we
        // sent on this connection — the pending result included — was
        // consumed first (frames are handled in order off one TCP stream).
        pending_result.reset();
        if (message.type == MsgType::kStop) {
          log(fmt("stop received after {} units", units_completed));
          stop_heartbeat();
          return Worker::kExitOk;
        }
        if (message.type != MsgType::kUnit) {
          throw std::runtime_error(fmt("expected unit or stop, got '{}'",
                                       to_string(message.type)));
        }
        const std::vector<runner::RunSpec>* grid = load_specs(socket, sender);
        if (grid == nullptr) {
          log("stop received while fetching the job description");
          stop_heartbeat();
          return Worker::kExitOk;
        }
        const WorkUnit unit = message.unit;
        if (unit.end > grid->size() || unit.begin >= unit.end) {
          throw std::runtime_error(
              fmt("unit [{}, {}) outside the {}-spec grid", unit.begin,
                  unit.end, grid->size()));
        }
        if (units_completed >= options.abandon_after_units) {
          // Fault injection: die holding an assigned unit, mid-sweep,
          // without a word — exactly what a crashed worker looks like from
          // the coordinator's side.
          log(fmt("fault injection: abandoning unit {} and dropping the "
                  "connection",
                  unit.id));
          stop_heartbeat();
          socket.close();
          return Worker::kExitFault;
        }
        chaos::hit(chaos::kWorkerUnit);
        std::vector<runner::RunRow> rows;
        rows.reserve(unit.size());
        {
          const obs::TraceSpan span("unit", "dist", {{"unit", unit.id}});
          for (size_t index = unit.begin; index < unit.end; ++index) {
            rows.push_back(runner::execute_run((*grid)[index],
                                               /*capture_trace=*/false,
                                               options.shard_threads)
                               .row);
          }
        }
        Message result = Message::result(unit, std::move(rows));
        // Remember the result before any bytes hit the wire: a connection
        // that dies anywhere past this point redelivers.
        pending_result = result;
        if (chaos::hit(chaos::kWorkerResult) == chaos::Action::kPartial) {
          sender.send_partial(result);
          throw std::runtime_error("chaos: partial result frame");
        }
        sender.send(std::move(result));
        ++units_completed;
      }
    } catch (...) {
      stop_heartbeat();
      throw;
    }
  }

  int run() {
    int attempt = 0;
    std::optional<Clock::time_point> outage_start;
    for (;;) {
      session_established = false;
      try {
        // Reconnect attempts use a short connect budget — the jittered
        // backoff below is what paces the retries, not connect_to's
        // internal refusal polling.
        const int connect_ms =
            attempt == 0 ? options.connect_timeout_ms
                         : std::min(options.connect_timeout_ms, 250);
        return session(connect_ms);
      } catch (const std::exception& error) {
        if (options.reconnect_window_ms <= 0) throw;
        const Clock::time_point now = Clock::now();
        if (session_established || !outage_start.has_value()) {
          // A fresh outage (the previous session was healthy, or this is
          // the first failure ever): the window starts now.
          outage_start = now;
          attempt = 0;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - *outage_start);
        if (elapsed.count() >= options.reconnect_window_ms) {
          throw std::runtime_error(
              fmt("gave up on {}:{} after {} ms of reconnect attempts "
                  "(last error: {})",
                  options.host, options.port, elapsed.count(),
                  error.what()));
        }
        const int base = std::max(1, options.reconnect_base_ms);
        const int delay =
            std::min(base << std::min(attempt, 10), 5000);
        std::uniform_int_distribution<int> jitter(delay / 2,
                                                  std::max(delay, 1));
        const int sleep_ms = jitter(jitter_rng);
        obs::TraceWriter::instance().instant("reconnect", "dist",
                                             {{"attempt", attempt + 1}});
        log(fmt("connection lost ({}); reconnect attempt {} in {} ms",
                error.what(), attempt + 1, sleep_ms));
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        ++attempt;
      }
    }
  }
};

}  // namespace

Worker::Worker(Options options) : options_(std::move(options)) {}

int Worker::run() {
  WorkerLoop loop(options_);
  return loop.run();
}

}  // namespace sb::dist
