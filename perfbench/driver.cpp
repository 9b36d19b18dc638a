// perfbench driver: runs one benchmark workload against the sb library and
// prints its raw samples as one JSON line on stdout. perfbench/run.py builds
// this binary, runs it, checks the samples against the recorded counts and
// aggregates them into the benchmark's metrics (perfbench/README.md).
//
//   perfbench_driver --workload tower-converge --seed 7 --seconds 38
//   perfbench_driver --workload blob-giant --seed 7 --seconds 38
//                    --trace-dir .bench_build/traces
//
// A cycle builds a fresh world and runs it. Without --trace-dir every cycle
// is a plain (untraced) one, timed end to end. With it, cycles rotate plain,
// traced and, on the shard engine, parallel (see CycleKind); each traced
// cycle records obs::TraceWriter spans around the same public calls into
// <trace-dir>/cycle-<k>.json.
//
// Every number is taken from outside the library: the driver times its own
// calls into lat::, core::, sim:: and runner:: and reads the counters those
// calls already return. Nothing under src/ is instrumented for it.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/region.hpp"
#include "lattice/scenario.hpp"
#include "motion/rule_library.hpp"
#include "msg/latency.hpp"
#include "obs/trace.hpp"
#include "runner/sweep.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace sb;
using Clock = std::chrono::steady_clock;
using util::JsonValue;

/// Event budget of the capped giant-world workloads, as in
/// bench_sim_throughput's giant groups.
constexpr uint64_t kGiantEventBudget = 1'500'000;
constexpr const char* kCategory = "perfbench";

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Wall time of `fn` under a trace span of the same name (the span is a
/// no-op while the writer is disabled).
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  {
    const obs::TraceSpan span(span_name, kCategory);
    fn();
  }
  return seconds_since(start);
}

// ---------------------------------------------------------------------------
// Checks shared by the workloads. Each returns a failure message or "".
// ---------------------------------------------------------------------------

/// The built path is a contiguous, fully occupied shortest I -> O path of
/// manhattan(I, O) + 1 cells.
/// `grid` may be null when the final world is no longer available.
std::string check_path(const std::optional<std::vector<lat::Vec2>>& path,
                       const lat::Grid* grid, lat::Vec2 input,
                       lat::Vec2 output) {
  if (!path.has_value()) return "no fully occupied shortest path";
  const std::vector<lat::Vec2>& cells = *path;
  if (cells.size() !=
      static_cast<size_t>(lat::shortest_path_cells(input, output))) {
    return "path has " + std::to_string(cells.size()) + " cells, expected " +
           std::to_string(lat::shortest_path_cells(input, output));
  }
  if (cells.front() != input || cells.back() != output) {
    return "path does not run from I to O";
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (grid != nullptr && !grid->occupied(cells[i])) {
      return "path cell not occupied";
    }
    if (i > 0 && lat::manhattan(cells[i - 1], cells[i]) != 1) {
      return "path is not contiguous";
    }
  }
  return "";
}

/// The counters a session already exposes (ReconfigMetrics, SimStats, the
/// oracle's ConnectivityStats), read after a run or a run of slices.
JsonValue session_counters(core::ReconfigurationSession& session) {
  const core::ReconfigMetrics& m = session.metrics();
  sim::Simulator& simulator = session.simulator();
  const sim::SimStats& stats = simulator.stats();
  const lat::ConnectivityStats& conn =
      simulator.world().view().connectivity_stats();
  JsonValue c = JsonValue::object();
  c["complete"] = m.complete;
  c["blocked"] = m.blocked;
  c["events"] = stats.events_processed;
  c["hops"] = m.hops;
  c["repositioning_hops"] = m.repositioning_hops;
  c["elementary_moves"] = simulator.world().elementary_moves();
  c["distance_computations"] = static_cast<uint64_t>(m.distance_computations);
  c["elections_completed"] = m.elections_completed;
  c["iterations"] = m.final_epoch != 0 ? uint64_t{m.final_epoch}
                                       : m.elections_started;
  c["election_restarts"] = m.election_restarts;
  c["messages_sent"] = stats.messages_sent;
  c["messages_delivered"] = stats.messages_delivered;
  c["messages_dropped"] = stats.messages_dropped;
  c["conn_fast_hits"] = conn.fast_path_hits;
  c["conn_slow_floods"] = conn.slow_path_floods;
  c["sim_ticks"] = simulator.now();
  JsonValue kinds = JsonValue::object();
  for (const auto& [kind, count] : stats.messages_by_kind) kinds[kind] = count;
  c["messages_by_kind"] = std::move(kinds);
  JsonValue event_kinds = JsonValue::object();
  for (const auto& [kind, count] : stats.events_by_kind) {
    event_kinds[kind] = count;
  }
  c["events_by_kind"] = std::move(event_kinds);
  JsonValue shard_events = JsonValue::array();
  for (const uint64_t events : simulator.shard_event_counts()) {
    shard_events.push_back(events);
  }
  c["shard_events"] = std::move(shard_events);
  return c;
}

JsonValue phase_seconds(const sim::PhaseBreakdown& phases) {
  JsonValue p = JsonValue::object();
  p["fold_s"] = static_cast<double>(phases.fold_ns) * 1e-9;
  p["integrate_s"] = static_cast<double>(phases.integrate_ns) * 1e-9;
  p["decide_s"] = static_cast<double>(phases.decide_ns) * 1e-9;
  p["drain_s"] = static_cast<double>(phases.drain_ns) * 1e-9;
  p["barrier_wait_s"] = static_cast<double>(phases.barrier_wait_ns) * 1e-9;
  p["barrier_wait_fraction"] = phases.barrier_wait_fraction();
  return p;
}

JsonValue to_json(const std::vector<std::string>& failures) {
  JsonValue out = JsonValue::array();
  for (const std::string& failure : failures) out.push_back(failure);
  return out;
}

/// What one cycle of a workload does. kPlain cycles give the end-to-end
/// timings; kTraced cycles record spans for the per-layer numbers; kParallel
/// cycles rerun the shard engine on min(4, nproc) shard threads, untraced.
enum class CycleKind { kPlain, kTraced, kParallel };

const char* to_string(CycleKind kind) {
  switch (kind) {
    case CycleKind::kPlain: return "plain";
    case CycleKind::kTraced: return "traced";
    case CycleKind::kParallel: return "parallel";
  }
  return "?";
}

/// Session construction and module start, each timed under its own span.
std::unique_ptr<core::ReconfigurationSession> build_session(
    const lat::Scenario& scenario, const core::SessionConfig& config,
    double* build_s, double* start_s) {
  std::unique_ptr<core::ReconfigurationSession> session;
  *build_s = timed("core.session_build", [&] {
    session = std::make_unique<core::ReconfigurationSession>(scenario, config);
  });
  *start_s = timed("core.start", [&] { session->step_events(0); });
  return session;
}

/// Traced cycles call lat::validate and RuleLibrary::standard() on their
/// own too, so the trace shows the lattice and motion layers apart from the
/// session build that calls both.
void time_layer_calls(const lat::Scenario& scenario) {
  timed("lattice.validate", [&] {
    SB_EXPECTS(lat::validate(scenario).empty(), "invalid scenario");
  });
  timed("motion.rule_library", [] { (void)motion::RuleLibrary::standard(); });
}

// ---------------------------------------------------------------------------
// Single-session workloads: tower-converge, blob-giant, shard-blob.
// ---------------------------------------------------------------------------

struct SessionWorkload {
  std::string scenario;  // lat::resolve_scenario name
  core::SessionConfig config;
  bool converges = false;  // run to completion; otherwise capped
  /// Events per step_events() slice in a traced cycle; 0 runs the traced
  /// cycle as one run() call (the shard engine honours event budgets only
  /// at window granularity, so slicing would change its stopping point).
  uint64_t slice_events = 0;
  /// Events per timed step_events() slice in a plain cycle; 0 runs it as
  /// one run() call. The wall and CPU time of every slice is reported, so
  /// the benchmark can take each slice's median over the cycles and drop
  /// the slow stretches a shared host puts into single cycles.
  uint64_t timing_slice_events = 0;
  /// Extra setup-only repetitions per cycle, so a sub-millisecond setup
  /// still yields a steady median.
  int extra_setups = 0;
};

struct Staged {
  lat::Scenario scenario;
  std::unique_ptr<core::ReconfigurationSession> session;
  double generate_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
};

/// Scenario generation + session construction + module start.
Staged stage(const SessionWorkload& w, uint64_t seed, CycleKind kind) {
  Staged s;
  s.generate_s = timed("lattice.generate", [&] {
    s.scenario = lat::resolve_scenario(w.scenario, seed);
  });
  if (kind == CycleKind::kTraced) time_layer_calls(s.scenario);
  core::SessionConfig config = w.config;
  config.sim.seed = seed;
  if (kind == CycleKind::kParallel) {
    config.sim.shard_threads = std::min<size_t>(4, cores());
  }
  s.session = build_session(s.scenario, config, &s.build_s, &s.start_s);
  return s;
}

/// Outcome checks run after the timed region.
std::vector<std::string> check_session(const SessionWorkload& w,
                                       Staged& staged, sim::StopReason stop) {
  std::vector<std::string> failures;
  sim::Simulator& simulator = staged.session->simulator();
  const lat::Scenario& scenario = staged.scenario;
  if (w.converges) {
    if (!staged.session->metrics().complete) {
      failures.push_back("run did not complete");
    }
    const std::string path = check_path(
        lat::occupied_shortest_path(simulator.world().grid(), scenario.input,
                                    scenario.output),
        &simulator.world().grid(), scenario.input, scenario.output);
    if (!path.empty()) failures.push_back(path);
    return failures;
  }
  const uint64_t events = simulator.stats().events_processed;
  if (stop != sim::StopReason::kEventLimit) {
    failures.push_back("capped run stopped for another reason than the "
                       "event limit: " + std::string(sim::to_string(stop)));
  }
  if (simulator.shard_count() == 1) {
    if (events != kGiantEventBudget) {
      failures.push_back("events " + std::to_string(events) +
                         " != budget " + std::to_string(kGiantEventBudget));
    }
  } else {
    // The shard engine stops at the first window barrier past the budget.
    if (events < kGiantEventBudget) {
      failures.push_back("sharded run stopped short of the budget");
    }
    // Every event ran either in a shard window or in the sequential stream
    // between windows, which belongs to no shard. With no external events
    // scheduled, that stream runs exactly the MotionComplete events.
    uint64_t shard_sum = 0;
    for (const uint64_t e : simulator.shard_event_counts()) shard_sum += e;
    const util::FlatCounts& kinds = simulator.stats().events_by_kind;
    const uint64_t sequential =
        kinds.count("MotionComplete") != 0 ? kinds.at("MotionComplete") : 0;
    if (shard_sum + sequential != events) {
      failures.push_back("sum of shard_events " + std::to_string(shard_sum) +
                         " + sequential " + std::to_string(sequential) +
                         " != events " + std::to_string(events));
    }
  }
  if (!simulator.world().view().connected_ground_truth()) {
    failures.push_back("world disconnected after the run");
  }
  return failures;
}

JsonValue session_cycle(const SessionWorkload& w, uint64_t seed,
                        CycleKind kind) {
  JsonValue cycle = JsonValue::object();
  const bool traced = kind == CycleKind::kTraced;
  Staged staged = stage(w, seed, kind);
  cycle["setup_s"] = staged.generate_s + staged.build_s + staged.start_s;

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  sim::StopReason stop = sim::StopReason::kQueueEmpty;
  JsonValue slice_events = JsonValue::array();
  JsonValue slice_s = JsonValue::array();
  JsonValue slice_cpu_s = JsonValue::array();
  if (traced && w.slice_events != 0) {
    // Fixed step_events() slices, one span each; every counter must still
    // equal the untraced run()'s.
    uint64_t done = 0;
    const uint64_t budget = w.config.max_events;
    do {
      const uint64_t before =
          staged.session->simulator().stats().events_processed;
      const uint64_t slice = std::min(w.slice_events, budget - done);
      {
        const obs::TraceSpan span("sim.slice", kCategory);
        stop = staged.session->step_events(slice);
      }
      const uint64_t ran =
          staged.session->simulator().stats().events_processed - before;
      slice_events.push_back(ran);
      done += ran;
    } while (stop == sim::StopReason::kEventLimit && done < budget);
  } else if (kind == CycleKind::kPlain && w.timing_slice_events != 0) {
    uint64_t done = 0;
    const uint64_t budget = w.config.max_events;
    Clock::time_point slice_start = start;
    double slice_cpu_start = thread_cpu_seconds();
    do {
      const uint64_t before =
          staged.session->simulator().stats().events_processed;
      stop = staged.session->step_events(
          std::min(w.timing_slice_events, budget - done));
      const Clock::time_point now = Clock::now();
      slice_s.push_back(std::chrono::duration<double>(now - slice_start)
                            .count());
      slice_start = now;
      const double cpu_now = thread_cpu_seconds();
      slice_cpu_s.push_back(cpu_now - slice_cpu_start);
      slice_cpu_start = cpu_now;
      done += staged.session->simulator().stats().events_processed - before;
    } while (stop == sim::StopReason::kEventLimit && done < budget);
  } else {
    const obs::TraceSpan span("sim.run", kCategory);
    stop = staged.session->run().stop_reason;
  }
  cycle["run_s"] = seconds_since(start);
  cycle["cpu_s"] = process_cpu_seconds() - cpu_start;
  cycle["slice_events"] = std::move(slice_events);
  cycle["slice_s"] = std::move(slice_s);
  cycle["slice_cpu_s"] = std::move(slice_cpu_s);
  cycle["stop"] = std::string(sim::to_string(stop));
  cycle["counters"] = session_counters(*staged.session);
  cycle["phases"] =
      phase_seconds(staged.session->simulator().phase_breakdown());
  cycle["failures"] = to_json(check_session(w, staged, stop));

  JsonValue setups = JsonValue::array();
  setups.push_back(cycle["setup_s"].as_number());
  staged = Staged{};  // free the world before staging it again
  for (int i = 0; i < w.extra_setups && kind == CycleKind::kPlain; ++i) {
    const Staged again = stage(w, seed, kind);
    setups.push_back(again.generate_s + again.build_s + again.start_s);
  }
  cycle["setup_samples"] = std::move(setups);
  return cycle;
}

// ---------------------------------------------------------------------------
// sweep-mixed: many small converging runs through runner::SweepRunner.
// ---------------------------------------------------------------------------

const std::vector<std::string> kSweepScenarios = {"fig10", "tower16",
                                                  "tower32", "tower48",
                                                  "tower64"};
constexpr size_t kSweepSeeds = 16;

core::SessionConfig sweep_config() {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::uniform(1, 8);
  return config;
}

/// fig10 and the towers x kSweepSeeds seeds under uniform latency; the
/// scenarios are generated under lattice.generate spans, whose seconds are
/// added to `*generate_s` when it is given.
runner::SweepGrid sweep_grid(uint64_t seed, double* generate_s = nullptr) {
  runner::SweepGrid grid;
  grid.master_seed = seed;
  grid.seed_count = kSweepSeeds;
  for (const std::string& name : kSweepScenarios) {
    const double seconds = timed("lattice.generate", [&] {
      grid.scenarios.push_back({name, lat::resolve_scenario(name, seed)});
    });
    if (generate_s != nullptr) *generate_s += seconds;
  }
  grid.configs.push_back({"uniform", sweep_config()});
  return grid;
}

/// The sweep's per-run fixed cost, measured outside the pool: generating
/// the grid's scenarios plus building and starting a session for every run
/// spec, in seconds per run.
double sweep_setup(uint64_t seed, CycleKind kind) {
  double total = 0.0;
  const runner::SweepGrid grid = sweep_grid(seed, &total);
  if (kind == CycleKind::kTraced) {
    for (const auto& entry : grid.scenarios) time_layer_calls(entry.second);
  }
  const std::vector<runner::RunSpec> specs = runner::expand(grid);
  for (const runner::RunSpec& spec : specs) {
    core::SessionConfig config = spec.config;
    config.sim.seed = spec.seed;
    double build_s = 0.0;
    double start_s = 0.0;
    (void)build_session(spec.scenario, config, &build_s, &start_s);
    total += build_s + start_s;
  }
  return total / static_cast<double>(specs.size());
}

JsonValue sweep_cycle(uint64_t seed, CycleKind kind, int extra_setups) {
  JsonValue cycle = JsonValue::object();
  JsonValue setups = JsonValue::array();
  setups.push_back(sweep_setup(seed, kind));
  for (int i = 0; i < extra_setups && kind == CycleKind::kPlain; ++i) {
    setups.push_back(sweep_setup(seed, kind));
  }
  cycle["setup_s"] = setups.as_array().front().as_number();
  cycle["setup_samples"] = std::move(setups);

  const runner::SweepGrid grid = sweep_grid(seed);
  runner::SweepRunner::Options options;
  options.threads = std::min<size_t>(2, cores());
  options.master_seed = seed;
  options.generator = "perfbench";
  cycle["threads"] = options.threads;

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  runner::SweepResult result;
  {
    const obs::TraceSpan span("runner.grid", kCategory);
    result = runner::SweepRunner(options).run_grid(grid);
  }
  cycle["grid_s"] = seconds_since(start);
  cycle["cpu_s"] = process_cpu_seconds() - cpu_start;

  // Checks name the failing run: [spec index, message].
  JsonValue run_failures = JsonValue::array();
  const auto fail_run = [&](size_t index, const std::string& message) {
    JsonValue entry = JsonValue::array();
    entry.push_back(index);
    entry.push_back(message);
    run_failures.push_back(std::move(entry));
  };
  JsonValue runs = JsonValue::array();
  core::SessionResult sum;  // counters summed over the grid
  sum.complete = true;
  const std::vector<runner::RunSpec> specs = runner::expand(grid);
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const runner::RunRow& row = result.runs[i].row;
    const core::SessionResult& s = result.runs[i].session;
    const lat::Scenario& scenario = specs[i].scenario;
    if (!s.complete || s.premature_completion) {
      fail_run(i, "did not complete");
    } else {
      // The pool's sessions are gone, so the path is checked for shape here
      // and for occupancy on the direct re-runs below.
      const std::string path =
          check_path(s.path, nullptr, scenario.input, scenario.output);
      if (!path.empty()) fail_run(i, path);
    }
    JsonValue r = JsonValue::array();
    r.push_back(row.hops);
    r.push_back(row.messages_sent);
    r.push_back(row.sim_ticks);
    r.push_back(row.events);
    r.push_back(row.wall_seconds);
    runs.push_back(std::move(r));
    sum.complete = sum.complete && s.complete;
    sum.events_processed += s.events_processed;
    sum.hops += s.hops;
    sum.repositioning_hops += s.repositioning_hops;
    sum.distance_computations += s.distance_computations;
    sum.elections_completed += s.elections_completed;
    sum.iterations += s.iterations;
    sum.election_restarts += s.election_restarts;
    sum.messages_sent += s.messages_sent;
    sum.messages_delivered += s.messages_delivered;
    sum.messages_dropped += s.messages_dropped;
    sum.conn_fast_hits += s.conn_fast_hits;
    sum.conn_slow_floods += s.conn_slow_floods;
    sum.sim_ticks += s.sim_ticks;
    sum.messages_by_kind.merge(s.messages_by_kind);
  }
  // Outside the timed region, re-run the first seed of every scenario as a
  // direct session: it must reproduce the pool's counts, and its final
  // world must hold the path it reports.
  for (size_t j = 0; j < kSweepScenarios.size(); ++j) {
    const size_t index = j * kSweepSeeds;
    const runner::RunSpec& spec = specs[index];
    core::SessionConfig config = spec.config;
    config.sim.seed = spec.seed;
    core::ReconfigurationSession session(spec.scenario, config);
    const core::SessionResult direct = session.run();
    const runner::RunRow& row = result.runs[index].row;
    if (direct.hops != row.hops || direct.messages_sent != row.messages_sent ||
        direct.sim_ticks != row.sim_ticks ||
        direct.events_processed != row.events) {
      fail_run(index, "direct re-run differs from the pool's");
    }
    const std::string path =
        check_path(direct.path, &session.simulator().world().grid(),
                   spec.scenario.input, spec.scenario.output);
    if (!path.empty()) fail_run(index, "direct re-run: " + path);
  }
  // Columns of each "runs" entry.
  cycle["run_fields"] = to_json(
      {"hops", "messages_sent", "sim_ticks", "events", "wall_s"});
  cycle["runs"] = std::move(runs);

  JsonValue totals = JsonValue::object();
  totals["complete"] = sum.complete;
  totals["events"] = sum.events_processed;
  totals["hops"] = sum.hops;
  totals["repositioning_hops"] = sum.repositioning_hops;
  totals["distance_computations"] = sum.distance_computations;
  totals["elections_completed"] = sum.elections_completed;
  totals["iterations"] = sum.iterations;
  totals["election_restarts"] = sum.election_restarts;
  totals["messages_sent"] = sum.messages_sent;
  totals["messages_delivered"] = sum.messages_delivered;
  totals["messages_dropped"] = sum.messages_dropped;
  totals["conn_fast_hits"] = sum.conn_fast_hits;
  totals["conn_slow_floods"] = sum.conn_slow_floods;
  totals["sim_ticks"] = sum.sim_ticks;
  JsonValue by_kind = JsonValue::object();
  for (const auto& [kind, count] : sum.messages_by_kind) by_kind[kind] = count;
  totals["messages_by_kind"] = std::move(by_kind);
  totals["shard_events"] = JsonValue::array();
  cycle["counters"] = std::move(totals);
  cycle["failures"] = JsonValue::array();
  cycle["run_failures"] = std::move(run_failures);
  return cycle;
}

// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  /// Leading plain cycles marked "warmup": checked like the others but left
  /// out of the timings (the first sweep grid pays thread and arena start-up
  /// that later grids do not).
  int warmup_cycles = 0;
  /// Traced mode also runs kParallel cycles (shard engine only).
  bool parallel_cycles = false;
  std::function<JsonValue(uint64_t seed, CycleKind kind)> cycle;
};

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  const auto session = [](const SessionWorkload& w) {
    return [w](uint64_t seed, CycleKind kind) {
      return session_cycle(w, seed, kind);
    };
  };

  // tower-converge: the Lemma-1 tower of 256 blocks run to completion on the
  // classic engine with fixed 1-tick latency — the paper's algorithm end to
  // end. Bound by the event queue, messaging and the planner; setup does
  // almost no work. Counts are seed-independent under fixed latency.
  SessionWorkload tower;
  tower.scenario = "tower256";
  tower.converges = true;
  tower.slice_events = 250'000;
  tower.timing_slice_events = 10'000;
  tower.extra_setups = 40;
  all.push_back({"tower-converge", 0, false, session(tower)});

  // blob-giant: the 10^6-module random blob (seeded), classic engine, capped
  // at a fixed event budget. Setup (generation, validation, grid/SoA build,
  // module registration) is most of what the user waits for; the run is one
  // election broadcast over a cache-hostile world.
  SessionWorkload blob;
  blob.scenario = "blob1000000";
  blob.config.max_events = kGiantEventBudget;
  blob.slice_events = 50'000;
  blob.timing_slice_events = 5'000;
  all.push_back({"blob-giant", 0, false, session(blob)});

  // sweep-mixed: fig10 and tower16/32/48/64 x 16 seeds through SweepRunner on
  // 2 threads under uniform random latency — how researchers use the repo.
  // Per-run fixed cost and the runner pool matter here and nowhere else, and
  // random latency spreads events over many timestamps.
  all.push_back({"sweep-mixed", 1, false,
                 [](uint64_t seed, CycleKind kind) {
                   return sweep_cycle(seed, kind, 4);
                 }});

  // shard-blob: blob100000 (seeded) on the sharded engine with 4 column
  // shards and the same event budget — the only workload that exercises
  // sim/shard* and simulator_sharded.cpp. Timed on one shard thread: with
  // min(4, nproc) threads the barrier-bound run swings by 2-4x from cycle to
  // cycle on a shared 4-core box, too wide for any bound. The traced mode's
  // kParallel cycles still measure the multi-threaded engine per layer.
  SessionWorkload shard;
  shard.scenario = "blob100000";
  shard.config.max_events = kGiantEventBudget;
  shard.config.sim.shards = 4;
  shard.config.sim.shard_threads = 1;
  shard.extra_setups = 4;
  all.push_back({"shard-blob", 0, true, session(shard)});
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("run one perfbench workload and print its raw samples");
  cli.add_string("workload", "", "tower-converge | blob-giant | "
                                 "sweep-mixed | shard-blob");
  cli.add_int("seed", 0, "workload seed (blob generation, sweep master)");
  cli.add_double("seconds", 38.0, "measure for at least this long");
  cli.add_string("trace-dir", "",
                 "rotate plain, traced (and parallel) cycles, writing one "
                 "Chrome trace per traced cycle into this directory");
  if (!cli.parse(argc, argv)) return 1;

  const std::string name = cli.get_string("workload");
  const std::vector<Workload> all = workloads();
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return w.name == name; });
  if (it == all.end()) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 name.c_str());
    return 1;
  }
  const auto seed = static_cast<uint64_t>(cli.get_int("seed"));
  const double seconds = cli.get_double("seconds");
  const std::string trace_dir = cli.get_string("trace-dir");
  const bool tracing = !trace_dir.empty();

  JsonValue out = JsonValue::object();
  out["workload"] = name;
  out["seed"] = util::hex_u64(seed);
  out["nproc"] = cores();
  JsonValue cycles = JsonValue::array();
  const Clock::time_point start = Clock::now();
  obs::TraceWriter& writer = obs::TraceWriter::instance();
  // After the warmup, traced mode rotates plain, traced (and parallel)
  // cycles and runs each at least once; untraced mode runs plain cycles.
  std::vector<CycleKind> rotation = {CycleKind::kPlain};
  if (tracing) rotation.push_back(CycleKind::kTraced);
  if (tracing && it->parallel_cycles) rotation.push_back(CycleKind::kParallel);
  const int warmup = it->warmup_cycles;
  const int min_cycles = warmup + static_cast<int>(rotation.size());
  for (int k = 0; k < min_cycles || seconds_since(start) < seconds; ++k) {
    const auto turn = static_cast<size_t>(std::max(0, k - warmup));
    const CycleKind kind =
        k < warmup ? CycleKind::kPlain : rotation[turn % rotation.size()];
    const bool traced = kind == CycleKind::kTraced;
    if (traced) {
      writer.enable();
      writer.set_thread_name("perfbench-main");
    }
    JsonValue cycle = it->cycle(seed, kind);
    // Hand the world's pages back, so every cycle allocates fresh memory as
    // a one-shot run does instead of reusing the previous cycle's heap.
    malloc_trim(0);
    cycle["kind"] = to_string(kind);
    cycle["warmup"] = k < warmup;
    if (traced) {
      writer.disable();
      cycle["trace_dropped"] = writer.dropped();
      const std::string path =
          trace_dir + "/cycle-" + std::to_string(k) + ".json";
      if (!writer.write_file(path)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     path.c_str());
        return 1;
      }
      cycle["trace_file"] = path;
    }
    cycles.push_back(std::move(cycle));
  }
  out["cycles"] = std::move(cycles);
  out["peak_rss_mb"] = peak_rss_mb();
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
