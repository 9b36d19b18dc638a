#pragma once
// Scripted fault injection for the distributed sweep backend.
//
// Every recovery path in the dist layer (journal resume, worker reconnect,
// duplicate redelivery, partial-frame teardown) is exercised in ctest and CI
// through deterministic, scripted faults rather than by hand: the
// SB_DIST_CHAOS environment variable carries a schedule of faults keyed to
// named instrumentation points in the coordinator and worker, the same way
// SB_SWEEP_FAULT_WORKER_AFTER and SB_SIM_FAULT_DROP_FLUSH drive the older
// single-shot injections.
//
// Spec grammar (documented with a worked example in docs/TESTING.md):
//
//   spec   := rule (';' rule)*
//   rule   := point '@' N ':' action
//   point  := coord.merge | coord.dispatch | worker.unit | worker.result
//   action := kill | hang | delay=<ms> | partial
//
// N is the 1-based hit ordinal of the point *in this process*; a rule fires
// exactly once, at the Nth hit. Points are role-prefixed so one spec can
// script a whole fleet: coordinator processes only ever hit coord.*,
// workers only worker.*, and each process counts its own hits.
//
//   SB_DIST_CHAOS="coord.merge@3:kill;worker.result@2:partial"
//
// kills the coordinator the moment its 3rd result batch has been journaled
// and merged, and makes every worker tear its connection down mid-frame
// while sending its 2nd result (forcing reconnect + redelivery).
//
// Actions:
//   kill     — _exit(137) on the spot: an abrupt SIGKILL-grade death, no
//              destructors, no flushes.
//   hang     — sleep for an hour: a wedged-but-alive process (heartbeats
//              from other threads keep flowing, per-unit timeouts must
//              cover it).
//   delay=ms — sleep ms then continue: reordering/latency pressure.
//   partial  — returned to the call site, which must send a truncated
//              frame and treat the connection as dead (only meaningful at
//              send points; elsewhere it degrades to a plain kill of the
//              connection via the returned action).

#include <string_view>

namespace sb::dist::chaos {

/// What the instrumentation point should do beyond what hit() already did.
enum class Action {
  kNone,     ///< no rule fired (or a sleep already happened inline)
  kPartial,  ///< send a truncated frame, then treat the connection as dead
};

/// Well-known instrumentation points (used by coordinator/worker; tests use
/// the same names in specs).
inline constexpr std::string_view kCoordMerge = "coord.merge";
inline constexpr std::string_view kCoordDispatch = "coord.dispatch";
inline constexpr std::string_view kWorkerUnit = "worker.unit";
inline constexpr std::string_view kWorkerResult = "worker.result";

/// True when SB_DIST_CHAOS is set to a non-empty spec.
[[nodiscard]] bool armed();

/// Records one hit of `point` and applies any scheduled fault: kill exits
/// the process, hang/delay sleep inline, partial is returned for the caller
/// to apply. Thread-safe; parses SB_DIST_CHAOS on first call and throws
/// std::runtime_error on a malformed spec so typos fail loudly.
Action hit(std::string_view point);

/// Drops all parsed state and hit counters so the next hit() re-reads
/// SB_DIST_CHAOS. Tests flip the environment between cases.
void reset_for_tests();

}  // namespace sb::dist::chaos
