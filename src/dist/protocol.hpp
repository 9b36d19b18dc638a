#pragma once
// Wire protocol of the distributed sweep backend.
//
// Coordinator and workers exchange JSON messages inside the length-prefixed
// frames of dist/socket.hpp. A coordinator serves exactly one sweep grid,
// and workers pull its work units.
//
//   worker                          coordinator
//   ------                          -----------
//   hello{v, pid}                 ->
//                                 <- welcome{}
//   pull{}                        ->
//                                 <- unit{id, begin, end} | stop{}
//   job_request{}                 ->                  (before the first unit)
//                                 <- job{options, spec_count}
//   heartbeat{}                   ->                  (while executing)
//   result{unit, rows}            ->
//
// The job message carries the runner::SweepCliOptions grid description; the
// worker re-materializes the identical RunSpec list locally (seed forking is
// index-keyed), so only option structs and result rows ever cross the wire —
// never scenarios or traces. Unknown message types and version mismatches
// are protocol errors (encode/decode throw std::runtime_error).

#include <cstdint>
#include <string>
#include <vector>

#include "runner/cli_options.hpp"
#include "runner/report.hpp"

namespace sb::dist {

/// Bumped on any incompatible message or semantics change; hello carries it
/// and the coordinator refuses mismatched peers. 3 = one sweep per
/// coordinator, no job ids.
inline constexpr int kProtocolVersion = 3;

enum class MsgType {
  kHello,
  kWelcome,
  kJob,
  kJobRequest,
  kPull,
  kUnit,
  kResult,
  kHeartbeat,
  kStop,
};

[[nodiscard]] std::string_view to_string(MsgType type);

/// One contiguous slice [begin, end) of the sweep's expanded spec list. `id`
/// is the unit's index in the partition — the key of the at-most-once
/// result merge.
struct WorkUnit {
  size_t id = 0;
  size_t begin = 0;
  size_t end = 0;

  [[nodiscard]] size_t size() const { return end - begin; }
  bool operator==(const WorkUnit&) const = default;
};

/// A decoded protocol message (tagged union kept flat for simplicity; only
/// the fields of the active `type` are meaningful).
struct Message {
  MsgType type = MsgType::kPull;
  // kHello
  int version = kProtocolVersion;
  uint64_t worker_pid = 0;
  // kJob
  runner::SweepCliOptions options;
  size_t spec_count = 0;
  // kUnit / kResult
  WorkUnit unit;
  // kResult
  std::vector<runner::RunRow> rows;

  [[nodiscard]] static Message hello(uint64_t pid);
  [[nodiscard]] static Message welcome();
  [[nodiscard]] static Message job_description(runner::SweepCliOptions options,
                                               size_t spec_count);
  [[nodiscard]] static Message job_request();
  [[nodiscard]] static Message pull();
  [[nodiscard]] static Message make_unit(WorkUnit unit);
  [[nodiscard]] static Message result(WorkUnit unit,
                                      std::vector<runner::RunRow> rows);
  [[nodiscard]] static Message heartbeat();
  [[nodiscard]] static Message stop();
};

/// Serializes to the JSON frame payload.
[[nodiscard]] std::string encode(const Message& message);

/// Parses a frame payload. Throws std::runtime_error on malformed JSON,
/// unknown types, missing fields, or a version other than kProtocolVersion
/// in a hello.
[[nodiscard]] Message decode(const std::string& payload);

}  // namespace sb::dist
