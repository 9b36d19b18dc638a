#include "dist/protocol.hpp"

#include <stdexcept>

#include "runner/serialize.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"

namespace sb::dist {

namespace {

using util::JsonValue;

const JsonValue& require(const JsonValue& json, std::string_view key,
                         JsonValue::Kind kind) {
  const JsonValue* value = json.find(key);
  if (value == nullptr || value->kind() != kind) {
    throw std::runtime_error("dist message missing or mistyped field '" +
                             std::string(key) + "'");
  }
  return *value;
}

size_t get_size(const JsonValue& json, std::string_view key) {
  return static_cast<size_t>(
      require(json, key, JsonValue::Kind::kNumber).as_number());
}

WorkUnit unit_from_json(const JsonValue& json) {
  WorkUnit unit;
  unit.id = get_size(json, "id");
  unit.begin = get_size(json, "begin");
  unit.end = get_size(json, "end");
  if (unit.end < unit.begin) {
    throw std::runtime_error("dist unit has end < begin");
  }
  return unit;
}

JsonValue unit_to_json(const WorkUnit& unit) {
  JsonValue out = JsonValue::object();
  out["id"] = JsonValue(unit.id);
  out["begin"] = JsonValue(unit.begin);
  out["end"] = JsonValue(unit.end);
  return out;
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kJob: return "job";
    case MsgType::kJobRequest: return "job_request";
    case MsgType::kPull: return "pull";
    case MsgType::kUnit: return "unit";
    case MsgType::kResult: return "result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kStop: return "stop";
  }
  return "?";
}

Message Message::hello(uint64_t pid) {
  Message m;
  m.type = MsgType::kHello;
  m.worker_pid = pid;
  return m;
}

Message Message::welcome() {
  Message m;
  m.type = MsgType::kWelcome;
  return m;
}

Message Message::job_description(runner::SweepCliOptions options,
                                 size_t spec_count) {
  Message m;
  m.type = MsgType::kJob;
  m.options = std::move(options);
  m.spec_count = spec_count;
  return m;
}

Message Message::job_request() {
  Message m;
  m.type = MsgType::kJobRequest;
  return m;
}

Message Message::pull() {
  Message m;
  m.type = MsgType::kPull;
  return m;
}

Message Message::make_unit(WorkUnit unit) {
  Message m;
  m.type = MsgType::kUnit;
  m.unit = unit;
  return m;
}

Message Message::result(WorkUnit unit, std::vector<runner::RunRow> rows) {
  Message m;
  m.type = MsgType::kResult;
  m.unit = unit;
  m.rows = std::move(rows);
  return m;
}

Message Message::heartbeat() {
  Message m;
  m.type = MsgType::kHeartbeat;
  return m;
}

Message Message::stop() {
  Message m;
  m.type = MsgType::kStop;
  return m;
}

std::string encode(const Message& message) {
  JsonValue out = JsonValue::object();
  out["type"] = JsonValue(to_string(message.type));
  switch (message.type) {
    case MsgType::kHello:
      out["version"] = JsonValue(message.version);
      out["pid"] = JsonValue(message.worker_pid);
      break;
    case MsgType::kJob:
      out["options"] = runner::options_to_json(message.options);
      out["spec_count"] = JsonValue(message.spec_count);
      break;
    case MsgType::kUnit:
      out["unit"] = unit_to_json(message.unit);
      break;
    case MsgType::kResult: {
      out["unit"] = unit_to_json(message.unit);
      JsonValue rows = JsonValue::array();
      for (const runner::RunRow& row : message.rows) {
        rows.push_back(runner::row_to_json(row));
      }
      out["rows"] = std::move(rows);
      break;
    }
    case MsgType::kWelcome:
    case MsgType::kJobRequest:
    case MsgType::kPull:
    case MsgType::kHeartbeat:
    case MsgType::kStop: break;
  }
  return out.dump();
}

Message decode(const std::string& payload) {
  const JsonValue json = util::parse_json(payload);
  if (!json.is_object()) {
    throw std::runtime_error("dist message is not a JSON object");
  }
  const std::string& type =
      require(json, "type", JsonValue::Kind::kString).as_string();
  Message m;
  if (type == "hello") {
    m.type = MsgType::kHello;
    m.version = static_cast<int>(get_size(json, "version"));
    if (m.version != kProtocolVersion) {
      throw std::runtime_error(
          fmt("dist protocol version mismatch: peer speaks {}, this "
              "process speaks {}",
              m.version, kProtocolVersion));
    }
    m.worker_pid = static_cast<uint64_t>(get_size(json, "pid"));
  } else if (type == "welcome") {
    m.type = MsgType::kWelcome;
  } else if (type == "job") {
    m.type = MsgType::kJob;
    m.options = runner::options_from_json(
        require(json, "options", JsonValue::Kind::kObject));
    m.spec_count = get_size(json, "spec_count");
  } else if (type == "job_request") {
    m.type = MsgType::kJobRequest;
  } else if (type == "pull") {
    m.type = MsgType::kPull;
  } else if (type == "unit") {
    m.type = MsgType::kUnit;
    m.unit = unit_from_json(require(json, "unit", JsonValue::Kind::kObject));
  } else if (type == "result") {
    m.type = MsgType::kResult;
    m.unit = unit_from_json(require(json, "unit", JsonValue::Kind::kObject));
    for (const JsonValue& row :
         require(json, "rows", JsonValue::Kind::kArray).as_array()) {
      m.rows.push_back(runner::row_from_json(row));
    }
  } else if (type == "heartbeat") {
    m.type = MsgType::kHeartbeat;
  } else if (type == "stop") {
    m.type = MsgType::kStop;
  } else {
    throw std::runtime_error("unknown dist message type '" + type + "'");
  }
  return m;
}

}  // namespace sb::dist
