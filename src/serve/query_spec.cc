#include "serve/query_spec.h"

#include "obs/front_end.h"
#include "obs/progress.h"

namespace emjoin::serve {

namespace {

extmem::Status SpecError(std::size_t line_no, const std::string& message) {
  return extmem::Status(extmem::StatusCode::kInvalidInput,
                        "query spec line " + std::to_string(line_no) + ": " +
                            message);
}

bool ValidId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

extmem::Result<QuerySpec> ParseQuerySpec(const std::string& body) {
  QuerySpec spec;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') {
      if (pos > body.size()) break;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return SpecError(line_no, "expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::uint64_t number = 0;
    double probability = 0.0;
    if (key == "id") {
      if (!ValidId(value)) {
        return SpecError(line_no,
                         "id must be 1-64 chars of [A-Za-z0-9_.-], got '" +
                             value + "'");
      }
      spec.id = value;
    } else if (key == "memory") {
      if (!obs::ParseU64(value, &number) || number == 0) {
        return SpecError(line_no, "memory must be a positive tuple count");
      }
      spec.memory = number;
    } else if (key == "block") {
      if (!obs::ParseU64(value, &number) || number == 0) {
        return SpecError(line_no, "block must be a positive tuple count");
      }
      spec.block = number;
    } else if (key == "shards") {
      if (!obs::ParseU64(value, &number) || number == 0 ||
          number > obs::ProgressTracker::kMaxShards) {
        return SpecError(
            line_no,
            "shards must be in [1, " +
                std::to_string(obs::ProgressTracker::kMaxShards) + "]");
      }
      spec.shards = static_cast<std::uint32_t>(number);
    } else if (key == "workers") {
      if (!obs::ParseU64(value, &number) || number == 0 ||
          number > obs::kMaxWorkers) {
        return SpecError(line_no, "workers must be in [1, 64]");
      }
      spec.workers = static_cast<std::uint32_t>(number);
    } else if (key == "output") {
      if (value.empty()) {
        return SpecError(line_no, "output path must not be empty");
      }
      spec.output_path = value;
    } else if (key == "rel") {
      const std::size_t inner = value.find('=');
      if (inner == std::string::npos || inner == 0 ||
          inner + 1 == value.size()) {
        return SpecError(line_no,
                         "rel must be 'attrs=path.csv', got '" + value + "'");
      }
      spec.relations.push_back(
          RelationSpec{value.substr(0, inner), value.substr(inner + 1)});
    } else if (key == "fault-seed") {
      if (!obs::ParseU64(value, &number)) {
        return SpecError(line_no, "fault-seed must be an unsigned integer");
      }
      spec.fault_config.seed = number;
    } else if (key == "fault-read") {
      if (!obs::ParseProbability(value, &probability)) {
        return SpecError(line_no, "fault-read must be in [0, 1]");
      }
      spec.fault_config.read_fail = probability;
    } else if (key == "fault-write") {
      if (!obs::ParseProbability(value, &probability)) {
        return SpecError(line_no, "fault-write must be in [0, 1]");
      }
      spec.fault_config.write_fail = probability;
    } else if (key == "fault-torn") {
      if (!obs::ParseProbability(value, &probability)) {
        return SpecError(line_no, "fault-torn must be in [0, 1]");
      }
      spec.fault_config.torn_write = probability;
    } else if (key == "fault-retries") {
      if (!obs::ParseU64(value, &number)) {
        return SpecError(line_no, "fault-retries must be an unsigned integer");
      }
      spec.fault_config.retry.max_retries =
          static_cast<std::uint32_t>(number);
    } else if (key == "fault-kill-at") {
      if (!obs::ParseU64(value, &number)) {
        return SpecError(line_no, "fault-kill-at must be an unsigned integer");
      }
      spec.fault_config.kill_at_ios = number;
    } else if (key == "fault-adaptive-retry") {
      if (value != "0" && value != "1") {
        return SpecError(line_no, "fault-adaptive-retry must be 0 or 1");
      }
      spec.fault_config.adaptive_retry = value == "1";
    } else {
      return SpecError(line_no, "unknown key '" + key + "'");
    }
    if (pos > body.size()) break;
  }

  if (spec.id.empty()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: missing required 'id'");
  }
  if (spec.relations.empty()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: at least one 'rel' is required");
  }
  // The operators need room for a handful of blocks; admission-checking
  // degenerate budgets here turns them into a 400 instead of a late
  // kBudgetExceeded deep inside the run.
  if (spec.memory < 4 * spec.block) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: memory must be at least 4*block");
  }
  return spec;
}

}  // namespace emjoin::serve
