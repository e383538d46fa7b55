#include "obs/front_end.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "obs/progress.h"
#include "trace/sinks.h"

namespace emjoin::obs {

namespace {

// The text after `prefix` when `arg` starts with it.
bool Suffix(std::string_view arg, std::string_view prefix,
            std::string_view* value) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Malformed(std::string_view arg, const char* expected) {
  std::fprintf(stderr, "bad value in %.*s: expected %s\n",
               static_cast<int>(arg.size()), arg.data(), expected);
  return -1;
}

bool WriteAudit(const std::string& path, const std::vector<AuditRow>& rows,
                bool* all_pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  *all_pass = true;
  std::string body;
  for (const AuditRow& r : rows) {
    const double expected = static_cast<double>(r.expected);
    const double measured = static_cast<double>(r.measured);
    const double ratio = expected > 0 ? measured / expected : 0.0;
    const bool pass = measured <= 64.0 * expected + 64.0;
    *all_pass = *all_pass && pass;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\", \"measured\": %llu, \"expected\": %.3Lf, "
                  "\"ratio\": %.4f, \"verdict\": \"%s\"}",
                  static_cast<unsigned long long>(r.measured), r.expected,
                  ratio, pass ? "PASS" : "FAIL");
    body += (body.empty() ? "    {\"name\": \"" : ",\n    {\"name\": \"") +
            r.name + buf;
  }
  std::fprintf(f,
               "{\n  \"schema\": \"emjoin-bench-audit-v1\",\n"
               "  \"all_pass\": %s,\n  \"rows\": [\n%s\n  ]\n}\n",
               *all_pass ? "true" : "false", body.c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int ExitCodeFor(const extmem::Status& status) {
  switch (status.code()) {
    case extmem::StatusCode::kOk: return 0;
    case extmem::StatusCode::kInvalidInput: return 65;
    case extmem::StatusCode::kNotFound: return 66;
    case extmem::StatusCode::kDeviceFull: return 69;
    case extmem::StatusCode::kInternal: return 70;
    case extmem::StatusCode::kDataLoss: return 73;
    case extmem::StatusCode::kIoError: return 74;
    case extmem::StatusCode::kBudgetExceeded: return 75;
  }
  return 70;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseProbability(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;  // NaN fails too
  *out = value;
  return true;
}

int ParseRunOption(std::string_view arg, parallel::ParallelOptions* options) {
  std::string_view v;
  std::uint64_t n = 0;
  if (Suffix(arg, "--shards=", &v)) {
    if (!ParseU64(v, &n) || n == 0 || n > ProgressTracker::kMaxShards) {
      return Malformed(arg, "an integer in [1, 64]");
    }
    options->shards = static_cast<std::uint32_t>(n);
    return 1;
  }
  if (Suffix(arg, "--workers=", &v)) {
    if (!ParseU64(v, &n) || n == 0 || n > kMaxWorkers) {
      return Malformed(arg, "an integer in [1, 64]");
    }
    options->workers = static_cast<std::uint32_t>(n);
    return 1;
  }
  extmem::FaultConfig& fc = options->fault_config;
  const auto count = [&](std::uint64_t* dst) {
    return ParseU64(v, dst) ? 1 : Malformed(arg, "an unsigned integer");
  };
  const auto probability = [&](double* dst) {
    return ParseProbability(v, dst) ? 1 : Malformed(arg, "a number in [0, 1]");
  };
  int rc = 0;
  if (Suffix(arg, "--fault-seed=", &v)) {
    rc = count(&fc.seed);
  } else if (Suffix(arg, "--fault-read=", &v)) {
    rc = probability(&fc.read_fail);
  } else if (Suffix(arg, "--fault-write=", &v)) {
    rc = probability(&fc.write_fail);
  } else if (Suffix(arg, "--fault-torn=", &v)) {
    rc = probability(&fc.torn_write);
  } else if (Suffix(arg, "--fault-capacity=", &v)) {
    rc = count(&fc.device_capacity_blocks);
  } else if (Suffix(arg, "--fault-retries=", &v)) {
    rc = count(&n);
    if (rc > 0 && n > std::numeric_limits<std::uint32_t>::max()) {
      rc = Malformed(arg, "an unsigned 32-bit integer");
    }
    if (rc > 0) fc.retry.max_retries = static_cast<std::uint32_t>(n);
  } else if (Suffix(arg, "--fault-kill-at=", &v)) {
    rc = count(&n);
    if (rc > 0 && n == 0) rc = Malformed(arg, "an integer >= 1");
    if (rc > 0) fc.kill_at_ios = n;
  } else if (Suffix(arg, "--fault-shrink-at=", &v)) {
    rc = 1;
    for (std::size_t pos = 0; rc > 0 && pos <= v.size();) {
      const std::size_t comma = std::min(v.find(',', pos), v.size());
      if (!ParseU64(v.substr(pos, comma - pos), &n)) {
        rc = Malformed(arg, "a comma-separated list of unsigned integers");
      }
      fc.shrink_at_ios.push_back(n);
      pos = comma + 1;
    }
  } else if (arg == "--fault-shrink-every-poll") {
    fc.shrink_every_poll = true;
    rc = 1;
  } else if (arg == "--fault-adaptive-retry") {
    fc.adaptive_retry = true;
    rc = 1;
  }
  if (rc > 0) options->faults = true;
  return rc;
}

FrontEnd::FrontEnd() : exporter_(&telemetry_) {}

int FrontEnd::ParseFlag(std::string_view arg) {
  std::string_view v;
  const auto path = [&v](const char* flag, std::string* dst) {
    if (v.empty()) {
      std::fprintf(stderr, "%s requires a path\n", flag);
      return -1;
    }
    *dst = std::string(v);
    return 1;
  };
  std::uint64_t n = 0;
  if (arg == "--trace") {
    trace_ = true;
    return 1;
  }
  if (Suffix(arg, "--trace=", &v)) {
    trace_ = true;
    trace_path_ = std::string(v);
    return 1;
  }
  if (Suffix(arg, "--trace-format=", &v)) {
    trace_ = true;
    trace_format_ = std::string(v);
    if (v != "tree" && v != "jsonl" && v != "chrome") {
      std::fprintf(stderr,
                   "unknown trace format '%s' (expected tree, jsonl, or "
                   "chrome)\n",
                   trace_format_.c_str());
      return -1;
    }
    return 1;
  }
  if (Suffix(arg, "--metrics=", &v)) {
    return path("--metrics", &metrics_path_);
  }
  if (Suffix(arg, "--metrics-format=", &v)) {
    metrics_format_ = std::string(v);
    if (v != "json" && v != "prom") {
      std::fprintf(stderr,
                   "unknown metrics format '%s' (expected json or prom)\n",
                   metrics_format_.c_str());
      return -1;
    }
    return 1;
  }
  if (Suffix(arg, "--audit=", &v)) {
    return path("--audit", &audit_path_);
  }
  if (Suffix(arg, "--export-port=", &v)) {
    if (!ParseU64(v, &n) || n > 65535) {
      std::fprintf(stderr, "--export-port requires a port in [0, 65535]\n");
      return -1;
    }
    export_port_ = static_cast<int>(n);
    return 1;
  }
  if (Suffix(arg, "--export-linger-ms=", &v)) {
    if (!ParseU64(v, &n) || n > std::numeric_limits<unsigned>::max()) {
      std::fprintf(stderr,
                   "--export-linger-ms requires a non-negative integer\n");
      return -1;
    }
    export_linger_ms_ = static_cast<unsigned>(n);
    return 1;
  }
  if (Suffix(arg, "--recorder=", &v)) {
    return path("--recorder", &recorder_path_);
  }
  return 0;
}

int FrontEnd::Start() {
  if (trace_ && trace_format_ != "tree" && trace_path_.empty()) {
    std::fprintf(stderr, "--trace-format=%s requires --trace=PATH\n",
                 trace_format_.c_str());
    return kExitUsage;
  }
  if (export_port_ < 0) return 0;
  const extmem::Status status =
      exporter_.Start(static_cast<std::uint16_t>(export_port_));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  std::fprintf(stderr, "telemetry exporter on http://127.0.0.1:%u/\n",
               static_cast<unsigned>(exporter_.port()));
  return 0;
}

void FrontEnd::Attach(extmem::Device* dev) {
  if (trace_) dev->set_tracer(&tracer_);
  if (metrics::Registry* reg = registry()) dev->set_metrics(reg);
  if (telemetry_enabled()) dev->set_events(&telemetry_);
}

metrics::Registry* FrontEnd::registry() {
  return !metrics_path_.empty() || export_port_ >= 0 ? &registry_ : nullptr;
}

void FrontEnd::Collect(const extmem::Device& dev,
                       const metrics::DeviceSnapshot& before) {
  if (metrics::Registry* reg = registry()) {
    metrics::CollectDelta(dev, before, reg);
    Publish();
  }
}

void FrontEnd::Publish() {
  if (export_port_ >= 0) exporter_.PublishMetrics(registry_.ToPrometheusText());
}

bool FrontEnd::WriteTrace() const {
  bool ok = true;
  if (trace_format_ == "jsonl") {
    ok = trace::WriteJsonl(tracer_, trace_path_);
  } else if (trace_format_ == "chrome") {
    ok = trace::WriteChromeTrace(tracer_, trace_path_);
  } else if (trace_path_.empty()) {
    std::fputs(trace::TreeReport(tracer_).c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(trace_path_.c_str(), "w");
    ok = f != nullptr && std::fputs(trace::TreeReport(tracer_).c_str(), f) >= 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  }
  if (ok && !trace_path_.empty()) {
    std::fprintf(stderr, "trace: %zu spans (%s) -> %s\n",
                 tracer_.spans().size(), trace_format_.c_str(),
                 trace_path_.c_str());
  }
  return ok;
}

extmem::Status FrontEnd::WriteArtifacts() const {
  const auto failed = [](const std::string& what) {
    return extmem::Status(extmem::StatusCode::kInternal,
                          "failed to write " + what);
  };
  if (!metrics_path_.empty()) {
    const bool ok = metrics_format_ == "prom"
                        ? registry_.WritePrometheus(metrics_path_)
                        : registry_.WriteJson(metrics_path_);
    if (!ok) return failed("metrics to " + metrics_path_);
    std::fprintf(stderr, "metrics (%s) -> %s\n", metrics_format_.c_str(),
                 metrics_path_.c_str());
  }
  if (auditing()) {
    bool all_pass = true;
    if (!WriteAudit(audit_path_, audit_rows_, &all_pass)) {
      return failed("audit to " + audit_path_);
    }
    std::fprintf(stderr, "audit (%s) -> %s\n", all_pass ? "PASS" : "FAIL",
                 audit_path_.c_str());
  }
  if (trace_ && !WriteTrace()) return failed("trace to " + trace_path_);
  return extmem::Status::Ok();
}

int FrontEnd::Finish(int rc) {
  if (rc == 0) {
    if (const extmem::Status status = WriteArtifacts(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      rc = ExitCodeFor(status);
    }
  }
  if (!telemetry_enabled()) return rc;
  if (rc == 0) telemetry_.MarkComplete();
  Publish();
  if (!recorder_path_.empty()) {
    if (telemetry_.recorder().WriteJsonl(recorder_path_)) {
      std::fprintf(stderr, "flight recorder (%llu events) -> %s\n",
                   static_cast<unsigned long long>(
                       telemetry_.recorder().recorded()),
                   recorder_path_.c_str());
    } else {
      std::fprintf(stderr, "failed to write flight recorder to %s\n",
                   recorder_path_.c_str());
      if (rc == 0) rc = 74;  // EX_IOERR
    }
  }
  if (exporter_.running() && export_linger_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(export_linger_ms_));
  }
  exporter_.Stop();
  return rc;
}

}  // namespace emjoin::obs
