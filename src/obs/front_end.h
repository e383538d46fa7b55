#ifndef EMJOIN_OBS_FRONT_END_H_
#define EMJOIN_OBS_FRONT_END_H_

// The front end shared by emjoin_cli, emjoin_export and the benches:
// the observer flags, the run options, the exit-code map, and the one
// object that owns a run's observers and writes their artifacts.
//
// Observer flags (FrontEnd::ParseFlag):
//
//   --trace[=PATH]             span tree to stdout, or to PATH
//   --trace-format={tree,jsonl,chrome}   jsonl and chrome need a PATH
//   --metrics=PATH             export the run's metrics registry
//   --metrics-format={json,prom}         export format (default json)
//   --audit=PATH               measured-vs-bound audit rows
//   --export-port=PORT         serve /metrics, /healthz, /progress and
//                              /events over HTTP while the run lasts
//                              (0 picks an ephemeral port)
//   --export-linger-ms=MS      keep the exporter up this long after the
//                              run finishes, for one final scrape
//   --recorder=PATH            dump the flight-recorder event log as
//                              JSONL when the run exits
//
// Every observer is observer-only: attaching one changes zero charged
// I/Os (pinned by io_invariance).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extmem/device.h"
#include "extmem/status.h"
#include "metrics/collect.h"
#include "metrics/registry.h"
#include "obs/http_exporter.h"
#include "obs/telemetry.h"
#include "parallel/parallel_join.h"
#include "trace/tracer.h"

namespace emjoin::obs {

/// Exit code of a usage error: unknown flag, malformed value.
inline constexpr int kExitUsage = 64;

/// Sysexits-style exit code of a typed failure. Every StatusCode has its
/// own, so shell callers can tell failure classes apart: 65 invalid
/// input, 66 not found, 69 device full, 70 internal, 73 data loss,
/// 74 I/O error, 75 budget exceeded.
int ExitCodeFor(const extmem::Status& status);

/// A whole-string unsigned decimal integer: no sign, no spaces, no
/// overflow.
bool ParseU64(std::string_view text, std::uint64_t* out);

/// A whole-string number in [0, 1].
bool ParseProbability(std::string_view text, double* out);

/// Largest accepted worker count: a WorkerPool starts exactly this many
/// threads.
inline constexpr std::uint64_t kMaxWorkers = 64;

/// Parses one run option into `options`: --shards=K (in [1, 64]),
/// --workers=W (in [1, 64]) or one of the fault flags --fault-seed=N,
/// --fault-read=P, --fault-write=P, --fault-torn=P,
/// --fault-capacity=BLOCKS, --fault-shrink-at=IOS[,IOS...],
/// --fault-shrink-every-poll, --fault-retries=K, --fault-adaptive-retry,
/// --fault-kill-at=IOS (>= 1). A fault flag sets `options->faults`.
/// Returns 1 when `arg` was consumed, 0 when it is not a run option, -1
/// on a malformed value (diagnostic printed to stderr).
int ParseRunOption(std::string_view arg, parallel::ParallelOptions* options);

/// One measured-vs-bound row of an audit file. It passes when measured
/// stays within 64x the bound plus 64 I/Os of partial-block slack: a
/// Table 1 claim is an upper bound up to its constant factor.
struct AuditRow {
  std::string name;
  std::uint64_t measured = 0;
  long double expected = 0;
};

/// Owns one run's observers — a Tracer, a metrics Registry, a Telemetry
/// and its HTTP exporter — attaches the ones the flags asked for, and
/// writes every artifact at exit.
class FrontEnd {
 public:
  FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Tries to consume one observer flag. Returns 1 when `arg` was
  /// consumed, 0 when it is not an observer flag, -1 on a malformed
  /// value (diagnostic printed to stderr).
  int ParseFlag(std::string_view arg);

  /// Checks the flags as a whole and starts the HTTP exporter when
  /// --export-port was given. Returns 0, or the exit code of the failure
  /// after a diagnostic on stderr.
  int Start();

  /// Attaches every requested observer to `dev`.
  void Attach(extmem::Device* dev);

  /// The registry runs collect into, or null when nothing consumes
  /// metrics (neither --metrics nor --export-port). Shard registries
  /// merge into it (see parallel::TryParallelJoinAuto).
  [[nodiscard]] metrics::Registry* registry();

  /// Folds `dev`'s I/O and fault deltas since `before` into registry()
  /// and refreshes the exporter's /metrics body. No-op without one.
  void Collect(const extmem::Device& dev,
               const metrics::DeviceSnapshot& before = {});

  [[nodiscard]] bool tracing() const { return trace_; }
  [[nodiscard]] bool auditing() const { return !audit_path_.empty(); }
  /// True when a telemetry consumer (exporter or recorder) was requested.
  [[nodiscard]] bool telemetry_enabled() const {
    return export_port_ >= 0 || !recorder_path_.empty();
  }
  [[nodiscard]] Telemetry& telemetry() { return telemetry_; }

  void AddAuditRow(AuditRow row) { audit_rows_.push_back(std::move(row)); }

  /// End of run. When `rc` is 0, writes the metrics, audit and trace
  /// files (a failure turns rc into 70). Then, with telemetry enabled:
  /// pins /progress at 100 on success, publishes the final /metrics,
  /// dumps the flight recorder on every exit path (74 if that fails on
  /// an otherwise successful run), lingers for a last scrape and stops
  /// the exporter. Returns the exit code.
  int Finish(int rc);

 private:
  [[nodiscard]] extmem::Status WriteArtifacts() const;
  [[nodiscard]] bool WriteTrace() const;
  void Publish();

  bool trace_ = false;
  std::string trace_path_;               // empty: tree report to stdout
  std::string trace_format_ = "tree";    // tree | jsonl | chrome
  std::string metrics_path_;             // empty: no metrics file
  std::string metrics_format_ = "json";  // json | prom
  std::string audit_path_;               // empty: no audit file
  int export_port_ = -1;                 // <0: no HTTP exporter
  unsigned export_linger_ms_ = 0;        // exporter grace after the run
  std::string recorder_path_;            // empty: no flight-recorder dump

  trace::Tracer tracer_;
  metrics::Registry registry_;
  Telemetry telemetry_;
  HttpExporter exporter_;
  std::vector<AuditRow> audit_rows_;
};

}  // namespace emjoin::obs

#endif  // EMJOIN_OBS_FRONT_END_H_
