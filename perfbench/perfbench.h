// Shared pieces of the emjoin benchmark binary: the four workloads, the
// checking sink every query emits into, and one query call with its
// per-query I/O and memory accounting. main.cc runs the timed closed
// loop and the reference oracle; traced.cc runs the per-layer breakdown.
#ifndef EMJOIN_PERFBENCH_PERFBENCH_H_
#define EMJOIN_PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/status.h"
#include "parallel/parallel_join.h"
#include "query/hypergraph.h"
#include "storage/relation.h"

namespace emjoin::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// One workload instance, resident on its own Device.
struct Instance {
  std::unique_ptr<extmem::Device> dev;
  std::vector<storage::Relation> rels;
  query::JoinQuery query;
  /// A sharded workload runs through parallel::TryParallelJoinAuto with
  /// kShards shards on kWorkers pool threads; the others through
  /// core::TryJoinAuto.
  bool sharded = false;
};

inline constexpr std::uint32_t kShards = 4;
// One worker thread: with 4 workers on a 4-vCPU host shared with other
// tenants, the slowest worker set the query time and p90 spread 11-39%
// between ten-seed sets. One worker still partitions, runs every shard through
// the pool, buffers all shard output and replays it in order at the
// barrier.
inline constexpr std::uint32_t kWorkers = 1;

/// True for the names BuildInstance accepts.
bool KnownWorkload(const std::string& name);

/// Builds `name`'s instance from `seed`: the same seed gives the same
/// relations. Random workloads pass the seed to workload::RandomInstance;
/// the paper's fixed constructions get a seeded relabelling of every
/// attribute's values.
Instance BuildInstance(const std::string& name, std::uint64_t seed);

// ---------------------------------------------------------------------
// Output check.
// ---------------------------------------------------------------------

/// Per-row hash: position-sensitive within the row.
inline std::uint64_t HashRow(std::span<const Value> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  std::uint64_t k = 0xbf58476d1ce4e5b9ULL;
  for (Value v : row) {
    h += (v + 1) * k;
    k += 0x94d049bb133111ebULL;
  }
  h ^= h >> 31;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

/// What a correct run must reproduce, from core::ReferenceJoin.
struct Reference {
  std::uint64_t rows = 0;
  std::uint64_t set_digest = 0;  // sum of HashRow: order-insensitive
};

/// The traced run's spans: name, start, end, parent and query id, kept in
/// memory. Open and Close nest; see traced.cc for the run that records
/// them.
class SpanRecorder {
 public:
  struct Record {
    const char* name;  // a string literal
    double start_ms;
    double end_ms;
    int parent;  // index into the records, -1 for a root
    int query;
  };

  void set_query(int query) { query_ = query; }
  void Open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, Now(), -1.0, parent, query_});
    stack_.push_back(static_cast<int>(records_.size() - 1));
  }
  void Close() {
    records_[stack_.back()].end_ms = Now();
    stack_.pop_back();
  }
  const std::vector<Record>& records() const { return records_; }

 private:
  double Now() const { return MsBetween(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
  int query_ = -1;
};

/// The benchmark's emit consumer: folds every row into a row count and
/// two digests. Without a SpanRecorder it folds each row as it arrives.
/// With one (the traced run) rows are copied into a batch buffer and each
/// full batch is folded inside one "emit" span, so the consumer is timed
/// per batch, never per row. `drop_row` makes the sink lose one row (the
/// self-check).
class CheckSink {
 public:
  explicit CheckSink(SpanRecorder* spans = nullptr) : spans_(spans) {}

  /// Resets the counters; `start` is when the query was called.
  void Begin(Clock::time_point start);
  /// Folds the last partial batch.
  void Finish();
  core::EmitFn Fn() {
    return [this](std::span<const Value> row) { Accept(row); };
  }

  std::uint64_t rows() const { return rows_; }
  std::uint64_t set_digest() const { return set_digest_; }
  std::uint64_t seq_digest() const { return seq_digest_; }
  /// Milliseconds from Begin to the first row; negative if none arrived.
  double first_row_ms() const { return first_row_ms_; }

  std::int64_t drop_row = -1;

 private:
  static constexpr std::size_t kBatchRows = 1024;

  void Accept(std::span<const Value> row) {
    if (seen_++ == 0) FirstRow(row.size());
    if (static_cast<std::int64_t>(seen_ - 1) == drop_row) return;
    if (spans_ == nullptr) {
      Fold(row);
      return;
    }
    std::copy(row.begin(), row.end(), batch_.data() + batch_rows_ * width_);
    if (++batch_rows_ == kBatchRows) Flush();
  }
  void Fold(std::span<const Value> row) {
    const std::uint64_t h = HashRow(row);
    set_digest_ += h;
    seq_digest_ = seq_digest_ * 0x100000001b3ULL + h;
    ++rows_;
  }
  void FirstRow(std::size_t width);
  void Flush();

  SpanRecorder* spans_;
  std::vector<Value> batch_;
  std::size_t width_ = 0;
  std::size_t batch_rows_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t set_digest_ = 0;
  std::uint64_t seq_digest_ = 0;
  Clock::time_point start_;
  double first_row_ms_ = -1.0;
};

// ---------------------------------------------------------------------
// One top-level query.
// ---------------------------------------------------------------------

struct QueryResult {
  extmem::Status status;
  double wall_ms = 0.0;
  /// Charged reads + writes, over the source device and every shard
  /// device.
  std::uint64_t ios = 0;
  std::uint64_t writes = 0;
  /// Per-tag I/O deltas, summed the same way.
  std::map<std::string, std::uint64_t, std::less<>> tag_ios;
  /// MemoryGauge high-water mark (max over shard devices).
  TupleCount peak_mem = 0;
  parallel::ParallelJoinReport parallel;  // sharded runs only
};

/// Runs the instance's top-level call once into `sink`. `as_sharded`
/// picks the entry point (the traced run also calls the other one);
/// `merged_metrics` is forwarded to TryParallelJoinAuto.
QueryResult RunQuery(Instance& inst, CheckSink& sink, bool as_sharded,
                     metrics::Registry* merged_metrics = nullptr);

/// What every query of a run must reproduce: the reference output, and
/// the first checked query's emission order and exact counts.
struct Expectation {
  Reference ref;
  bool have_first = false;  // seq_digest / ios / peak_mem below are set
  std::uint64_t seq_digest = 0;
  std::uint64_t ios = 0;
  TupleCount peak_mem = 0;
};

/// Appends to `why` and returns false when the query's output or its
/// exact counts differ from what the run expects.
bool CheckQuery(const QueryResult& r, const CheckSink& sink,
                Expectation* expect, std::string* why);

// ---------------------------------------------------------------------
// Runs and their report.
// ---------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Reference ref;
  /// Traced run: where the recorded spans are written at exit.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Prints the metrics one per line, then the result object as the last
/// line of standard output.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics);

/// The traced run: per-layer metrics from spans recorded around calls
/// into each layer. Returns the process exit code.
int RunTraced(const RunOptions& opts);

}  // namespace emjoin::perfbench

#endif  // EMJOIN_PERFBENCH_PERFBENCH_H_
