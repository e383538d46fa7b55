#ifndef EMJOIN_BENCH_BENCH_UTIL_H_
#define EMJOIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "gens/psi.h"
#include "metrics/collect.h"
#include "obs/front_end.h"
#include "trace/tracer.h"

namespace emjoin::bench {

/// Interns a dynamic span name (SpanRecord stores a borrowed pointer).
inline const char* InternSpanName(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

/// Fixed-width table printer for experiment output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      width[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i].size() > width[i]) width[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(width[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(width[i], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string U(std::uint64_t v) { return std::to_string(v); }

inline std::string F(double v) {
  char buf[64];
  if (v >= 100 || v == 0.0) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f", v);
  }
  return buf;
}

/// Runs `fn` and returns the I/Os it charged plus the results it emitted.
struct Measured {
  std::uint64_t ios = 0;
  std::uint64_t results = 0;
};

/// Instance-exact Theorem 3 bound (max Ψ + linear term) for reporting.
inline double TheoremBound(const std::vector<storage::Relation>& rels,
                           const extmem::Device& dev) {
  query::JoinQuery q;
  for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
  return static_cast<double>(
      gens::PredictBoundExact(q, rels, dev.M(), dev.B()).bound);
}

inline void Banner(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), claim.c_str());
}

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Collects per-benchmark wall-clock and I/O measurements and renders
/// them as a table and/or a machine-readable JSON file, so the perf
/// trajectory of the substrate is tracked across PRs.
///
/// JSON schema: {"benches": [{"bench": str,
///                            "config": {"M": int, "B": int, "n": int},
///                            "ios": int, "wall_ns": int, "results": int,
///                            "peak_mem": int,
///                            "expect": float,   // only when a bound is known
///                            "tags": {tag: {"reads": int,
///                                           "writes": int}, ...}}, ...]}
class Reporter {
 public:
  struct Record {
    std::string bench;
    std::uint64_t m = 0;        // device memory size M, in tuples
    std::uint64_t b = 0;        // device block size B, in tuples
    std::uint64_t n = 0;        // workload size, in tuples
    std::uint64_t ios = 0;      // charged block I/Os for one run
    std::uint64_t wall_ns = 0;  // best-of-repetitions wall clock
    std::uint64_t results = 0;  // tuples produced / consumed
    std::uint64_t peak_mem = 0; // gauge high-water during the first rep
    // The paper's formula value for this instance; < 0 when the bench
    // has no closed-form claim for the record.
    long double expect = -1.0L;
    // Per-tag I/O deltas for the first repetition (nonzero tags only).
    std::map<std::string, extmem::IoStats, std::less<>> tags;
  };

  void Add(Record r) { records_.push_back(std::move(r)); }

  void PrintTable() const {
    Table table({"bench", "M", "B", "n", "ios", "wall_ms", "Mtuples/s",
                 "results", "peak_mem"});
    for (const Record& r : records_) {
      const double ms = static_cast<double>(r.wall_ns) / 1e6;
      const double mtps = r.wall_ns == 0
                              ? 0.0
                              : static_cast<double>(r.n) * 1e3 /
                                    static_cast<double>(r.wall_ns);
      table.AddRow({r.bench, U(r.m), U(r.b), U(r.n), U(r.ios), F(ms), F(mtps),
                    U(r.results), U(r.peak_mem)});
    }
    table.Print();
  }

  /// Writes the records as JSON. Returns false if the file can't be
  /// opened.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benches\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"bench\": \"%s\", "
                   "\"config\": {\"M\": %llu, \"B\": %llu, \"n\": %llu}, "
                   "\"ios\": %llu, \"wall_ns\": %llu, \"results\": %llu, "
                   "\"peak_mem\": %llu, ",
                   r.bench.c_str(), static_cast<unsigned long long>(r.m),
                   static_cast<unsigned long long>(r.b),
                   static_cast<unsigned long long>(r.n),
                   static_cast<unsigned long long>(r.ios),
                   static_cast<unsigned long long>(r.wall_ns),
                   static_cast<unsigned long long>(r.results),
                   static_cast<unsigned long long>(r.peak_mem));
      if (r.expect >= 0.0L) {
        std::fprintf(f, "\"expect\": %.3Lf, ", r.expect);
      }
      std::fprintf(f, "\"tags\": {");
      bool first_tag = true;
      for (const auto& [tag, io] : r.tags) {
        std::fprintf(f, "%s\"%s\": {\"reads\": %llu, \"writes\": %llu}",
                     first_tag ? "" : ", ", tag.c_str(),
                     static_cast<unsigned long long>(io.block_reads),
                     static_cast<unsigned long long>(io.block_writes));
        first_tag = false;
      }
      std::fprintf(f, "}}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

/// One bench process's state: its output flags, its records (written
/// as BENCH_<name>.json for the regression gate) and its observers.
struct BenchRun {
  std::string name;        // e.g. "table1_line3"
  bool write_json = true;  // --no-json disables
  std::string json_path;   // default BENCH_<name>.json
  int reps = 1;            // --reps=K for wall-clock best-of-K
  Reporter reporter;
  obs::FrontEnd observers;
};

inline BenchRun& GlobalBench() {
  static BenchRun run;
  return run;
}

/// Flag parsing for bench mains: the observer flags of obs::FrontEnd
/// plus the bench output flags --json[=PATH], --no-json and --reps=K.
/// Returns false (diagnostic printed) on a malformed value or any other
/// argument; callers should exit 2.
inline bool ParseBenchFlags(int argc, char** argv, const std::string& name,
                            int default_reps = 1) {
  BenchRun& run = GlobalBench();
  run.name = name;
  run.json_path = "BENCH_" + name + ".json";
  run.reps = default_reps;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const int consumed = run.observers.ParseFlag(arg);
    if (consumed < 0) return false;
    if (consumed > 0) continue;
    if (arg == "--json") {
      run.write_json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      run.write_json = true;
      run.json_path = std::string(arg.substr(7));
    } else if (arg == "--no-json") {
      run.write_json = false;
    } else if (arg.rfind("--reps=", 0) == 0) {
      run.reps = std::max(1, std::atoi(arg.substr(7).data()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return run.observers.Start() == 0;
}

/// Runs `fn` (which returns its result count) `reps` times under a span
/// named `name` and records the best wall clock. I/O, per-tag deltas,
/// peak memory and metrics come from the first repetition; reruns
/// charge identically. `expect` (the paper's formula value for this
/// instance, < 0 when the bench has none) annotates the span and adds
/// an audit row; `n` (the workload scale) keeps the record keys unique
/// for bench_diff.
inline Measured Measure(extmem::Device* dev, const char* name,
                        std::uint64_t n, int reps,
                        const std::function<std::uint64_t()>& fn,
                        long double expect = -1.0L) {
  BenchRun& run = GlobalBench();
  run.observers.Attach(dev);
  Reporter::Record rec;
  rec.bench = name;
  rec.m = dev->M();
  rec.b = dev->B();
  rec.n = n;
  rec.wall_ns = ~std::uint64_t{0};
  rec.expect = expect;
  for (int i = 0; i < reps; ++i) {
    const metrics::DeviceSnapshot before = metrics::Snapshot(*dev);
    const std::uint64_t t0 = NowNs();
    std::uint64_t results = 0;
    {
      trace::Span span(dev, name);
      if (expect >= 0.0L) span.ExpectIos(expect);
      results = fn();
    }
    rec.wall_ns = std::min(rec.wall_ns, NowNs() - t0);
    if (i > 0) continue;
    rec.ios = (dev->stats() - before.io).total();
    rec.results = results;
    rec.peak_mem = dev->gauge().high_water();
    rec.tags = extmem::TagDelta(dev->per_tag(), before.tags);
    run.observers.Collect(*dev, before);
  }
  if (expect >= 0.0L) {
    run.observers.AddAuditRow({rec.bench + "|M=" + std::to_string(rec.m) +
                                   "|B=" + std::to_string(rec.b) +
                                   "|n=" + std::to_string(rec.n),
                               rec.ios, expect});
  }
  run.reporter.Add(rec);
  return {rec.ios, rec.results};
}

/// Measure() over a join that emits into a counting sink.
inline Measured MeasureJoin(
    extmem::Device* dev,
    const std::function<void(const core::EmitFn&)>& run,
    const char* span_name = "join", long double expect_ios = -1.0L,
    std::uint64_t n = 0) {
  return Measure(
      dev, span_name, n, /*reps=*/1,
      [&run] {
        core::CountingSink sink;
        run(sink.AsEmitFn());
        return sink.count();
      },
      expect_ios);
}

/// Flushes everything a bench accumulated: the BENCH_<name>.json records,
/// then the observers' artifacts and telemetry epilogue (see
/// obs::FrontEnd::Finish). Call at the end of main and return the result
/// as the exit code.
inline int FinishBench() {
  BenchRun& run = GlobalBench();
  int rc = 0;
  if (run.write_json && !run.reporter.records().empty()) {
    if (run.reporter.WriteJson(run.json_path)) {
      std::fprintf(stderr, "bench: %zu records -> %s\n",
                   run.reporter.records().size(), run.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", run.json_path.c_str());
      rc = 1;
    }
  }
  const int finish_rc = run.observers.Finish(0);
  return rc != 0 ? rc : finish_rc;
}

}  // namespace emjoin::bench

#endif  // EMJOIN_BENCH_BENCH_UTIL_H_
