// emjoin_perfbench: one workload per process.
//
//   emjoin_perfbench reference --workload W --seed N
//       Builds the instance and prints the core::ReferenceJoin row count
//       and order-insensitive digest (the oracle the other modes check
//       every query against).
//   emjoin_perfbench timed --workload W --seed N --seconds S
//                          --expect-rows R --expect-digest HEX
//       Set-up (repeated, median reported), one warm-up query, then a
//       closed loop of top-level queries for S seconds with no tracer,
//       metrics registry or telemetry attached. Prints the end-to-end
//       metrics.
//   emjoin_perfbench traced ... [--spans-out PATH]
//       The per-layer breakdown (see traced.cc).
//
// The last line of standard output is the result object. run.py in this
// directory builds the binary, caches the reference and drives it.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/reference.h"
#include "perfbench.h"

namespace emjoin::perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS
// seconds of set-up were timed (at most kMaxSetupReps times).
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupBudgetS = 2.0;

// core::ReferenceJoin enumerates by nested loops, so its time grows with
// the product of relation sizes. The line is therefore cut into slices
// by the value of the attribute its last two relations share: every
// result falls in exactly one slice. Each slice drops the tuples that
// join nothing in it (two semijoin sweeps along the line over in-memory
// sets, no emjoin operator involved) before the oracle joins it; counts
// and digests add up over slices.
Reference LineReference(const std::vector<storage::Relation>& rels) {
  constexpr std::uint64_t kSlices = 32;
  const std::size_t n = rels.size();
  std::vector<std::vector<storage::Tuple>> all;
  for (const storage::Relation& r : rels) all.push_back(r.ReadAll());
  // cols[i] = {column in rels[i], column in rels[i + 1]} of their shared
  // attribute.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cols;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const storage::AttrId a =
        rels[i].schema().CommonAttrs(rels[i + 1].schema()).front();
    cols.emplace_back(*rels[i].schema().PositionOf(a),
                      *rels[i + 1].schema().PositionOf(a));
  }
  auto keep_joining = [](std::vector<storage::Tuple>* rows, std::uint32_t col,
                         const std::vector<storage::Tuple>& other,
                         std::uint32_t other_col) {
    std::unordered_set<Value> values;
    for (const storage::Tuple& t : other) values.insert(t[other_col]);
    std::erase_if(*rows, [&](const storage::Tuple& t) {
      return !values.contains(t[col]);
    });
  };

  Reference ref;
  for (std::uint64_t slice = 0; slice < (n > 1 ? kSlices : 1); ++slice) {
    std::vector<std::vector<storage::Tuple>> part = all;
    if (n > 1) {
      const auto [left, right] = cols.back();
      auto outside = [&](std::uint32_t col) {
        return [&, col](const storage::Tuple& t) {
          return HashRow(std::span<const Value>(&t[col], 1)) % kSlices != slice;
        };
      };
      std::erase_if(part[n - 2], outside(left));
      std::erase_if(part[n - 1], outside(right));
      for (std::size_t i = n - 1; i-- > 0;) {
        keep_joining(&part[i], cols[i].first, part[i + 1], cols[i].second);
      }
      for (std::size_t i = 1; i < n; ++i) {
        keep_joining(&part[i], cols[i - 1].second, part[i - 1],
                     cols[i - 1].first);
      }
    }
    extmem::Device dev(rels.front().device()->M(), rels.front().device()->B());
    std::vector<storage::Relation> sliced;
    for (std::size_t i = 0; i < n; ++i) {
      sliced.push_back(
          storage::Relation::FromTuples(&dev, rels[i].schema(), part[i]));
    }
    for (const std::vector<Value>& row : core::ReferenceJoin(sliced)) {
      ++ref.rows;
      ref.set_digest += HashRow(row);
    }
  }
  return ref;
}

int RunReference(const RunOptions& opts) {
  const Instance inst = BuildInstance(opts.workload, opts.seed);
  const Reference ref = LineReference(inst.rels);
  std::printf("{\"rows\": %" PRIu64 ", \"set_digest\": \"%016" PRIx64
              "\"}\n",
              ref.rows, ref.set_digest);
  return 0;
}

int RunTimed(const RunOptions& opts) {
  // Set-up: build the instance on its Device several times; report the
  // median and keep the last build for the query loop.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Instance inst;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetupReps)) {
    inst = Instance{};
    const Clock::time_point t0 = Clock::now();
    inst = BuildInstance(opts.workload, opts.seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    setup_total_s += setup_s.back();
  }

  CheckSink sink;
  Expectation expect{opts.ref};
  std::string why;
  const QueryResult warm = RunQuery(inst, sink, inst.sharded);
  bool correct = CheckQuery(warm, sink, &expect, &why);

  std::vector<double> query_ms, first_row_ms;
  std::uint64_t attempted = 0, failed = 0, rows = 0;
  double total_ms = 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  do {
    const QueryResult r = RunQuery(inst, sink, inst.sharded);
    ++attempted;
    if (!CheckQuery(r, sink, &expect, &why)) ++failed;
    query_ms.push_back(r.wall_ms);
    if (sink.first_row_ms() >= 0.0) first_row_ms.push_back(sink.first_row_ms());
    rows += sink.rows();
    total_ms += r.wall_ms;
  } while (Clock::now() < deadline);
  const double rss_mb = PeakRssMb();

  // Self-check: a sink that loses one row must be caught.
  CheckSink lossy;
  lossy.drop_row = static_cast<std::int64_t>(opts.ref.rows / 2);
  Expectation lossy_expect = expect;
  std::string lossy_why;
  if (CheckQuery(RunQuery(inst, lossy, inst.sharded), lossy, &lossy_expect,
                 &lossy_why)) {
    why += "self-check: a sink that drops a row passed the output check; ";
    correct = false;
  }

  correct = correct && failed == 0;
  if (!why.empty()) std::fprintf(stderr, "check failures: %s\n", why.c_str());
  // The medians, the mean throughput and failed_frac are printed but not
  // reported as metrics: on a host shared with other tenants per-query
  // times are bimodal, and a statistic that sits between the two modes
  // (median, mean) moves by 20-30% from run to run while the p90 stays
  // within about 10% (see README.md). failed_frac is reported as its
  // complement ok_frac, which is never 0.
  const double query_p90 = Quantile(query_ms, 0.9);
  std::printf("workload=%s seed=%" PRIu64 " queries=%" PRIu64
              " (closed loop, 1 caller, 1 warm-up) setup_reps=%zu\n",
              opts.workload.c_str(), opts.seed, attempted, setup_s.size());
  const std::vector<Metric> not_gated = {
      {"query_ms_p50", Quantile(query_ms, 0.5), "ms"},
      {"first_row_ms_p50", Quantile(first_row_ms, 0.5), "ms"},
      {"rows_per_s_mean", static_cast<double>(rows) / (total_ms / 1000.0),
       "rows/s"},
      {"failed_frac",
       static_cast<double>(failed) / static_cast<double>(attempted),
       "fraction"}};
  for (const Metric& m : not_gated) {
    std::printf("  %-24s %18.6f %s (not gated)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(
      correct, attempted, failed,
      {{"query_ms_p90", query_p90, "ms"},
       {"first_row_ms_p90", Quantile(first_row_ms, 0.9), "ms"},
       // The throughput 90% of queries reach: every query delivers the
       // same rows, so this is the 10th percentile of rows per second.
       {"rows_per_s",
        static_cast<double>(rows) / static_cast<double>(attempted) /
            (query_p90 / 1000.0),
        "rows/s"},
       {"block_ios", static_cast<double>(warm.ios), "count"},
       {"peak_mem_tuples", static_cast<double>(warm.peak_mem), "tuples"},
       {"peak_rss_mb", rss_mb, "MiB"},
       {"setup_s", Quantile(setup_s, 0.5), "s"},
       {"ok_frac",
        static_cast<double>(attempted - failed) /
            static_cast<double>(attempted),
        "fraction"}});
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: emjoin_perfbench reference|timed|traced --workload W "
               "--seed N [--seconds S] [--expect-rows R --expect-digest HEX] "
               "[--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace emjoin::perfbench

int main(int argc, char** argv) {
  using namespace emjoin::perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--expect-rows") {
      opts.ref.rows = std::strtoull(value, nullptr, 10);
    } else if (flag == "--expect-digest") {
      opts.ref.set_digest = std::strtoull(value, nullptr, 16);
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0 || !KnownWorkload(opts.workload)) return Usage();
  if (mode == "reference") return RunReference(opts);
  if (mode == "timed") return RunTimed(opts);
  if (mode == "traced") return RunTraced(opts);
  return Usage();
}
