// The traced run: the per-layer breakdown. Each layer is timed from
// outside, by spans this file opens around calls into the layer's public
// functions; nothing is attached inside the program except in the
// "e2e.attached" query, which measures what the program's own tracer,
// metrics registry and telemetry cost.
//
// One iteration (one query id) runs, in order:
//   e2e.detached   the workload's top-level call, nothing attached;
//   e2e.attached   the same call with trace::Tracer, metrics::Registry
//                  and obs::Telemetry attached through the Device setters;
//   serial         the serial query decomposed: core::FullyReduce
//                  ("reduce"), then the join on the reduced input with
//                  reduce_first=false ("join"), whose planner calls
//                  ("plan") and emitted batches ("emit") nest under it;
//   sort           extmem::ExternalSort of each input on its first join
//                  attribute;
//   line3_todisk   core::LineJoin3ToDisk on the reduced line's three-
//                  relation prefixes (both of them on an L5);
//   probe          the other entry point on the same instance: the serial
//                  TryJoinAuto for a sharded workload, a 4-shard
//                  TryParallelJoinAuto otherwise.
// Spans are kept in memory, written out at exit, and every per-layer
// time is the median over iterations of that layer's self time.
#include <cinttypes>
#include <cstdio>

#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/line3.h"
#include "core/reduce.h"
#include "core/unbalanced5.h"
#include "extmem/sorter.h"
#include "gens/planner.h"
#include "gens/psi.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "perfbench.h"
#include "trace/tracer.h"

namespace emjoin::perfbench {
namespace {

// Self time per (query, span name): duration minus the time covered by
// child spans.
std::map<std::string, std::vector<double>> SelfTimes(const SpanRecorder& rec,
                                                     int queries) {
  const std::vector<SpanRecorder::Record>& records = rec.records();
  std::vector<double> child(records.size(), 0.0);
  for (const SpanRecorder::Record& r : records) {
    if (r.parent >= 0) child[r.parent] += r.end_ms - r.start_ms;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecorder::Record& r = records[i];
    std::vector<double>& per_query = out[r.name];
    per_query.resize(queries, 0.0);
    per_query[r.query] += r.end_ms - r.start_ms - child[i];
  }
  return out;
}

bool WriteSpans(const SpanRecorder& rec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecorder::Record& r : rec.records()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"parent\": %d, \"query\": %d}\n",
                 r.name, r.start_ms, r.end_ms, r.parent, r.query);
  }
  return std::fclose(f) == 0;
}

class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name) : rec_(rec) { rec_->Open(name); }
  ~Scope() { rec_->Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

// Column of the first attribute of `rels[e]` that another relation
// shares.
std::uint32_t FirstJoinColumn(const std::vector<storage::Relation>& rels,
                              std::size_t e) {
  const storage::Schema& schema = rels[e].schema();
  for (std::uint32_t c = 0; c < schema.arity(); ++c) {
    for (std::size_t o = 0; o < rels.size(); ++o) {
      if (o != e && rels[o].schema().Contains(schema.attr(c))) return c;
    }
  }
  return 0;
}

struct Counts {
  std::uint64_t reduce_ios = 0;
  double kept_frac = 0.0;
  std::uint64_t plan_calls = 0;
  std::uint64_t join_rows = 0;
  std::uint64_t sort_ios = 0;
  std::uint64_t sort_tuples = 0;
  std::uint64_t merge_passes = 0;
  std::uint64_t line3_ios = 0;
};

// The serial query, decomposed into its layers the way core::TryJoinAuto
// composes them. The output is checked like any other query's.
void DecomposedQuery(Instance& inst, SpanRecorder& rec, CheckSink& sink,
                     Counts* counts,
                     std::vector<storage::Relation>* reduced_out) {
  extmem::Device* dev = inst.dev.get();
  Scope serial(&rec, "serial");
  sink.Begin(Clock::now());

  std::vector<storage::Relation> reduced;
  {
    Scope s(&rec, "reduce");
    const extmem::IoStats before = dev->stats();
    reduced = core::FullyReduce(inst.rels);
    counts->reduce_ios = (dev->stats() - before).total();
  }
  TupleCount in = 0, kept = 0;
  for (std::size_t e = 0; e < reduced.size(); ++e) {
    in += inst.rels[e].size();
    kept += reduced[e].size();
  }
  counts->kept_frac = static_cast<double>(kept) / static_cast<double>(in);

  Scope join(&rec, "join");
  counts->plan_calls = 0;
  bool unbalanced5 = false;
  std::vector<storage::Relation> line;
  if (reduced.size() >= 5) {
    // TryJoinAuto's routing decision for long lines.
    Scope plan(&rec, "plan");
    ++counts->plan_calls;
    if (const auto order = core::LineOrder(inst.query); order.has_value()) {
      std::vector<TupleCount> sizes;
      for (query::EdgeId e : *order) {
        line.push_back(reduced[e]);
        sizes.push_back(reduced[e].size());
      }
      unbalanced5 = line.size() == 5 && !core::IsBalancedLine(sizes);
    }
  }
  if (unbalanced5) {
    core::LineJoinUnbalanced5(line[0], line[1], line[2], line[3], line[4],
                              sink.Fn(), /*reduce_first=*/false);
  } else {
    const gens::LeafChooser chooser =
        gens::CostGuidedChooser(dev->M(), dev->B());
    core::AcyclicJoinOptions options;
    options.reduce_first = false;
    options.leaf_chooser = [&](const query::JoinQuery& live,
                               const std::vector<storage::Relation>& rels,
                               const std::vector<query::EdgeId>& candidates) {
      Scope plan(&rec, "plan");
      ++counts->plan_calls;
      return chooser(live, rels, candidates);
    };
    core::AcyclicJoin(reduced, sink.Fn(), options);
  }
  sink.Finish();
  counts->join_rows = sink.rows();
  *reduced_out = line.empty() ? std::move(reduced) : std::move(line);
}

void SortProbe(const Instance& inst, SpanRecorder& rec, Counts* counts) {
  extmem::Device* dev = inst.dev.get();
  Scope s(&rec, "sort");
  counts->sort_ios = counts->sort_tuples = counts->merge_passes = 0;
  for (std::size_t e = 0; e < inst.rels.size(); ++e) {
    const extmem::IoStats before = dev->stats();
    const std::uint32_t key[] = {FirstJoinColumn(inst.rels, e)};
    const extmem::FilePtr sorted =
        extmem::ExternalSort(inst.rels[e].range(), key);
    counts->sort_ios += (dev->stats() - before).total();
    counts->sort_tuples += inst.rels[e].size();
    counts->merge_passes += extmem::MergePassesFor(*dev, inst.rels[e].size());
  }
}

void Line3Probe(const std::vector<storage::Relation>& line, SpanRecorder& rec,
                Counts* counts) {
  extmem::Device* dev = line.front().device();
  Scope s(&rec, "line3_todisk");
  const extmem::IoStats before = dev->stats();
  // Each output relation is dropped (and its file freed) at once.
  static_cast<void>(core::LineJoin3ToDisk(line[0], line[1], line[2]));
  if (line.size() == 5) {
    static_cast<void>(core::LineJoin3ToDisk(line[2], line[3], line[4]));
  }
  counts->line3_ios = (dev->stats() - before).total();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace

int RunTraced(const RunOptions& opts) {
  Instance inst = BuildInstance(opts.workload, opts.seed);
  extmem::Device* dev = inst.dev.get();
  const long double bound =
      gens::PredictBoundExact(inst.query, inst.rels, dev->M(), dev->B()).bound;

  SpanRecorder rec;
  CheckSink sink;
  CheckSink traced_sink(&rec);
  Expectation expect{opts.ref}, attached_expect{opts.ref};
  std::string why;
  bool correct = true;

  // Warm-up: one detached query.
  const QueryResult warm = RunQuery(inst, sink, inst.sharded);
  correct = CheckQuery(warm, sink, &expect, &why);

  std::vector<double> detached_ms, attached_ms, serial_ms, sharded_ms,
      replay_ms;
  QueryResult first_detached;
  parallel::ParallelJoinReport sharded_report;
  Counts counts;
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  int q = 0;
  for (; q == 0 || Clock::now() < deadline; ++q) {
    rec.set_query(q);
    Scope query(&rec, "query");
    bool ok = true;

    QueryResult detached;
    {
      Scope s(&rec, "e2e.detached");
      detached = RunQuery(inst, sink, inst.sharded);
    }
    const double detached_replay_ms = detached.wall_ms - sink.first_row_ms();
    ok &= CheckQuery(detached, sink, &expect, &why);
    detached_ms.push_back(detached.wall_ms);
    if (q == 0) first_detached = detached;

    {
      Scope s(&rec, "e2e.attached");
      trace::Tracer tracer;
      metrics::Registry registry;
      obs::Telemetry telemetry;
      telemetry.tracker().SetPlan({{"join", bound}});
      dev->set_tracer(&tracer);
      dev->set_metrics(&registry);
      dev->set_events(&telemetry);
      const QueryResult attached = RunQuery(
          inst, sink, inst.sharded, inst.sharded ? &registry : nullptr);
      telemetry.MarkComplete();
      dev->set_tracer(nullptr);
      dev->set_metrics(nullptr);
      dev->set_events(nullptr);
      ok &= CheckQuery(attached, sink, &attached_expect, &why);
      attached_ms.push_back(attached.wall_ms);
    }

    std::vector<storage::Relation> reduced;
    DecomposedQuery(inst, rec, traced_sink, &counts, &reduced);
    if (traced_sink.rows() != opts.ref.rows ||
        traced_sink.set_digest() != opts.ref.set_digest) {
      why += "decomposed query output differs from reference; ";
      ok = false;
    }
    SortProbe(inst, rec, &counts);
    Line3Probe(reduced, rec, &counts);
    reduced.clear();

    {
      Scope s(&rec, "probe");
      const QueryResult probe = RunQuery(inst, sink, !inst.sharded);
      if (!probe.status.ok() || sink.rows() != opts.ref.rows ||
          sink.set_digest() != opts.ref.set_digest) {
        why += "probe output differs from reference; ";
        ok = false;
      }
      serial_ms.push_back(inst.sharded ? probe.wall_ms : detached.wall_ms);
      sharded_ms.push_back(inst.sharded ? detached.wall_ms : probe.wall_ms);
      replay_ms.push_back(inst.sharded ? detached_replay_ms
                                         : probe.wall_ms - sink.first_row_ms());
      if (q == 0) {
        sharded_report = inst.sharded ? detached.parallel : probe.parallel;
      }
    }
    ++attempted;
    if (!ok) ++failed;
  }
  if (!opts.spans_out.empty() && !WriteSpans(rec, opts.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", opts.spans_out.c_str());
    return 1;
  }
  auto self = SelfTimes(rec, q);
  for (const char* layer : {"reduce", "join", "plan", "emit"}) {
    self[layer].resize(q, 0.0);
  }
  const double reduce_ms = Median(self["reduce"]);
  const double join_ms = Median(self["join"]);
  const double plan_ms = Median(self["plan"]);
  const double emit_ms = Median(self["emit"]);
  const double sort_ms = Median(self["sort"]);
  const double line3_ms = Median(self["line3_todisk"]);
  std::vector<double> decomposed(q);
  for (int i = 0; i < q; ++i) {
    decomposed[i] = self["reduce"][i] + self["join"][i] + self["plan"][i] +
                    self["emit"][i];
  }
  const double serial_p50 = Median(serial_ms);

  const std::uint64_t ios = first_detached.ios;
  auto tag = [&](const char* t) {
    const auto it = first_detached.tag_ios.find(t);
    return it == first_detached.tag_ios.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  std::uint64_t sum_shard = 0;
  for (const parallel::ShardReport& s : sharded_report.per_shard) {
    sum_shard += s.io.total();
  }
  const double rows = static_cast<double>(counts.join_rows);

  correct = correct && failed == 0;
  if (!why.empty()) std::fprintf(stderr, "check failures: %s\n", why.c_str());
  std::printf("workload=%s seed=%" PRIu64 " traced iterations=%d\n",
              opts.workload.c_str(), opts.seed, q);
  PrintResult(
      correct, attempted, failed,
      {{"reduce.ms", reduce_ms, "ms"},
       {"reduce.ios", static_cast<double>(counts.reduce_ios), "count"},
       {"reduce.kept_frac", counts.kept_frac, "fraction"},
       {"sort.ms", sort_ms, "ms"},
       {"sort.ns_per_tuple",
        sort_ms * 1e6 / static_cast<double>(counts.sort_tuples), "ns"},
       {"sort.ios", static_cast<double>(counts.sort_ios), "count"},
       {"sort.merge_passes", static_cast<double>(counts.merge_passes), "count"},
       {"io.scan", tag("scan"), "count"},
       {"io.sort", tag("sort"), "count"},
       {"io.semijoin", tag("semijoin"), "count"},
       {"io.materialize", tag("materialize"), "count"},
       {"io.partition", tag("partition"), "count"},
       {"io.write_frac",
        static_cast<double>(first_detached.writes) / static_cast<double>(ios),
        "fraction"},
       {"gens.io_over_bound",
        static_cast<double>(ios) / static_cast<double>(bound), "ratio"},
       {"plan.ms", plan_ms, "ms"},
       {"plan.calls", static_cast<double>(counts.plan_calls), "count"},
       {"join.ms", join_ms, "ms"},
       {"join.ns_per_row", rows > 0 ? join_ms * 1e6 / rows : 0.0, "ns"},
       {"line3_todisk.ms", line3_ms, "ms"},
       {"line3_todisk.ios", static_cast<double>(counts.line3_ios), "count"},
       {"emit.ns_per_row", rows > 0 ? emit_ms * 1e6 / rows : 0.0, "ns"},
       {"emit.share", emit_ms / Median(decomposed), "fraction"},
       {"parallel.partition_ios",
        static_cast<double>(sharded_report.partition_io.total()), "count"},
       {"parallel.max_shard_ios",
        static_cast<double>(sharded_report.max_shard_ios), "count"},
       {"parallel.imbalance",
        sum_shard > 0 ? static_cast<double>(sharded_report.shards) *
                            static_cast<double>(sharded_report.max_shard_ios) /
                            static_cast<double>(sum_shard)
                      : 0.0,
        "ratio"},
       {"parallel.speedup", serial_p50 / Median(sharded_ms), "ratio"},
       {"parallel.replay_ms", Median(replay_ms), "ms"},
       {"obs.overhead_frac", Median(attached_ms) / Median(detached_ms) - 1.0,
        "fraction"},
       {"trace.coverage", Median(decomposed) / serial_p50, "fraction"}});
  return 0;
}

}  // namespace emjoin::perfbench
