// emjoin command-line tool.
//
//   emjoin_cli join [--memory M] [--block B] [--print] [--algo auto|yann]
//              [--shards=K] [--workers=W]
//              [--stats] [--trace[=PATH]] [--trace-format=tree|jsonl|chrome]
//              [--metrics=PATH] [--metrics-format=json|prom] [--audit=PATH]
//              [--export-port=PORT] [--export-linger-ms=MS]
//              [--recorder=PATH]
//              [--fault-seed=N] [--fault-read=P] [--fault-write=P]
//              [--fault-torn=P] [--fault-capacity=BLOCKS]
//              [--fault-shrink-at=IOS[,IOS...]] [--fault-shrink-every-poll]
//              [--fault-retries=K] [--fault-adaptive-retry]
//              [--fault-kill-at=IOS] [--resume=MANIFEST]
//              "attr1,attr2=path.csv" ...
//       Loads CSV relations (unsigned integer columns; attributes are
//       matched by name across relations), runs the optimal join, and
//       reports result count and I/O statistics. --stats adds the per-tag
//       I/O breakdown and the peak-memory gauge; --trace records a span
//       tree of the run (tree report to stdout or PATH; jsonl / chrome
//       formats require a PATH, the latter loads in Perfetto).
//       --metrics exports the process metrics registry (counters,
//       gauges, log-bucketed histograms) as JSON or Prometheus text;
//       --audit writes a one-row measured-vs-Theorem-3 audit of the
//       join in the bench_diff-gateable shape. The
//       --fault-* flags attach a seeded fault injector to the device
//       (see docs/ROBUSTNESS.md); a run that cannot recover exits with
//       the code for its typed error. --fault-kill-at interrupts the
//       run at a virtual-I/O tick (exit 74); --resume=MANIFEST journals
//       the query through a QueryManifest persisted at MANIFEST on
//       every exit path — rerunning with the same --resume after an
//       interrupted run resumes it, replaying the full output set
//       exactly once (see docs/ROBUSTNESS.md). --export-port serves live
//       /metrics, /healthz, /progress, and /events over HTTP for the
//       duration of the run (plus --export-linger-ms for one final
//       scrape); --recorder dumps the flight-recorder event log as
//       JSONL on exit, success or failure (see docs/OBSERVABILITY.md).
//       The observer flags and the --shards/--workers/--fault-* run
//       options are parsed by obs/front_end.h, shared with emjoin_export
//       and the benches; a malformed value is a usage error (64).
//
//   emjoin_cli plan [--memory M] [--block B] "attr1,attr2:SIZE" ...
//       No data: prints the query classification, GenS families and the
//       Theorem 3 worst-case bound for the given relation sizes.
//
//   emjoin_cli demo
//       Runs the built-in Figure 3 worst case end to end.
//
// Exit codes (one failure class each, always with a one-line stderr
// diagnostic; obs::ExitCodeFor is the map):
//   0   success
//   64  usage error (unknown flag/command, malformed argument syntax)
//   65  bad input data (CSV parse error, bad schema, non-acyclic query)
//   66  input file missing or unreadable
//   69  simulated device full
//   70  internal error
//   73  unrecoverable torn write (data loss)
//   74  I/O fault retries exhausted
//   75  enforced memory budget exceeded
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/yannakakis.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "gens/gens.h"
#include "gens/psi.h"
#include "obs/front_end.h"
#include "obs/progress.h"
#include "parallel/parallel_join.h"
#include "query/classify.h"
#include "recover/manifest.h"
#include "storage/csv.h"
#include "trace/tracer.h"
#include "workload/constructions.h"

namespace {

using namespace emjoin;
using obs::kExitUsage;

// One-line stderr diagnostic + mapped exit code.
int Fail(const extmem::Status& status) {
  std::fprintf(stderr, "emjoin_cli: %s\n", status.ToString().c_str());
  return obs::ExitCodeFor(status);
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr, "emjoin_cli: usage: %s\n", message.c_str());
  return kExitUsage;
}

struct CommonFlags {
  TupleCount memory = 1 << 16;
  TupleCount block = 1 << 10;
  bool print = false;
  bool stats = false;
  std::string algo = "auto";
  parallel::ParallelOptions run;  // --shards, --workers, --fault-*
  std::string resume_path;        // empty: no manifest
  std::vector<std::string> positional;
};

// Returns 0 on success, else the exit code for the flag error.
int ParseFlags(int argc, char** argv, int start, CommonFlags* out,
               obs::FrontEnd* observers) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    // A size flag's value: a whole-string unsigned integer.
    auto next = [&](TupleCount* dst) {
      if (i + 1 >= argc) return FailUsage("missing value after " + arg);
      const std::string value = argv[++i];
      if (!obs::ParseU64(value, dst)) {
        return FailUsage("bad value '" + value + "' after " + arg +
                         ": expected an unsigned integer");
      }
      return 0;
    };
    int consumed = observers->ParseFlag(arg);
    if (consumed == 0) consumed = obs::ParseRunOption(arg, &out->run);
    if (consumed < 0) return kExitUsage;
    if (consumed > 0) continue;
    if (arg == "--memory") {
      if (const int code = next(&out->memory); code != 0) return code;
    } else if (arg == "--block") {
      if (const int code = next(&out->block); code != 0) return code;
    } else if (arg == "--print") {
      out->print = true;
    } else if (arg == "--stats") {
      out->stats = true;
    } else if (arg == "--algo") {
      if (i + 1 >= argc) return FailUsage("missing value after --algo");
      out->algo = argv[++i];
    } else if (arg.rfind("--resume=", 0) == 0) {
      out->resume_path = arg.substr(std::strlen("--resume="));
      if (out->resume_path.empty()) {
        return FailUsage("--resume requires a manifest path");
      }
    } else if (arg.rfind("--", 0) == 0) {
      return FailUsage("unknown flag " + arg);
    } else {
      out->positional.push_back(arg);
    }
  }
  if (out->block < 1 || out->block > out->memory) {
    return FailUsage("require 1 <= block <= memory");
  }
  return 0;
}

int CmdJoin(const CommonFlags& flags, obs::FrontEnd* observers) {
  extmem::Device dev(flags.memory, flags.block);
  observers->Attach(&dev);
  extmem::FaultInjector injector(flags.run.fault_config);
  if (flags.run.faults) dev.set_fault_injector(&injector);

  std::vector<std::string> names;
  std::vector<storage::Relation> rels;

  {
    trace::Span load_span(&dev, "load");
    for (const std::string& spec : flags.positional) {
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return FailUsage("expected 'attrs=path.csv', got '" + spec + "'");
      }
      auto schema = storage::ParseSchemaSpec(spec.substr(0, eq), &names);
      if (!schema.ok()) return Fail(schema.status());
      auto rel = storage::RelationFromCsvFile(&dev, *std::move(schema),
                                              spec.substr(eq + 1));
      if (!rel.ok()) return Fail(rel.status());
      std::printf("loaded %s: %llu tuples\n", spec.c_str(),
                  (unsigned long long)rel->size());
      rels.push_back(*std::move(rel));
    }
  }
  if (rels.empty()) return FailUsage("no relations given");

  if (observers->telemetry_enabled()) {
    if (const auto expected = obs::PlannedJoinIos(rels, flags.run.shards)) {
      observers->telemetry().tracker().SetPlan({{"join", *expected}});
    }
  }

  const core::ResultSchema schema = core::MakeResultSchema(rels);
  std::printf("result schema:");
  for (storage::AttrId a : schema.attrs) {
    std::printf(" %s", names[a].c_str());
  }
  std::printf("\n");

  // Whole-query resume: load the manifest if it exists (a missing file
  // just means a fresh run), bind it to this query before any of its
  // rows are printed, and persist it after the join on every exit path —
  // success or typed failure — so the next invocation with the same
  // --resume picks up exactly where this one stopped.
  recover::QueryManifest manifest;
  const bool resuming = !flags.resume_path.empty();
  if (resuming) {
    const extmem::Status s = manifest.ReadFrom(flags.resume_path);
    if (s.ok()) {
      std::printf("manifest:  loaded %s (%llu rows journaled)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)manifest.journal().rows());
    } else if (s.code() != extmem::StatusCode::kNotFound) {
      return Fail(s);
    }
    if (flags.algo == "yann") {
      return FailUsage("--resume requires --algo auto");
    }
    if (const extmem::Status bound = manifest.Bind(rels, flags.run.shards);
        !bound.ok()) {
      return Fail(bound);
    }
  }

  std::uint64_t count = 0;
  const auto emit = [&](std::span<const Value> row) {
    ++count;
    if (flags.print) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf(i == 0 ? "%llu" : ",%llu", (unsigned long long)row[i]);
      }
      std::printf("\n");
    }
  };

  const extmem::IoStats join_before = dev.stats();
  extmem::Status join_status = extmem::Status::Ok();
  {
    // Scoped so the planned "join" phase closes before the audit path's
    // counting-oracle I/O (which runs outside the measured window).
    trace::Span join_span(&dev, "join");
    if (flags.algo == "yann") {
      if (flags.run.shards > 1) {
        return FailUsage("--shards requires --algo auto");
      }
      const auto report = core::TryYannakakisJoin(rels, emit);
      if (!report.ok()) return Fail(report.status());
      std::printf("algorithm: Yannakakis (baseline)\n");
    } else {
      parallel::ParallelOptions poptions = flags.run;
      if (resuming) {
        poptions.manifest = &manifest;
        // The CLI's output is the terminal sink: print the rows earlier
        // attempts delivered, then this attempt's remainder, so the
        // printed output is the full result set.
        manifest.journal().ReplayInto(emit);
      }
      const auto report = parallel::TryParallelJoinAuto(
          rels, emit, poptions, observers->registry());
      if (!report.ok()) {
        join_status = report.status();
      } else {
        std::printf("algorithm: %s (%s)\n",
                    report->auto_report.algorithm.c_str(),
                    report->auto_report.reason.c_str());
        if (report->sharded) {
          std::printf("shards:    %u x %s, %u workers; critical path %llu "
                      "I/Os, total %llu\n",
                      report->shards, names[report->partition_attr].c_str(),
                      report->workers,
                      (unsigned long long)report->max_shard_ios,
                      (unsigned long long)report->sum_shard_ios);
        }
        if (flags.stats) {
          for (std::size_t s = 0; s < report->per_shard.size(); ++s) {
            const parallel::ShardReport& sr = report->per_shard[s];
            std::printf("shard %zu:   %s, results=%llu, peak mem %llu "
                        "tuples (%s)\n",
                        s, sr.io.ToString().c_str(),
                        (unsigned long long)sr.results,
                        (unsigned long long)sr.peak_resident,
                        sr.report.algorithm.c_str());
          }
        }
      }
    }
  }
  if (resuming) {
    // Persist on success AND typed failure: the manifest written after
    // an interrupted run is what the next invocation resumes from.
    if (const extmem::Status s = manifest.WriteTo(flags.resume_path);
        !s.ok()) {
      if (join_status.ok()) return Fail(s);
      std::fprintf(stderr, "emjoin_cli: %s\n", s.ToString().c_str());
    } else {
      std::printf("manifest:  wrote %s (%llu rows journaled)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)manifest.journal().rows());
    }
  }
  if (!join_status.ok()) return Fail(join_status);
  std::printf("results:   %llu\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  if (flags.run.faults) {
    std::printf("faults:    %s\n", injector.Describe().c_str());
  }
  if (flags.stats) {
    std::printf("breakdown: %s\n", dev.TagReport().c_str());
    std::printf("peak mem:  %llu tuples (M = %llu)\n",
                (unsigned long long)dev.gauge().high_water(),
                (unsigned long long)dev.M());
  }
  const std::uint64_t join_ios = (dev.stats() - join_before).total();
  observers->Collect(dev);
  if (observers->auditing()) {
    // One-row audit of this join against the instance-exact Theorem 3
    // bound. The bound's counting oracles run after the measured window
    // and detached from the registry, so they never pollute the run's
    // numbers.
    dev.set_metrics(nullptr);
    query::JoinQuery q;
    for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
    const long double bound =
        gens::PredictBoundExact(q, rels, dev.M(), dev.B()).bound;
    observers->AddAuditRow({"cli_join|M=" + std::to_string(dev.M()) +
                                "|B=" + std::to_string(dev.B()),
                            join_ios, bound});
  }
  return 0;
}

int CmdPlan(const CommonFlags& flags) {
  std::vector<std::string> names;
  query::JoinQuery q;
  for (const std::string& spec : flags.positional) {
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      return FailUsage("expected 'attrs:SIZE', got '" + spec + "'");
    }
    auto schema = storage::ParseSchemaSpec(spec.substr(0, colon), &names);
    if (!schema.ok()) return Fail(schema.status());
    TupleCount size = 0;
    if (!obs::ParseU64(spec.substr(colon + 1), &size)) {
      return FailUsage("bad size in '" + spec +
                       "': expected an unsigned integer");
    }
    if (size == 0) {
      return Fail(extmem::Status(extmem::StatusCode::kInvalidInput,
                                 "bad size in '" + spec + "'"));
    }
    q.AddRelation(*schema, size);
  }
  if (q.num_edges() == 0) return FailUsage("no relations given");
  if (!q.IsBergeAcyclic()) {
    return Fail(extmem::Status(extmem::StatusCode::kInvalidInput,
                               "query is not Berge-acyclic; only acyclic "
                               "joins are supported"));
  }

  std::printf("query: %s\n", q.ToString().c_str());
  std::printf("roles:");
  for (query::EdgeId e = 0; e < q.num_edges(); ++e) {
    const char* kind = "internal";
    switch (query::ClassifyEdge(q, e)) {
      case query::EdgeKind::kIsland: kind = "island"; break;
      case query::EdgeKind::kBud: kind = "bud"; break;
      case query::EdgeKind::kLeaf: kind = "leaf"; break;
      case query::EdgeKind::kInternal: kind = "internal"; break;
    }
    std::printf(" R%u=%s", e, kind);
  }
  std::printf("\n");

  const auto families = gens::GenSFamilies(q);
  std::printf("GenS(Q): %zu minimal families\n", families.size());
  const gens::BoundReport report =
      gens::PredictBoundWorstCase(q, flags.memory, flags.block);
  std::printf("Theorem 3 worst-case bound (M=%llu, B=%llu): %.1Lf I/Os\n",
              (unsigned long long)flags.memory,
              (unsigned long long)flags.block, report.bound);
  std::printf("dominant terms:\n");
  for (std::size_t i = 0; i < report.terms.size() && i < 5; ++i) {
    std::printf("  psi(%s) = %.1Lf\n",
                gens::FamilyToString({report.terms[i].first}).c_str(),
                report.terms[i].second);
  }
  return 0;
}

int CmdDemo() {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 1024, 1, 1024);
  std::uint64_t count = 0;
  const auto report =
      core::TryJoinAuto(rels, [&](std::span<const Value>) { ++count; });
  if (!report.ok()) return Fail(report.status());
  std::printf("demo: Figure 3 L3 worst case, N = 1024, M = 256, B = 16\n");
  std::printf("algorithm: %s\n", report->algorithm.c_str());
  std::printf("results:   %llu (= N^2)\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  std::printf("breakdown: %s\n", dev.TagReport().c_str());
  std::printf("bound:     N^2/(MB) = %.0f\n",
              1024.0 * 1024.0 / (dev.M() * dev.B()));
  return 0;
}

int Usage() {
  return FailUsage(
      "emjoin_cli join [--memory M] [--block B] [--print] "
      "[--algo auto|yann] [--shards=K] [--workers=W] "
      "[--export-port=PORT] [--recorder=PATH] "
      "[--fault-seed=N ...] [--fault-kill-at=IOS] [--resume=MANIFEST] "
      "attrs=file.csv ... | "
      "emjoin_cli plan [--memory M] [--block B] attrs:SIZE ... | "
      "emjoin_cli demo");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  CommonFlags flags;
  obs::FrontEnd observers;
  if (const int code = ParseFlags(argc, argv, 2, &flags, &observers);
      code != 0) {
    return code;
  }
  if (cmd == "join") {
    if (const int code = observers.Start(); code != 0) return code;
    // Finish runs on every exit path so a failed run still dumps its
    // flight recorder and serves one last /progress.
    return observers.Finish(CmdJoin(flags, &observers));
  }
  if (cmd == "plan") return CmdPlan(flags);
  if (cmd == "demo") return CmdDemo();
  return Usage();
}
