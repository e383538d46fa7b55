// emjoin_export: live-telemetry demo driver + Prometheus conformance
// checker.
//
//   emjoin_export --check-prom=FILE
//       Validates FILE against the Prometheus text exposition format
//       (metrics::CheckPrometheusText). Exit 0 when it conforms, 1 with
//       a line-numbered diagnostic on stderr when it does not, 66 when
//       FILE cannot be read. The CI telemetry smoke job feeds scraped
//       /metrics bodies through this mode.
//
//   emjoin_export [--workload=line3|star] [--n=N] [--petals=K]
//                 [--memory=M] [--block=B] [--loops=L]
//                 [--shards=K] [--workers=W] [--fault-*]
//                 [--export-port=PORT] [--export-linger-ms=MS]
//                 [--recorder=PATH] [--metrics=PATH] ...
//       Runs L loops of (build worst-case instance, join it) with live
//       telemetry attached, serving /metrics, /healthz, /progress, and
//       /events while it works. The phase plan covers every loop, so
//       /progress climbs monotonically across the whole run and ends at
//       exactly 100 — this is the binary the CI smoke job polls. The
//       run options and observer flags are emjoin_cli's (obs/front_end.h),
//       all ten --fault-* flags included; --trace and --audit are usage
//       errors, since the exporter has no bound to audit against.
//
// Exit codes follow the emjoin_cli contract (0 ok, 64 usage, 66 no
// input, 69/70/73/74/75 per typed Status).
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "gens/psi.h"
#include "obs/front_end.h"
#include "parallel/parallel_join.h"
#include "query/hypergraph.h"
#include "trace/tracer.h"
#include "workload/constructions.h"

namespace {

using namespace emjoin;
using obs::kExitUsage;

int Fail(const extmem::Status& status) {
  std::fprintf(stderr, "emjoin_export: %s\n", status.ToString().c_str());
  return obs::ExitCodeFor(status);
}

int CheckPromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "emjoin_export: cannot read %s\n", path.c_str());
    return 66;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string error;
  if (!metrics::CheckPrometheusText(text, &error)) {
    std::fprintf(stderr, "emjoin_export: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: conformant Prometheus exposition (%zu bytes)\n",
              path.c_str(), text.size());
  return 0;
}

struct Options {
  std::string workload = "line3";  // line3 | star
  TupleCount n = 4096;
  std::uint32_t petals = 3;
  TupleCount memory = 1 << 12;
  TupleCount block = 1 << 6;
  int loops = 1;
  parallel::ParallelOptions run;  // --shards, --workers, --fault-*
};

std::uint64_t BlocksFor(TupleCount tuples, TupleCount block) {
  return (tuples + block - 1) / block;
}

int RunWorkload(const Options& opt, obs::FrontEnd* observers) {
  // Analytic phase plan, known before any I/O happens: per loop, the
  // build phase writes the input once, and the join phase is bounded by
  // the Theorem 3 worst case (closed form over sizes/M/B only — the
  // instance-exact PredictBoundExact runs counting oracles that charge
  // I/O, which planning must never do).
  std::vector<TupleCount> sizes;
  query::JoinQuery q;
  if (opt.workload == "line3") {
    sizes = {opt.n, 1, opt.n};
    q = query::JoinQuery::Line(3, sizes);
  } else if (opt.workload == "star") {
    sizes.push_back(1);  // core
    for (std::uint32_t p = 0; p < opt.petals; ++p) sizes.push_back(opt.n);
    q = query::JoinQuery::Star(opt.petals, sizes);
  } else {
    std::fprintf(stderr, "emjoin_export: unknown workload '%s'\n",
                 opt.workload.c_str());
    return kExitUsage;
  }
  std::uint64_t input_blocks = 0;
  for (const TupleCount s : sizes) input_blocks += BlocksFor(s, opt.block);
  long double join_expected =
      gens::PredictBoundWorstCase(q, opt.memory, opt.block).bound;
  if (opt.run.shards > 1) {
    join_expected += 2.0L * static_cast<long double>(input_blocks);
  }
  std::vector<obs::PhasePlan> plan;
  for (int l = 0; l < opt.loops; ++l) {
    plan.push_back({"build", static_cast<long double>(input_blocks)});
    plan.push_back({"join", join_expected});
  }
  observers->telemetry().tracker().SetPlan(std::move(plan));

  if (metrics::Registry* reg = observers->registry()) {
    reg->SetHelp(
        "emjoin_device_io_blocks_total",
        "Block transfers charged to the simulated device, by op and tag");
    reg->SetHelp("emjoin_peak_resident_tuples",
                 "High-water mark of tuples resident in simulated memory");
  }

  for (int l = 0; l < opt.loops; ++l) {
    extmem::Device dev(opt.memory, opt.block);
    observers->Attach(&dev);
    extmem::FaultInjector injector(opt.run.fault_config);
    if (opt.run.faults) dev.set_fault_injector(&injector);

    std::vector<storage::Relation> rels;
    {
      trace::Span build_span(&dev, "build");
      auto built = extmem::CatchStatus([&] {
        return opt.workload == "line3"
                   ? workload::L3WorstCase(&dev, opt.n, 1, opt.n)
                   : workload::StarWorstCase(
                         &dev, std::vector<TupleCount>(sizes.begin() + 1,
                                                       sizes.end()));
      });
      if (!built.ok()) return Fail(built.status());
      rels = *std::move(built);
    }

    std::uint64_t results = 0;
    {
      trace::Span join_span(&dev, "join");
      const auto report = parallel::TryParallelJoinAuto(
          rels, [&results](std::span<const Value>) { ++results; }, opt.run,
          observers->registry());
      if (!report.ok()) return Fail(report.status());
    }

    observers->Collect(dev);
    std::printf("loop %d/%d: %s n=%llu -> %llu results, %s\n", l + 1,
                opt.loops, opt.workload.c_str(),
                (unsigned long long)opt.n, (unsigned long long)results,
                dev.stats().ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  obs::FrontEnd observers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    // A numeric flag's value: a whole-string unsigned integer that fits
    // the option's type.
    const auto number = [&](const char* prefix, auto* dst) {
      using T = std::remove_pointer_t<decltype(dst)>;
      std::uint64_t v = 0;
      if (!obs::ParseU64(value(prefix), &v) ||
          v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        std::fprintf(stderr,
                     "emjoin_export: bad value in %s: expected an unsigned "
                     "integer\n",
                     arg.c_str());
        return false;
      }
      *dst = static_cast<T>(v);
      return true;
    };
    if (arg.rfind("--check-prom=", 0) == 0) {
      return CheckPromFile(value("--check-prom="));
    }
    int consumed = observers.ParseFlag(arg);
    if (consumed == 0) consumed = obs::ParseRunOption(arg, &opt.run);
    if (consumed < 0) return kExitUsage;
    if (consumed > 0) continue;
    if (arg.rfind("--workload=", 0) == 0) {
      opt.workload = value("--workload=");
    } else if (arg.rfind("--n=", 0) == 0) {
      if (!number("--n=", &opt.n)) return kExitUsage;
    } else if (arg.rfind("--petals=", 0) == 0) {
      if (!number("--petals=", &opt.petals)) return kExitUsage;
    } else if (arg.rfind("--memory=", 0) == 0) {
      if (!number("--memory=", &opt.memory)) return kExitUsage;
    } else if (arg.rfind("--block=", 0) == 0) {
      if (!number("--block=", &opt.block)) return kExitUsage;
    } else if (arg.rfind("--loops=", 0) == 0) {
      if (!number("--loops=", &opt.loops)) return kExitUsage;
    } else {
      std::fprintf(stderr,
                   "emjoin_export: unknown flag %s\n"
                   "usage: emjoin_export --check-prom=FILE | emjoin_export "
                   "[--workload=line3|star] [--n=N] [--petals=K] "
                   "[--memory=M] [--block=B] [--loops=L] [--shards=K] "
                   "[--workers=W] [--fault-*] [--export-port=PORT] "
                   "[--export-linger-ms=MS] [--recorder=PATH] "
                   "[--metrics=PATH]\n",
                   arg.c_str());
      return kExitUsage;
    }
  }
  // The exporter joins synthetic instances with no bound to audit
  // against, and its devices carry no tracer.
  if (observers.tracing() || observers.auditing()) {
    std::fprintf(stderr,
                 "emjoin_export: --trace and --audit are not supported\n");
    return kExitUsage;
  }
  if (opt.loops < 1 || opt.block < 1 || opt.block > opt.memory ||
      opt.n == 0 || opt.petals == 0) {
    std::fprintf(stderr,
                 "emjoin_export: require loops >= 1, n >= 1, petals >= 1, "
                 "1 <= block <= memory\n");
    return kExitUsage;
  }
  if (const int code = observers.Start(); code != 0) return code;
  return observers.Finish(RunWorkload(opt, &observers));
}
