// Experiment T1.4 (Corollary 2 / Theorem 5): balanced L5.
// Claim: Algorithm 2's cost is the max of the independent-subset terms
// Õ(N1N3N5/(M^2 B) + N2N5/(MB) + N1N4/(MB) + N2N4/(MB)), optimal on
// balanced instances; on the alternating cross-product instance the
// N1N3N5 term dominates.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void Run() {
  bench::Banner("T1.4 balanced L5 on the Theorem 5 cross-product instance",
                "paper: Õ(N1N3N5/(M^2 B)) dominates on z = (1,N,1,N,1,N); "
                "measured I/O must track it across N and M");
  bench::Table table({"N", "M", "B", "results", "measured_io",
                      "N^3/M^2B", "theorem3_bound", "io/bound"});
  for (const auto& [n, m, b] :
       std::vector<std::tuple<TupleCount, TupleCount, TupleCount>>{
           {64, 32, 8},
           {96, 32, 8},
           {128, 32, 8},
           {160, 32, 8},
           {128, 64, 8},
           {128, 128, 8},
           {128, 64, 16}}) {
    extmem::Device dev(m, b);
    const auto rels = workload::CrossProductLine(&dev, {1, n, 1, n, 1, n});
    const double bound = bench::TheoremBound(rels, dev);
    const bench::Measured meas = bench::MeasureJoin(
        &dev, [&](auto emit) { core::AcyclicJoin(rels, emit); });
    const double headline =
        static_cast<double>(n) * n * n / (static_cast<double>(m) * m * b);
    table.AddRow({bench::U(n), bench::U(m), bench::U(b),
                  bench::U(meas.results), bench::U(meas.ios),
                  bench::F(headline), bench::F(bound),
                  bench::F(meas.ios / bound)});
  }
  table.Print();
  std::printf(
      "\nShape check: results = N^3 and I/O grows cubically in N while\n"
      "dropping quadratically in M — the N1N3N5/(M^2 B) signature.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_line5")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
