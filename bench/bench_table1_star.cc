// Experiment T1.7 (Theorem 4): star joins.
// Claim: Algorithm 2 is worst-case optimal on any star; on the Theorem 4
// instance the partial join on the petals forces Õ(Π N_i / (M^{n-1} B)),
// and the measured I/O tracks that bound as petal count and sizes grow.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void Run() {
  bench::Banner("T1.7 star join T_n on the Theorem 4 instance",
                "paper: Õ(Π_i N_i / (M^{n-1} B) + ΣN/B), optimal for "
                "every star join");
  bench::Table table({"petals", "N_i", "M", "B", "results", "measured_io",
                      "prod/M^(n-1)B", "io/bound"});
  for (const auto& [petals, n, m] :
       std::vector<std::tuple<std::uint32_t, TupleCount, TupleCount>>{
           {2, 512, 64},
           {2, 1024, 64},
           {3, 128, 64},
           {3, 192, 64},
           {3, 128, 32},
           {4, 48, 32},
           {4, 64, 32},
           {5, 24, 16}}) {
    const TupleCount b = 8;
    extmem::Device dev(m, b);
    const auto rels =
        workload::StarWorstCase(&dev, std::vector<TupleCount>(petals, n));
    double bound = 1.0;
    for (std::uint32_t i = 0; i < petals; ++i) {
      bound *= static_cast<double>(n);
    }
    for (std::uint32_t i = 0; i + 1 < petals; ++i) {
      bound /= static_cast<double>(m);
    }
    bound /= static_cast<double>(b);
    bound += static_cast<double>(petals) * n / b;  // linear term
    const bench::Measured meas = bench::MeasureJoin(
        &dev, [&](auto emit) { core::AcyclicJoin(rels, emit); },
        bench::InternSpanName("star p=" + std::to_string(petals)), bound, n);
    table.AddRow({bench::U(petals), bench::U(n), bench::U(m), bench::U(b),
                  bench::U(meas.results), bench::U(meas.ios),
                  bench::F(bound), bench::F(meas.ios / bound)});
  }
  table.Print();
  std::printf(
      "\nShape check: the ratio column stays within one constant band\n"
      "while petals and sizes vary — Π N_i / (M^{n-1} B) is the cost.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_star")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
