// Experiment T1.8 (Theorem 7): acyclic joins with equal relation sizes.
// Claim: with N(e) = N for all e and minimum edge cover number c, the
// cost is Õ((N/M)^c · M/B), optimal via the vertex-packing instance.
#include <cmath>

#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "query/edge_cover.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void RunShape(const std::string& name, const query::JoinQuery& q,
              const std::vector<TupleCount>& ns, TupleCount m, TupleCount b,
              bench::Table* table) {
  const std::size_t c = query::GreedyMinEdgeCover(q).size();
  double prev_io = 0, prev_n = 0;
  for (TupleCount n : ns) {
    extmem::Device dev(m, b);
    const auto rels = workload::EqualSizeWorstCase(&dev, q, n);
    const bench::Measured meas = bench::MeasureJoin(
        &dev, [&](auto emit) { core::AcyclicJoin(rels, emit); });
    const double bound =
        std::pow(static_cast<double>(n) / m, static_cast<double>(c)) * m / b +
        static_cast<double>(q.num_edges()) * n / b;
    std::string exponent = "-";
    if (prev_io > 0) {
      exponent = bench::F(std::log(meas.ios / prev_io) /
                          std::log(static_cast<double>(n) / prev_n));
    }
    table->AddRow({name, bench::U(c), bench::U(n), bench::U(m),
                   bench::U(meas.results), bench::U(meas.ios),
                   bench::F(bound), bench::F(meas.ios / bound), exponent});
    prev_io = static_cast<double>(meas.ios);
    prev_n = static_cast<double>(n);
  }
}

void Run() {
  bench::Banner("T1.8 equal-size acyclic joins (Theorem 7)",
                "paper: Õ((N/M)^c · M/B) where c = minimum edge cover "
                "number; the measured growth exponent in N must approach c");
  bench::Table table({"query", "c", "N", "M", "results", "measured_io",
                      "(N/M)^c*M/B", "io/bound", "growth_exp"});
  const TupleCount m = 32, b = 8;
  RunShape("L3", query::JoinQuery::Line(3), {256, 512, 1024}, m, b, &table);
  RunShape("L5", query::JoinQuery::Line(5), {64, 128, 256}, m, b, &table);
  RunShape("star3", query::JoinQuery::Star(3), {64, 128, 256}, m, b, &table);
  RunShape("lollipop2", query::JoinQuery::Lollipop(2), {64, 128, 256}, m, b,
           &table);
  table.Print();
  std::printf(
      "\nShape check: growth_exp approaches c for each query class and\n"
      "the io/bound ratio stays in one constant band.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_equal_size"))
    return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
