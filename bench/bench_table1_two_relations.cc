// Experiment T1.1 (Table 1, row 1): two-relation join.
// Claim: worst-case I/O is Θ(N1·N2 / (M·B)); block nested loop achieves
// it, and the §3 hybrid is additionally instance-optimal.
#include "bench/bench_util.h"
#include "core/pairwise.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void RunWorstCase() {
  bench::Banner("T1.1 two-relation join, worst case (cross product)",
                "paper: N1*N2/(MB) I/Os, worst-case optimal (trivial row "
                "of Table 1)");
  bench::Table table({"N", "M", "B", "results", "measured_io", "N1N2/MB",
                      "ratio"});
  for (const auto& [n, m, b] :
       std::vector<std::tuple<TupleCount, TupleCount, TupleCount>>{
           {1024, 128, 16},
           {2048, 128, 16},
           {4096, 128, 16},
           {2048, 256, 16},
           {2048, 512, 16},
           {2048, 256, 32},
           {2048, 256, 64}}) {
    extmem::Device dev(m, b);
    // dom(v2) = {0}: every pair joins.
    const storage::Relation r1 = workload::ManyToOne(&dev, 0, 1, n, 1);
    const storage::Relation r2 = workload::OneToMany(&dev, 1, 2, n, 1);
    core::Assignment assignment(core::MakeResultSchema({r1, r2}));
    const bench::Measured meas = bench::MeasureJoin(&dev, [&](auto emit) {
      core::BlockNestedLoopJoin(r1, r2, &assignment, emit);
    });
    const double bound = static_cast<double>(n) * n / (m * b);
    table.AddRow({bench::U(n), bench::U(m), bench::U(b),
                  bench::U(meas.results), bench::U(meas.ios),
                  bench::F(bound), bench::F(meas.ios / bound)});
  }
  table.Print();
}

void RunInstanceOptimal() {
  bench::Banner(
      "T1.1b two-relation hybrid join on a sparse instance (§3)",
      "paper: Õ(Σ_a N1|a·N2|a/(MB) + N/B) — on a matching instance the "
      "join degenerates to a scan while nested loop still pays N1*N2/MB");
  bench::Table table(
      {"N", "M", "B", "results", "hybrid_io", "nl_io", "nl/hybrid"});
  for (TupleCount n : {1024, 4096, 16384}) {
    const TupleCount m = 256, b = 16;
    extmem::Device dev(m, b);
    const storage::Relation r1 = workload::Matching(&dev, 0, 1, n);
    const storage::Relation r2 = workload::Matching(&dev, 1, 2, n);
    core::Assignment a1(core::MakeResultSchema({r1, r2}));
    const bench::Measured hybrid = bench::MeasureJoin(&dev, [&](auto emit) {
      core::SortMergeJoin(r1, r2, &a1, emit);
    });
    core::Assignment a2(core::MakeResultSchema({r1, r2}));
    const bench::Measured nl = bench::MeasureJoin(&dev, [&](auto emit) {
      core::BlockNestedLoopJoin(r1, r2, &a2, emit);
    });
    table.AddRow({bench::U(n), bench::U(m), bench::U(b),
                  bench::U(hybrid.results), bench::U(hybrid.ios),
                  bench::U(nl.ios),
                  bench::F(static_cast<double>(nl.ios) / hybrid.ios)});
  }
  table.Print();
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_two_relations"))
    return 2;
  emjoin::RunWorstCase();
  emjoin::RunInstanceOptimal();
  return emjoin::bench::FinishBench();
}
