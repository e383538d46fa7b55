// Experiment E9 (§1.2): the emit-model gap of Yannakakis' algorithm.
// Claim: writing intermediate results makes Yannakakis Õ(|Q(R)|/B) while
// the emit-model optimum is Õ(|Q(R)|/(MB)) — a factor-M gap that widens
// linearly as M grows.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "core/yannakakis.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

void RunTwoRelations() {
  bench::Banner("E9a Yannakakis vs AcyclicJoin, 2-relation cross product",
                "paper §1.2: Yannakakis is worse by a factor M in the emit "
                "model; the gap must scale ~linearly with M");
  bench::Table table({"N", "M", "B", "yann_io", "acyclic_io", "gap",
                      "gap/M"});
  const TupleCount n = 1024, b = 8;
  for (TupleCount m : {16, 32, 64, 128, 256}) {
    extmem::Device dev_y(m, b), dev_a(m, b);
    auto make = [&](extmem::Device* dev) {
      return std::vector<storage::Relation>{
          workload::ManyToOne(dev, 0, 1, n, 1),
          workload::OneToMany(dev, 1, 2, n, 1)};
    };
    const auto rels_y = make(&dev_y);
    const auto rels_a = make(&dev_a);
    const bench::Measured yann = bench::MeasureJoin(&dev_y, [&](auto emit) {
      core::YannakakisJoin(rels_y, emit);
    });
    const bench::Measured acyc = bench::MeasureJoin(&dev_a, [&](auto emit) {
      core::AcyclicJoin(rels_a, emit);
    });
    const double gap = static_cast<double>(yann.ios) / acyc.ios;
    table.AddRow({bench::U(n), bench::U(m), bench::U(b), bench::U(yann.ios),
                  bench::U(acyc.ios), bench::F(gap), bench::F(gap / m)});
  }
  table.Print();
}

void RunLine3() {
  bench::Banner("E9b Yannakakis vs Algorithm 2 on the L3 worst case",
                "the optimality gap persists beyond two relations: the "
                "pairwise framework cannot be I/O-optimal (§1)");
  bench::Table table({"N", "M", "intermediate_tuples", "yann_io",
                      "acyclic_io", "gap"});
  const TupleCount b = 8;
  for (const auto& [n, m] : std::vector<std::pair<TupleCount, TupleCount>>{
           {512, 32}, {1024, 32}, {1024, 64}, {2048, 64}, {2048, 128}}) {
    extmem::Device dev_y(m, b), dev_a(m, b);
    const auto rels_y = workload::L3WorstCase(&dev_y, n, 1, n);
    const auto rels_a = workload::L3WorstCase(&dev_a, n, 1, n);
    core::YannakakisReport yr;
    const bench::Measured yann = bench::MeasureJoin(&dev_y, [&](auto emit) {
      yr = core::YannakakisJoin(rels_y, emit);
    });
    const bench::Measured acyc = bench::MeasureJoin(&dev_a, [&](auto emit) {
      core::AcyclicJoin(rels_a, emit);
    });
    table.AddRow({bench::U(n), bench::U(m), bench::U(yr.intermediate_tuples),
                  bench::U(yann.ios), bench::U(acyc.ios),
                  bench::F(static_cast<double>(yann.ios) / acyc.ios)});
  }
  table.Print();
  std::printf(
      "\nShape check: gap/M is roughly constant in E9a (factor-M gap);\n"
      "in E9b Yannakakis' cost follows its intermediate size N^2/B.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "yannakakis_gap")) return 2;
  emjoin::RunTwoRelations();
  emjoin::RunLine3();
  return emjoin::bench::FinishBench();
}
