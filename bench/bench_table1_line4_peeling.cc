// Experiment T1.3 (§4.1, §4.4): L4 peeling-strategy ablation.
// Claim: the two peel orders of Algorithm 2 on L4 cost Õ(N1*N3*N4/(M^2 B))
// vs Õ(N1*N2*N4/(M^2 B)); a smart algorithm compares N2 with N3 (here:
// where the instance's subjoin mass actually is) and takes the min.
#include "bench/bench_util.h"
#include <cmath>

#include "gens/planner.h"
#include "query/edge_cover.h"
#include "core/acyclic_join.h"
#include "tests/test_util.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

// Skewed L4: R2 concentrated on one v2 value makes R1 ⋈ R2 quadratic, so
// branches that keep {e1,e2} in one subjoin with e4 pay for it.
std::vector<storage::Relation> SkewedL4(extmem::Device* dev, TupleCount n,
                                        bool skew_left) {
  std::vector<storage::Tuple> e1, e2, e3, e4;
  if (skew_left) {
    for (Value i = 0; i < n; ++i) e1.push_back({i, 0});
    for (Value j = 0; j < n; ++j) e2.push_back({0, j});
    for (Value j = 0; j < n; ++j) e3.push_back({j, j});
    for (Value j = 0; j < n; ++j) e4.push_back({j, j});
  } else {
    for (Value j = 0; j < n; ++j) e1.push_back({j, j});
    for (Value j = 0; j < n; ++j) e2.push_back({j, j});
    for (Value j = 0; j < n; ++j) e3.push_back({j, 0});
    for (Value i = 0; i < n; ++i) e4.push_back({0, i});
  }
  return {test::MakeRel(dev, {0, 1}, e1), test::MakeRel(dev, {1, 2}, e2),
          test::MakeRel(dev, {2, 3}, e3), test::MakeRel(dev, {3, 4}, e4)};
}

gens::LeafChooser ForceEdge(bool lowest) {
  return [lowest](const query::JoinQuery&,
                  const std::vector<storage::Relation>&,
                  const std::vector<query::EdgeId>& candidates) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      const bool better = lowest ? candidates[i] < candidates[best]
                                 : candidates[i] > candidates[best];
      if (better) best = i;
    }
    return best;
  };
}

bench::Measured RunWith(extmem::Device* dev,
                        const std::vector<storage::Relation>& rels,
                        gens::LeafChooser chooser) {
  return bench::MeasureJoin(dev, [&](auto emit) {
    core::AcyclicJoinOptions opts;
    opts.leaf_chooser = std::move(chooser);
    core::AcyclicJoin(rels, emit, opts);
  });
}

// Per-branch bound with the paper's accounting: per-component AGM
// numerators (ignoring cross-relation reduction constraints).
long double PsiAgm(const query::JoinQuery& q, const gens::EdgeSet& subset,
                   TupleCount m, TupleCount b) {
  if (subset.empty()) return 0.0L;
  long double numerator = 1.0L;
  for (const auto& component : q.ConnectedComponents(subset)) {
    query::JoinQuery sub;
    for (query::EdgeId e : component) sub.AddRelation(q.edge(e), q.size(e));
    numerator *= query::AgmBound(sub);
  }
  long double denom = static_cast<long double>(b);
  for (std::size_t i = 1; i < subset.size(); ++i) denom *= m;
  return numerator / denom;
}

long double AgmBranchBound(const query::JoinQuery& q, query::EdgeId leaf,
                           TupleCount m, TupleCount b) {
  long double best = -1.0L;
  for (const auto& family : gens::GenSFamiliesFirstPeel(q, leaf)) {
    long double mx = 0.0L;
    for (const auto& s : family) mx = std::max(mx, PsiAgm(q, s, m, b));
    if (best < 0.0L || mx < best) best = mx;
  }
  return best;
}

void PrintBranchBounds() {
  bench::Banner(
      "T1.3a L4 per-branch worst-case bounds (§4.4)",
      "paper: peel-{e1,e2}-first is bounded by subjoin {e1,e3,e4} -> "
      "N1N3N4/(M^2 B); peel-{e3,e4}-first by {e1,e2,e4} -> N1N2N4/(M^2 B);"
      " a smart algorithm compares N2 with N3 and takes the min");
  bench::Table table({"N1..N4", "M", "B", "agm_bound_e1", "agm_bound_e4",
                      "agm_min_is", "lp_bound_e1", "lp_bound_e4"});
  const TupleCount m = 64, b = 8;
  for (const auto& sizes : std::vector<std::vector<TupleCount>>{
           {1024, 4096, 1024, 1024},
           {1024, 1024, 4096, 1024},
           {1024, 16384, 1024, 1024},
           {1024, 1024, 1024, 1024}}) {
    const query::JoinQuery q = query::JoinQuery::Line(4, sizes);
    const double agm_e1 = static_cast<double>(AgmBranchBound(q, 0, m, b));
    const double agm_e4 = static_cast<double>(AgmBranchBound(q, 3, m, b));
    const double lp_e1 =
        static_cast<double>(gens::BoundIfPeeledFirst(q, 0, m, b));
    const double lp_e4 =
        static_cast<double>(gens::BoundIfPeeledFirst(q, 3, m, b));
    table.AddRow({bench::U(sizes[0]) + "," + bench::U(sizes[1]) + "," +
                      bench::U(sizes[2]) + "," + bench::U(sizes[3]),
                  bench::U(m), bench::U(b), bench::F(agm_e1),
                  bench::F(agm_e4),
                  agm_e1 < agm_e4   ? "peel e1 side"
                  : agm_e4 < agm_e1 ? "peel e4 side"
                                    : "tie",
                  bench::F(lp_e1), bench::F(lp_e4)});
  }
  table.Print();
  std::printf(
      "\nNote: under the paper's AGM accounting the cheaper side follows\n"
      "the N2-vs-N3 rule; under the tighter cross-product-achievable LP\n"
      "numerators (which respect full reduction) the branches tie —\n"
      "the AGM-worst instances are not realizable fully reduced.\n");
}

void Run() {
  PrintBranchBounds();
  bench::Banner(
      "T1.3b L4 peeling ablation (measured, skewed instances)",
      "on a fixed instance both branches are within their Theorem 3 "
      "bounds; the constants (and the O~ log factor from per-chunk "
      "re-sorting) differ by the skew side, and the worst/best gap is "
      "the price of a fixed peel order");
  bench::Table table({"skew", "N", "M", "B", "results", "peel_e1_io",
                      "peel_e4_io", "exact_guided_io", "worst/best"});
  for (const bool skew_left : {true, false}) {
    for (TupleCount n : {512, 1024, 2048}) {
      const TupleCount m = 64, b = 8;
      extmem::Device dev(m, b);
      const auto rels = SkewedL4(&dev, n, skew_left);
      const bench::Measured e1_first = RunWith(&dev, rels, ForceEdge(true));
      const bench::Measured e4_first = RunWith(&dev, rels, ForceEdge(false));
      const bench::Measured guided =
          RunWith(&dev, rels, gens::ExactCostGuidedChooser(m, b));
      const std::uint64_t best = std::min(e1_first.ios, e4_first.ios);
      const std::uint64_t worst = std::max(e1_first.ios, e4_first.ios);
      table.AddRow({skew_left ? "left(v2)" : "right(v4)", bench::U(n),
                    bench::U(m), bench::U(b), bench::U(guided.results),
                    bench::U(e1_first.ios), bench::U(e4_first.ios),
                    bench::U(guided.ios),
                    bench::F(static_cast<double>(worst) / best)});
    }
  }
  table.Print();
  std::printf(
      "\nShape check: in T1.3a the cheaper bound side flips with N2 vs N3\n"
      "(the paper's rule); in T1.3b every branch stays within a constant\n"
      "(up to the O~ log) of the instance's Theorem 3 bound.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "table1_line4_peeling"))
    return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
