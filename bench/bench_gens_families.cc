// Experiment E10 (§4.4): the GenS(Q) families.
// Claim: GenS reproduces the paper's example families — eq. (4) on L3,
// the two peel-dependent families on L4, four on L5 (two better), and
// the star closure where the full set is avoidable.
#include "bench/bench_util.h"
#include "gens/gens.h"
#include "gens/psi.h"

namespace emjoin {
namespace {

void PrintFamilies(const std::string& name, const query::JoinQuery& q,
                   bool pruned_only = false) {
  std::printf("--- %s: %s ---\n", name.c_str(), q.ToString().c_str());
  const auto raw = gens::GenSFamilies(q, /*prune_supersets=*/false);
  const auto minimal = gens::GenSFamilies(q);
  std::printf("branch families: %zu raw, %zu minimal\n", raw.size(),
              minimal.size());
  const auto& families = pruned_only ? minimal : raw;
  for (const auto& f : families) {
    std::printf("  S = %s\n",
                gens::FamilyToString(gens::PruneDominated(q, f)).c_str());
  }
  std::printf("\n");
}

void PrintBound(const std::string& name, const query::JoinQuery& q,
                TupleCount m, TupleCount b) {
  const gens::BoundReport report = gens::PredictBoundWorstCase(q, m, b);
  std::printf("%s (M=%llu, B=%llu): best family %s\n", name.c_str(),
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(b),
              gens::FamilyToString(
                  gens::PruneDominated(q, report.best_family))
                  .c_str());
  std::printf("  worst-case bound = %.1Lf I/Os (max-psi %.1Lf + linear "
              "%.1Lf)\n",
              report.bound, report.max_psi, report.linear_term);
  std::printf("  dominant terms:\n");
  for (std::size_t i = 0; i < report.terms.size() && i < 4; ++i) {
    std::printf("    psi(%s) = %.1Lf\n",
                gens::FamilyToString({report.terms[i].first}).c_str(),
                report.terms[i].second);
  }
  std::printf("\n");
}

void Run() {
  bench::Banner("E10 GenS(Q) families (Algorithm 3, §4.4 examples)",
                "paper: GenS(L3) = eq. (4); two L4 families; four L5 "
                "families, two of which are better; star one-shot vs "
                "petal-by-petal branches");
  PrintFamilies("L3", query::JoinQuery::Line(3));
  PrintFamilies("L4", query::JoinQuery::Line(4));
  PrintFamilies("L5", query::JoinQuery::Line(5), true);
  PrintFamilies("Star T3", query::JoinQuery::Star(3), true);
  PrintFamilies("Lollipop(2)", query::JoinQuery::Lollipop(2), true);

  bench::Banner("E10b worst-case Theorem 3 bounds from the families",
                "the min-max over families gives each query's predicted "
                "complexity; compare with Table 1's closed forms");
  PrintBound("L3 N=(1024,1024,1024)",
             query::JoinQuery::Line(3, {1024, 1024, 1024}), 64, 8);
  PrintBound("L4 N=(1024,1024,1024,1024)",
             query::JoinQuery::Line(4, {1024, 1024, 1024, 1024}), 64, 8);
  PrintBound("L5 balanced N=all 512",
             query::JoinQuery::Line(5, {512, 512, 512, 512, 512}), 64, 8);
  PrintBound("Star T3 N=(1,256,256,256)",
             query::JoinQuery::Star(3, {1, 256, 256, 256}), 64, 8);
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "gens_families")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
