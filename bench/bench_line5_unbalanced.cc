// Experiment T1.5 (§6.3, Algorithm 4): unbalanced L5.
// Claim: Algorithm 2's cost bound contains the pair term N2*N4/(MB)
// (every GenS family includes {e2,e4}, §4.4); when N1*N3*N5 < N2*N4 that
// term dominates the true optimum Õ(N1N3N5/(M^2B) + N1N3/B + N3N5/B),
// which Algorithm 4 achieves. The gap is realized by an instance with
// matching ends (K >> M) and cross-product middle relations: Algorithm 2
// pays ~K^2*z1*z2/(MB) while Algorithm 4 materializes S and T of size
// K*z1 each and nested-loops per R3 tuple.
#include "bench/bench_util.h"
#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/unbalanced5.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

// R1 = matching(K) on (v1,v2); R2 = dom(v2) x dom(v3) = K x z1;
// R3 maps dom(v3) onto dom(v4) (z1 -> z2); R4 = z2 x K; R5 = matching(K).
// Sizes: N1 = N5 = K, N2 = K*z1, N3 = z1, N4 = z2*K.
// Unbalanced iff N2*N4 = K^2*z1*z2 > N1*N3*N5 = K^2*z1, i.e. z2 > 1.
std::vector<storage::Relation> HardL5(extmem::Device* dev, TupleCount k,
                                      TupleCount z1, TupleCount z2) {
  std::vector<storage::Relation> rels;
  rels.push_back(workload::Matching(dev, 0, 1, k));
  rels.push_back(workload::CrossProduct(dev, 1, 2, k, z1));
  rels.push_back(workload::ManyToOne(dev, 2, 3, z1, z2));
  rels.push_back(workload::CrossProduct(dev, 3, 4, z2, k));
  rels.push_back(workload::Matching(dev, 4, 5, k));
  return rels;
}

void Run() {
  bench::Banner(
      "T1.5 unbalanced L5: Algorithm 4 vs Algorithm 2",
      "paper §6.3: when N1N3N5 < N2N4, Algorithm 2 pays its unavoidable "
      "{e2,e4} term ~N2N4/(MB) while Algorithm 4 stays at "
      "N1N3N5/(M^2B) + N1N3/B + N3N5/B; the gap grows with z2");
  bench::Table table({"z2", "N2*N4/(MB)", "alg4_bound", "results",
                      "alg4_io", "alg2_io", "alg2/alg4", "auto_algorithm"});
  const TupleCount m = 64, b = 8, k = 256, z1 = 32;
  for (TupleCount z2 : {1, 2, 4, 8, 16, 32, 64}) {
    extmem::Device dev4(m, b), dev2(m, b), deva(m, b);
    const auto rels4 = HardL5(&dev4, k, z1, z2);
    const auto rels2 = HardL5(&dev2, k, z1, z2);
    const auto relsa = HardL5(&deva, k, z1, z2);

    const double pair_term = static_cast<double>(k) * z1 * z2 * k / (m * b);
    const double alg4_bound =
        static_cast<double>(k) * z1 * k /
            (static_cast<double>(m) * m * b) +
        2.0 * static_cast<double>(k) * z1 / b +
        static_cast<double>(2 * k + k * z1 + z1 + z2 * k) / b;
    const bench::Measured alg4 = bench::MeasureJoin(
        &dev4,
        [&](auto emit) {
          core::LineJoinUnbalanced5(rels4[0], rels4[1], rels4[2], rels4[3],
                                    rels4[4], emit);
        },
        bench::InternSpanName("alg4_L5 z2=" + std::to_string(z2)),
        alg4_bound, z2);
    const bench::Measured alg2 = bench::MeasureJoin(
        &dev2, [&](auto emit) { core::AcyclicJoin(rels2, emit); },
        bench::InternSpanName("alg2_L5u z2=" + std::to_string(z2)), -1.0L,
        z2);
    core::CountingSink sink;
    const core::AutoJoinReport report = core::JoinAuto(relsa, sink.AsEmitFn());
    table.AddRow({bench::U(z2), bench::F(pair_term), bench::F(alg4_bound),
                  bench::U(alg4.results), bench::U(alg4.ios),
                  bench::U(alg2.ios),
                  bench::F(static_cast<double>(alg2.ios) / alg4.ios),
                  report.algorithm});
  }
  table.Print();
  std::printf(
      "\nShape check: at z2 = 1 (balance boundary) the two are close; as\n"
      "z2 grows, Algorithm 2's cost follows the N2N4/(MB) pair term while\n"
      "Algorithm 4 stays near its flat bound, and the dispatcher routes\n"
      "unbalanced instances to Algorithm 4.\n");
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "line5_unbalanced")) return 2;
  emjoin::Run();
  return emjoin::bench::FinishBench();
}
