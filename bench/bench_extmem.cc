// Experiment E13: substrate microbenchmarks.
// Validates the external-memory simulator itself: scan charges N/B,
// external sort charges (passes+1) * 2N/B, semijoin is linear; and
// reports wall-clock throughput of the simulated operators.
//
// Usage: bench_extmem [--json[=PATH]] [--no-json] [--reps=K]
//                     [--metrics=PATH] [--audit=PATH] [--trace...]
// Machine-readable results go to BENCH_extmem.json by default (schema
// documented on bench::Reporter); --no-json disables the file. All
// flags are parsed by bench::ParseBenchFlags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/reduce.h"
#include "extmem/sorter.h"
#include "storage/relation.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

std::vector<storage::Tuple> RandomRows(TupleCount n) {
  std::vector<storage::Tuple> rows;
  rows.reserve(n);
  std::uint64_t x = 88172645463325252ull;
  for (TupleCount i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back({x % 100000, i});
  }
  return rows;
}

void BenchScan(TupleCount n, int reps) {
  extmem::Device dev(1024, 64);
  const storage::Relation rel = workload::Matching(&dev, 0, 1, n);
  bench::Measure(&dev, "scan", n, reps, [&]() -> std::uint64_t {
    extmem::FileReader reader(rel.range());
    Value sum = 0;
    TupleCount count = 0;
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (std::size_t off = 0; off < block.size(); off += 2) {
        sum += block[off];
        ++count;
      }
    }
    asm volatile("" ::"r"(sum));
    return count;
  });
}

void BenchSort(TupleCount n, int reps) {
  extmem::Device dev(1024, 64);
  const storage::Relation rel = storage::Relation::FromTuples(
      &dev, storage::Schema({0, 1}), RandomRows(n));
  const std::uint32_t key[1] = {0};
  bench::Measure(&dev, "sort", n, reps, [&]() -> std::uint64_t {
    extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);
    return sorted->size();
  });
}

void BenchSemiJoin(TupleCount n, int reps) {
  extmem::Device dev(1024, 64);
  const storage::Relation rel = workload::ManyToOne(&dev, 0, 1, n, n / 4);
  const storage::Relation filter = workload::Matching(&dev, 1, 2, n / 2);
  bench::Measure(&dev, "semijoin", n, reps, [&]() -> std::uint64_t {
    return core::SemiJoin(rel, filter, 1).size();
  });
}

void BenchFullReduceL5(TupleCount n, int reps) {
  extmem::Device dev(1024, 64);
  std::vector<storage::Relation> rels;
  for (std::uint32_t i = 0; i < 5; ++i) {
    rels.push_back(workload::ManyToOne(&dev, i, i + 1, n, n / 2));
  }
  bench::Measure(&dev, "full_reduce_l5", n, reps, [&]() -> std::uint64_t {
    const std::vector<storage::Relation> reduced = core::FullyReduce(rels);
    std::uint64_t total = 0;
    for (const storage::Relation& r : reduced) total += r.size();
    return total;
  });
}

int Run() {
  const int reps = bench::GlobalBench().reps;

  bench::Banner("E13: substrate microbenchmarks",
                "Wall-clock and I/O cost of the external-memory substrate's "
                "hot loops (scan, external sort, semijoin, full reduction). "
                "I/O counts follow the Aggarwal-Vitter model exactly; wall "
                "clock tracks the block-batched implementation.");

  BenchScan(TupleCount{1} << 18, reps);
  BenchScan(TupleCount{1} << 20, reps);
  BenchSort(TupleCount{1} << 12, reps);
  BenchSort(TupleCount{1} << 15, reps);
  BenchSort(TupleCount{1} << 18, reps);
  BenchSemiJoin(TupleCount{1} << 15, reps);
  BenchSemiJoin(TupleCount{1} << 18, reps);
  BenchFullReduceL5(TupleCount{1} << 12, reps);
  BenchFullReduceL5(TupleCount{1} << 15, reps);
  bench::GlobalBench().reporter.PrintTable();
  return bench::FinishBench();
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(argc, argv, "extmem",
                                      /*default_reps=*/3)) {
    return 2;
  }
  return emjoin::Run();
}
