// Pins the *ordered* output stream of every join operator family.
//
// The result-set tests elsewhere sort before comparing, so they cannot
// see a change that emits the same rows in another order. Here each
// family runs on a fixed instance and the test pins the number of rows
// emitted and EmitJournal::hash(), which is order-sensitive. A kernel
// change that keeps every result but reorders them fails here.
//
// Each family also runs once under an enforcing MemoryGauge. Above M,
// the limit makes a chunk trip mid-processing, so ProcessChunkWithReplan
// re-runs it in halved sub-chunks (Algorithm 2's heavy and light bodies,
// Algorithm 1's light chunks, Algorithm 4 and the L7 nested loop around
// it); those tests check that a re-plan happened. Block nested loop
// allocates nothing while it processes a chunk, so it cannot trip there;
// its run is below M instead, where DegradedChunkCap shrinks its chunks.
#include <gtest/gtest.h>

#include <string>

#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/line3.h"
#include "core/lw.h"
#include "core/pairwise.h"
#include "core/triangle.h"
#include "core/unbalanced5.h"
#include "core/yannakakis.h"
#include "tests/test_util.h"
#include "trace/tracer.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

// The ordered stream one run emitted: raw emissions (duplicates
// included) and the order-sensitive journal hash.
struct Stream {
  std::uint64_t rows = 0;
  std::uint64_t hash = 0;
};

template <typename Run>
Stream Capture(Run&& run) {
  EmitJournal journal;
  std::uint64_t rows = 0;
  run(EmitFn([&](std::span<const Value> row) {
    ++rows;
    static_cast<void>(journal.Record(row));
  }));
  // Set semantics: a correct run never emits a row twice.
  EXPECT_EQ(journal.rows(), rows);
  return {rows, journal.hash()};
}

// A traced device: spans and counters tell which paths a run took.
struct Traced {
  Traced(TupleCount m, TupleCount b) : dev(m, b) { dev.set_tracer(&tracer); }

  std::uint64_t Counter(const std::string& name) const {
    const auto it = tracer.totals().find(name);
    return it == tracer.totals().end() ? 0 : it->second;
  }

  std::uint64_t Spans(const std::string& name) const {
    std::uint64_t n = 0;
    for (const trace::SpanRecord& s : tracer.spans()) n += s.name == name;
    return n;
  }

  extmem::Device dev;
  trace::Tracer tracer;
};

std::vector<storage::Relation> Random(extmem::Device* dev,
                                      const query::JoinQuery& q,
                                      TupleCount size, std::uint64_t seed,
                                      TupleCount domain, double zipf) {
  workload::RandomOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.zipf_s = zipf;
  return workload::RandomInstance(
      dev, q, std::vector<TupleCount>(q.num_edges(), size), opts);
}

void ExpectStream(const Stream& got, std::uint64_t rows, std::uint64_t hash) {
  EXPECT_EQ(got.rows, rows);
  EXPECT_EQ(got.hash, hash);
}

// ---------------------------------------------------------------------
// Algorithm 2.
// ---------------------------------------------------------------------

Stream RunAcyclic(const std::vector<storage::Relation>& rels) {
  return Capture([&](const EmitFn& emit) { AcyclicJoin(rels, emit); });
}

// L3 whose R1 has two heavy values of v1 (>= M = 16 tuples) and eight
// light ones; R2 and R3 fan each value out to a few partners.
std::vector<storage::Relation> SkewedL3(extmem::Device* dev) {
  std::vector<storage::Tuple> r1, r2, r3;
  for (Value i = 0; i < 24; ++i) r1.push_back({i, 0});
  for (Value i = 0; i < 18; ++i) r1.push_back({50 + i, 1});
  for (Value v = 2; v < 10; ++v) {
    for (Value i = 0; i < v % 4 + 1; ++i) {
      r1.push_back({100 + 10 * v + i, v});
    }
  }
  for (Value v = 0; v < 10; ++v) {
    r2.push_back({v, v % 5});
    r2.push_back({v, 5 + (v * 3) % 7});
  }
  for (Value w = 0; w < 12; ++w) {
    for (Value j = 0; j < w % 3 + 1; ++j) {
      r3.push_back({w, 1000 + 10 * w + j});
    }
  }
  return {test::MakeRel(dev, {0, 1}, r1), test::MakeRel(dev, {1, 2}, r2),
          test::MakeRel(dev, {2, 3}, r3)};
}

// Uniform L4 over a wide domain: every value is light.
std::vector<storage::Relation> LightL4(extmem::Device* dev) {
  return Random(dev, query::JoinQuery::Line(4), 64, 12, 24, 0.0);
}

// An L2 plus a relation sharing nothing with it: an island.
std::vector<storage::Relation> IslandQuery(extmem::Device* dev) {
  std::vector<storage::Relation> rels =
      Random(dev, query::JoinQuery::Line(2), 40, 13, 8, 0.0);
  rels.push_back(workload::CrossProduct(dev, 7, 8, 5, 7));
  return rels;
}

// An L3 plus a unary relation on v1: a bud.
std::vector<storage::Relation> BudQuery(extmem::Device* dev) {
  std::vector<storage::Relation> rels =
      Random(dev, query::JoinQuery::Line(3), 48, 14, 8, 0.8);
  std::vector<storage::Tuple> unary;
  for (Value x = 0; x < 8; x += 2) unary.push_back({x});
  rels.push_back(test::MakeRel(dev, {1}, unary));
  return rels;
}

TEST(EmitOrderTest, AcyclicJoinHeavy) {
  Traced t(16, 4);
  ExpectStream(RunAcyclic(SkewedL3(&t.dev)), 271, 1942242521107157136u);
  EXPECT_GT(t.Counter("heavy_values"), 0u);
}

TEST(EmitOrderTest, AcyclicJoinLight) {
  Traced t(16, 4);
  ExpectStream(RunAcyclic(LightL4(&t.dev)), 1196, 2814338812672842076u);
  EXPECT_GT(t.Counter("light_chunks"), 0u);
  EXPECT_EQ(t.Counter("heavy_values"), 0u);
}

TEST(EmitOrderTest, AcyclicJoinIsland) {
  Traced t(16, 4);
  ExpectStream(RunAcyclic(IslandQuery(&t.dev)), 7070, 362386322919831191u);
  EXPECT_GT(t.Spans("peel.island"), 0u);
}

TEST(EmitOrderTest, AcyclicJoinBud) {
  Traced t(16, 4);
  ExpectStream(RunAcyclic(BudQuery(&t.dev)), 1027, 13371687825718706424u);
  EXPECT_GT(t.Spans("peel.bud"), 0u);
}

TEST(EmitOrderTest, AcyclicJoinUnderEnforcedBudget) {
  Traced t(16, 4);
  const auto heavy = SkewedL3(&t.dev);
  const auto light = LightL4(&t.dev);
  const auto island = IslandQuery(&t.dev);
  t.dev.gauge().SetEnforcedLimit(20);
  ExpectStream(RunAcyclic(heavy), 271, 9416730975954282248u);
  ExpectStream(RunAcyclic(light), 1196, 9007257129908670460u);
  ExpectStream(RunAcyclic(island), 7070, 9873841373322589975u);
  EXPECT_GT(t.Counter("budget_replans"), 0u);
}

// ---------------------------------------------------------------------
// Algorithm 1 and Algorithm 4.
// ---------------------------------------------------------------------

Stream RunLine3(const std::vector<storage::Relation>& r) {
  return Capture(
      [&](const EmitFn& emit) { LineJoin3(r[0], r[1], r[2], emit); });
}

Stream RunLine3ToDisk(const std::vector<storage::Relation>& r) {
  return Capture([&](const EmitFn& emit) {
    const storage::Relation out = LineJoin3ToDisk(r[0], r[1], r[2]);
    for (const storage::Tuple& row : out.ReadAll()) emit(row);
  });
}

TEST(EmitOrderTest, LineJoin3) {
  Traced t(16, 4);
  ExpectStream(RunLine3(SkewedL3(&t.dev)), 271, 1942242521107157136u);
  EXPECT_GT(t.Spans("line3.heavy"), 0u);
  EXPECT_GT(t.Spans("line3.light"), 0u);
}

TEST(EmitOrderTest, LineJoin3ToDisk) {
  Traced t(16, 4);
  ExpectStream(RunLine3ToDisk(SkewedL3(&t.dev)), 271, 1942242521107157136u);
}

TEST(EmitOrderTest, LineJoin3UnderEnforcedBudget) {
  Traced t(16, 4);
  const auto rels = SkewedL3(&t.dev);
  t.dev.gauge().SetEnforcedLimit(20);
  ExpectStream(RunLine3(rels), 271, 9416730975954282248u);
  ExpectStream(RunLine3ToDisk(rels), 271, 9416730975954282248u);
  EXPECT_GT(t.Counter("budget_replans"), 0u);
}

Stream RunUnbalanced5(const std::vector<storage::Relation>& r) {
  return Capture([&](const EmitFn& emit) {
    LineJoinUnbalanced5(r[0], r[1], r[2], r[3], r[4], emit);
  });
}

TEST(EmitOrderTest, LineJoinUnbalanced5) {
  Traced t(16, 4);
  const auto rels = workload::UnbalancedL5(&t.dev, 16, 16, {4, 40, 24, 4});
  ExpectStream(RunUnbalanced5(rels), 10240, 10783503288289105515u);
  EXPECT_GT(t.Counter("bnl_joins"), 0u);
}

TEST(EmitOrderTest, LineJoinUnbalanced5UnderEnforcedBudget) {
  Traced t(16, 4);
  const auto rels = workload::UnbalancedL5(&t.dev, 16, 16, {4, 40, 24, 4});
  t.dev.gauge().SetEnforcedLimit(20);
  ExpectStream(RunUnbalanced5(rels), 10240, 10783503288289105515u);
  EXPECT_GT(t.Counter("budget_replans"), 0u);
}

// ---------------------------------------------------------------------
// Pairwise joins.
// ---------------------------------------------------------------------

// Two relations sharing v1, with values heavy on both sides (>= M
// tuples), heavy on one side only, and light on both.
std::vector<storage::Relation> PairInstance(extmem::Device* dev) {
  std::vector<storage::Tuple> left, right;
  for (Value i = 0; i < 20; ++i) left.push_back({i, 0});
  for (Value i = 0; i < 18; ++i) right.push_back({0, 100 + i});
  for (Value i = 0; i < 24; ++i) left.push_back({50 + i, 1});
  for (Value i = 0; i < 3; ++i) right.push_back({1, 200 + i});
  for (Value v = 2; v < 12; ++v) {
    for (Value i = 0; i < v % 4 + 1; ++i) {
      left.push_back({300 + 10 * v + i, v});
    }
    for (Value i = 0; i < v % 3 + 1; ++i) right.push_back({v, 400 + i});
  }
  // Unsorted inputs: scramble the row order deterministically.
  std::vector<storage::Tuple> l2, r2;
  for (std::size_t i = 0; i < left.size(); ++i) {
    l2.push_back(left[(i * 7) % left.size()]);
  }
  for (std::size_t i = 0; i < right.size(); ++i) {
    r2.push_back(right[(i * 5) % right.size()]);
  }
  return {test::MakeRel(dev, {0, 1}, l2), test::MakeRel(dev, {1, 2}, r2)};
}

Stream RunBnl(const storage::Relation& a, const storage::Relation& b) {
  return Capture([&](const EmitFn& emit) {
    Assignment assignment(MakeResultSchema({a, b}));
    BlockNestedLoopJoin(a, b, &assignment, emit);
  });
}

Stream RunSortMerge(const storage::Relation& a, const storage::Relation& b) {
  return Capture([&](const EmitFn& emit) {
    Assignment assignment(MakeResultSchema({a, b}));
    SortMergeJoin(a, b, &assignment, emit);
  });
}

TEST(EmitOrderTest, BlockNestedLoopJoin) {
  Traced t(16, 4);
  const auto rels = PairInstance(&t.dev);
  ExpectStream(RunBnl(rels[0], rels[1]), 487, 506646850831989551u);
  // No shared attribute: the cross product.
  const storage::Relation c = workload::CrossProduct(&t.dev, 5, 6, 4, 5);
  ExpectStream(RunBnl(rels[0], c), 1420, 9389504186285861132u);
}

TEST(EmitOrderTest, SortMergeJoin) {
  Traced t(16, 4);
  const auto rels = PairInstance(&t.dev);
  ExpectStream(RunSortMerge(rels[0], rels[1]), 487, 10175977568896452167u);
  ExpectStream(RunSortMerge(rels[1], rels[0]), 487, 11655779339214184855u);
  EXPECT_GT(t.Counter("bnl_joins"), 0u);  // the heavy-heavy value
}

TEST(EmitOrderTest, PairwiseUnderEnforcedBudget) {
  Traced t(16, 4);
  const auto rels = PairInstance(&t.dev);
  const storage::Relation c = workload::CrossProduct(&t.dev, 5, 6, 4, 5);
  t.dev.gauge().SetEnforcedLimit(12);
  ExpectStream(RunBnl(rels[0], rels[1]), 487, 5380488841730621759u);
  ExpectStream(RunBnl(rels[0], c), 1420, 6732264686439321380u);
  ExpectStream(RunSortMerge(rels[0], rels[1]), 487, 3865042289101843263u);
}

// ---------------------------------------------------------------------
// §6.3 nested-loop compositions (dispatch.cc's NestedLoopWrap).
//
// Only the L7 composition is reachable through JoinAuto: it reduces its
// input first, and a reduced L6 always has a balanced split (both
// halves of the k = 3 split are L3s, and a reduced L3 has N2 <= N1*N3),
// so its nested-loop branches never run.
// ---------------------------------------------------------------------

// L7 whose optimal edge cover is (1,1,0,1,0,1,1).
std::vector<storage::Relation> CoverCaseL7(extmem::Device* dev) {
  std::vector<storage::Relation> rels;
  rels.push_back(workload::ManyToOne(dev, 0, 1, 10, 2));
  rels.push_back(workload::Matching(dev, 1, 2, 2));
  rels.push_back(workload::CrossProduct(dev, 2, 3, 2, 24));
  rels.push_back(workload::Matching(dev, 3, 4, 24));
  rels.push_back(workload::CrossProduct(dev, 4, 5, 24, 2));
  rels.push_back(workload::Matching(dev, 5, 6, 2));
  rels.push_back(workload::OneToMany(dev, 6, 7, 10, 2));
  return rels;
}

Stream RunAuto(const std::vector<storage::Relation>& rels,
               std::string* algorithm) {
  return Capture([&](const EmitFn& emit) {
    *algorithm = JoinAuto(rels, emit).algorithm;
  });
}

TEST(EmitOrderTest, NestedLoopWrapL7) {
  Traced t(16, 4);
  std::string algorithm;
  ExpectStream(RunAuto(CoverCaseL7(&t.dev), &algorithm), 2400,
               10673557699267655056u);
  EXPECT_EQ(algorithm, "L7=NL(R1,R7, Alg4)");
  EXPECT_GT(t.Counter("nl_chunks"), 0u);
}

TEST(EmitOrderTest, NestedLoopWrapUnderEnforcedBudget) {
  Traced t(16, 4);
  const auto l7 = CoverCaseL7(&t.dev);
  t.dev.gauge().SetEnforcedLimit(40);
  std::string algorithm;
  ExpectStream(RunAuto(l7, &algorithm), 2400, 10673557699267655056u);
  EXPECT_EQ(algorithm, "L7=NL(R1,R7, Alg4)");
  EXPECT_GT(t.Counter("budget_replans"), 0u);
}

// Below M the wrap re-polls DegradedChunkCap per outer chunk and re-plans
// a chunk whose inner join trips, as BlockNestedLoopJoin does. Chunk
// sizes then depend on the limit, so the order may too, but every limit
// down to the composition's floor yields exactly the unenforced run's
// rows, each once. The floor is 4B + 3 = 19 tuples: Algorithm 4 keeps
// three scan cursors (R3, S, T: one block each) open while its block
// nested loop holds a chunk tuple and an inner block, and each of the two
// wraps holds at least one outer tuple. Below it the run must end in a
// typed budget error, never a crash.
TEST(EmitOrderTest, NestedLoopWrapCompletesBelowM) {
  constexpr TupleCount kFloor = 4 * 4 + 3;
  extmem::Device free_dev(16, 4);
  CollectingSink free_sink;
  JoinAuto(CoverCaseL7(&free_dev), free_sink.AsEmitFn());
  const auto expected = test::Sorted(std::move(free_sink.results()));
  ASSERT_EQ(expected.size(), 2400u);
  for (TupleCount limit = 12; limit <= 36; ++limit) {
    extmem::Device dev(16, 4);
    const auto l7 = CoverCaseL7(&dev);
    dev.gauge().SetEnforcedLimit(limit);
    CollectingSink sink;
    const auto report = TryJoinAuto(l7, sink.AsEmitFn());
    if (limit < kFloor) {
      ASSERT_FALSE(report.ok()) << "limit " << limit;
      EXPECT_EQ(report.status().code(), extmem::StatusCode::kBudgetExceeded);
      continue;
    }
    ASSERT_TRUE(report.ok()) << "limit " << limit << ": "
                             << report.status().ToString();
    EXPECT_EQ(report->algorithm, "L7=NL(R1,R7, Alg4)");
    EXPECT_EQ(test::Sorted(std::move(sink.results())), expected)
        << "limit " << limit;
  }
}

// ---------------------------------------------------------------------
// Yannakakis, Loomis-Whitney and the triangle.
// ---------------------------------------------------------------------

Stream RunYannakakis(const std::vector<storage::Relation>& rels) {
  return Capture([&](const EmitFn& emit) {
    static_cast<void>(YannakakisJoin(rels, emit));
  });
}

TEST(EmitOrderTest, Yannakakis) {
  Traced t(16, 4);
  ExpectStream(RunYannakakis(SkewedL3(&t.dev)), 271, 13702246982802493136u);
  ExpectStream(RunYannakakis(IslandQuery(&t.dev)), 7070, 1361628562513079223u);
}

// LW4: four ternary relations over v0..v3, each missing one attribute.
std::vector<storage::Relation> Lw4(extmem::Device* dev) {
  query::JoinQuery q;
  q.AddRelation(storage::Schema({1, 2, 3}));
  q.AddRelation(storage::Schema({0, 2, 3}));
  q.AddRelation(storage::Schema({0, 1, 3}));
  q.AddRelation(storage::Schema({0, 1, 2}));
  return Random(dev, q, 40, 31, 4, 0.0);
}

Stream RunLw(const std::vector<storage::Relation>& rels) {
  return Capture(
      [&](const EmitFn& emit) { LoomisWhitneyJoin(rels, emit); });
}

TEST(EmitOrderTest, LoomisWhitney) {
  Traced t(16, 4);
  const auto rels = Lw4(&t.dev);
  ASSERT_TRUE(IsLoomisWhitney(rels));
  ExpectStream(RunLw(rels), 37, 9454996812356618500u);
}

// Triangle over (v0,v1), (v0,v2), (v1,v2); R1 stored as (v1,v0) so the
// operator re-orients it.
std::vector<storage::Relation> Triangle(extmem::Device* dev) {
  query::JoinQuery q;
  q.AddRelation(storage::Schema({1, 0}));
  q.AddRelation(storage::Schema({0, 2}));
  q.AddRelation(storage::Schema({1, 2}));
  return Random(dev, q, 48, 41, 8, 0.5);
}

Stream RunTriangle(const std::vector<storage::Relation>& r) {
  return Capture(
      [&](const EmitFn& emit) { TriangleJoin(r[0], r[1], r[2], emit); });
}

Stream RunTriangleViaMaterialization(const std::vector<storage::Relation>& r) {
  return Capture([&](const EmitFn& emit) {
    TriangleViaMaterialization(r[0], r[1], r[2], emit);
  });
}

TEST(EmitOrderTest, Triangle) {
  Traced t(16, 4);
  const auto rels = Triangle(&t.dev);
  ExpectStream(RunTriangle(rels), 231, 2584487410439344515u);
  ExpectStream(RunTriangleViaMaterialization(rels), 231, 139497233931218435u);
}

TEST(EmitOrderTest, YannakakisLwTriangleUnderEnforcedBudget) {
  Traced t(16, 4);
  const auto dense = SkewedL3(&t.dev);
  const auto lw = Lw4(&t.dev);
  const auto tri = Triangle(&t.dev);
  t.dev.gauge().SetEnforcedLimit(24);
  ExpectStream(RunYannakakis(dense), 271, 13702246982802493136u);
  ExpectStream(RunLw(lw), 37, 9454996812356618500u);
  ExpectStream(RunTriangle(tri), 231, 2584487410439344515u);
  ExpectStream(RunTriangleViaMaterialization(tri), 231, 139497233931218435u);
}

}  // namespace
}  // namespace emjoin::core
