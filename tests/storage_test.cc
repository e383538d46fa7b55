#include <gtest/gtest.h>

#include "core/join_kernel.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace emjoin::storage {
namespace {

TEST(SchemaTest, PositionsAndContains) {
  const Schema s({3, 7, 5});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.PositionOf(7), 1u);
  EXPECT_FALSE(s.PositionOf(4).has_value());
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(0));
}

TEST(SchemaTest, CommonAttrs) {
  const Schema a({1, 2, 3});
  const Schema b({3, 4, 1});
  EXPECT_EQ(a.CommonAttrs(b), (std::vector<AttrId>{1, 3}));
  EXPECT_EQ(b.CommonAttrs(a), (std::vector<AttrId>{3, 1}));
}

TEST(TupleTest, ProjectAndJoinable) {
  const Schema from({1, 2, 3});
  const Schema to({3, 1});
  const Tuple t = {10, 20, 30};
  EXPECT_EQ(ProjectTuple(t, from, to), (Tuple{30, 10}));

  const Schema other({2, 4});
  const Tuple u_match = {20, 99};
  const Tuple u_mismatch = {21, 99};
  const core::JoinKernel kernel(from, other, core::ResultSchema{});
  EXPECT_TRUE(kernel.Joinable(t.data(), u_match.data()));
  EXPECT_FALSE(kernel.Joinable(t.data(), u_mismatch.data()));
}

TEST(TupleTest, ConcatAndJoinedSchema) {
  const Schema a({1, 2});
  const Schema b({2, 3});
  EXPECT_EQ(JoinedSchema(a, b), Schema({1, 2, 3}));
  const Tuple ta = {10, 20};
  const Tuple tb = {20, 30};
  EXPECT_EQ(ConcatTuples(ta, a, tb, b), (Tuple{10, 20, 30}));
}

TEST(RelationTest, FromTuplesRoundTrip) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(&dev, {0, 1}, {{1, 2}, {3, 4}});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.ReadAll(), (std::vector<Tuple>{{1, 2}, {3, 4}}));
  EXPECT_GE(dev.stats().block_writes, 1u);
}

TEST(RelationTest, SortedByAndEqualRange) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(
      &dev, {0, 1}, {{5, 1}, {3, 2}, {5, 3}, {1, 4}, {3, 5}, {5, 6}});
  const Relation s = r.SortedBy(0);
  ASSERT_TRUE(s.IsSortedBy(0));
  const auto rows = s.ReadAll();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0], rows[i][0]);
  }
  const Relation g5 = s.EqualRange(0, 5);
  EXPECT_EQ(g5.size(), 3u);
  const Relation g2 = s.EqualRange(0, 2);
  EXPECT_TRUE(g2.empty());
}

TEST(RelationTest, SortedByIsNoOpWhenAlreadySorted) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(&dev, {0, 1}, {{1, 1}, {2, 2}});
  const Relation s = r.SortedBy(0);
  const extmem::IoStats before = dev.stats();
  const Relation s2 = s.SortedBy(0);
  EXPECT_EQ(dev.stats().total(), before.total());
  EXPECT_EQ(s2.size(), 2u);
}

TEST(RelationTest, ForEachGroupVisitsEveryValueOnce) {
  extmem::Device dev(16, 4);
  const Relation r =
      test::MakeRel(&dev, {0, 1}, {{1, 0}, {1, 1}, {2, 0}, {4, 0}, {4, 1}})
          .SortedBy(0);
  std::vector<std::pair<Value, TupleCount>> seen;
  r.ForEachGroup(0, [&](Value v, Relation g) { seen.push_back({v, g.size()}); });
  EXPECT_EQ(seen, (std::vector<std::pair<Value, TupleCount>>{
                      {1, 2}, {2, 1}, {4, 2}}));
}

TEST(RelationTest, GroupCursorMatchesForEachGroup) {
  extmem::Device dev(16, 4);
  const Relation r =
      test::MakeRel(&dev, {0, 1},
                    {{1, 0}, {1, 1}, {2, 0}, {4, 0}, {4, 1}, {4, 2}})
          .SortedBy(0);
  std::vector<std::pair<Value, TupleCount>> seen;
  for (GroupCursor cur(r, 0); !cur.Done(); cur.Advance()) {
    seen.push_back({cur.value(), cur.group().size()});
  }
  EXPECT_EQ(seen, (std::vector<std::pair<Value, TupleCount>>{
                      {1, 2}, {2, 1}, {4, 3}}));
}

TEST(RelationTest, SliceInheritsSortOrder) {
  extmem::Device dev(16, 4);
  const Relation r =
      test::MakeRel(&dev, {0, 1}, {{1, 0}, {2, 0}, {3, 0}}).SortedBy(0);
  const Relation s = r.Slice(1, 3);
  EXPECT_TRUE(s.IsSortedBy(0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.ReadAll().front(), (Tuple{2, 0}));
}

TEST(MemChunkTest, AppendMatchDistinct) {
  extmem::Device dev(64, 8);
  MemChunk chunk(Schema({0, 1}), &dev);
  const Tuple rows[] = {{1, 10}, {2, 20}, {1, 30}};
  for (const Tuple& t : rows) chunk.Append(t);
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_EQ(dev.gauge().resident(), 3u);

  TupleCount matches = 0;
  const Value key = 1;
  const core::JoinKernel kernel(chunk.schema(), Schema({0}),
                                core::ResultSchema{});
  kernel.ForEachMatch(chunk, &key, [&](const Value*) { ++matches; });
  EXPECT_EQ(matches, 2u);
  EXPECT_EQ(chunk.DistinctValues(0), (std::vector<Value>{1, 2}));
  chunk.Clear();
  EXPECT_EQ(dev.gauge().resident(), 0u);
}

TEST(MemChunkTest, LoadChunkRespectsBudget) {
  extmem::Device dev(8, 2);
  const Relation r = test::MakeRel(
      &dev, {0}, {{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}});
  extmem::FileReader reader(r.range());
  MemChunk chunk;
  TupleCount total = 0;
  int chunks = 0;
  while (LoadChunk(reader, r.schema(), &dev, dev.M(), &chunk)) {
    EXPECT_LE(chunk.size(), dev.M());
    total += chunk.size();
    ++chunks;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(chunks, 2);
}

TEST(MemChunkTest, LoadChunkByValueKeepsGroupsTogether) {
  extmem::Device dev(4, 2);
  // Groups of size 3, 3, 2 on attr 0; min_tuples = 4 -> first chunk must
  // take both of the first groups entirely (6 tuples), second chunk 2.
  const Relation r =
      test::MakeRel(&dev, {0, 1},
                    {{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}, {3, 0},
                     {3, 1}})
          .SortedBy(0);
  extmem::FileReader reader(r.range());
  MemChunk chunk;
  std::vector<TupleCount> chunk_sizes;
  while (LoadChunkByValue(reader, r.schema(), &dev, 0, 4, &chunk)) {
    chunk_sizes.push_back(chunk.size());
    // No group may be split: the last value of a chunk differs from the
    // first value of the next (checked implicitly by sizes).
  }
  EXPECT_EQ(chunk_sizes, (std::vector<TupleCount>{6, 2}));
}

}  // namespace
}  // namespace emjoin::storage
