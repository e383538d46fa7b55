#include "core/join_kernel.h"

#include <gtest/gtest.h>

#include "extmem/status.h"
#include "tests/test_util.h"

namespace emjoin::core {
namespace {

using storage::MemChunk;
using storage::Schema;
using storage::Tuple;

TEST(JoinKernelTest, CrossProductHasNoKeys) {
  const JoinKernel k(Schema({0, 1}), Schema({2, 3}),
                     ResultSchema{{0, 1, 2, 3}});
  EXPECT_TRUE(k.keys().empty());
  const Value c[2] = {1, 2};
  const Value s[2] = {3, 4};
  EXPECT_TRUE(k.Joinable(c, s));  // every pair matches
}

TEST(JoinKernelTest, OneSharedAttribute) {
  const JoinKernel k(Schema({0, 1}), Schema({2, 1}), ResultSchema{{0, 1, 2}});
  ASSERT_EQ(k.keys().size(), 1u);
  EXPECT_EQ(k.keys()[0].chunk, 1u);
  EXPECT_EQ(k.keys()[0].streamed, 1u);
  EXPECT_EQ(k.key_result_pos(), 1u);
  const Value c[2] = {7, 5};
  const Value match[2] = {9, 5};
  const Value miss[2] = {9, 6};
  EXPECT_TRUE(k.Joinable(c, match));
  EXPECT_FALSE(k.Joinable(c, miss));
}

TEST(JoinKernelTest, TwoSharedAttributesInChunkOrder) {
  // The streamed side lists the shared attributes in the other order.
  const JoinKernel k(Schema({3, 4, 0}), Schema({4, 5, 3}),
                     ResultSchema{{0, 3, 4, 5}});
  ASSERT_EQ(k.keys().size(), 2u);
  EXPECT_EQ(k.keys()[0].chunk, 0u);  // attribute 3
  EXPECT_EQ(k.keys()[0].streamed, 2u);
  EXPECT_EQ(k.keys()[1].chunk, 1u);  // attribute 4
  EXPECT_EQ(k.keys()[1].streamed, 0u);
  EXPECT_EQ(k.key_result_pos(), 1u);
  const Value c[3] = {30, 40, 1};
  const Value both[3] = {40, 50, 30};
  const Value one[3] = {41, 50, 30};
  EXPECT_TRUE(k.Joinable(c, both));
  EXPECT_FALSE(k.Joinable(c, one));
}

TEST(JoinKernelTest, BindMapsWriteBothSides) {
  const JoinKernel k(Schema({1, 0}), Schema({1, 2}), ResultSchema{{0, 1, 2}});
  Assignment a(ResultSchema{{0, 1, 2}});
  const Value c[2] = {5, 4};
  const Value s[2] = {5, 6};
  k.chunk_bind().Bind(c, &a);
  k.streamed_bind().Bind(s, &a);
  EXPECT_EQ(a.values()[0], 4u);
  EXPECT_EQ(a.values()[1], 5u);
  EXPECT_EQ(a.values()[2], 6u);
}

TEST(JoinKernelTest, BindMapDropsAttributesTheResultLacks) {
  // Attribute 9 is physical only (e.g. a partition column).
  const BindMap bind(Schema({9, 2, 7}), ResultSchema{{7, 2}});
  Assignment a(ResultSchema{{7, 2}});
  const Value t[3] = {99, 20, 70};
  bind.Bind(t, &a);
  EXPECT_EQ(a.values().size(), 2u);
  EXPECT_EQ(a.ValueOf(7), 70u);
  EXPECT_EQ(a.ValueOf(2), 20u);
}

// A chunk over (v0, v1) sorted by v1, with v1 values 2, 3 x3, 5, 8.
MemChunk SortedChunk(extmem::Device* dev) {
  MemChunk chunk(Schema({0, 1}), dev);
  const Tuple rows[] = {{10, 2}, {11, 3}, {12, 3}, {13, 3}, {14, 5}, {15, 8}};
  for (const Tuple& t : rows) chunk.Append(t);
  return chunk;
}

std::vector<Value> SortedMatches(const JoinKernel& k, const MemChunk& chunk,
                                 Value key) {
  std::vector<Value> first_cols;
  k.ForEachSortedMatch(chunk, key,
                       [&](const Value* t) { first_cols.push_back(t[0]); });
  return first_cols;
}

std::vector<Value> ScannedMatches(const JoinKernel& k, const MemChunk& chunk,
                                  Value key) {
  std::vector<Value> first_cols;
  k.ForEachMatch(chunk, &key,
                 [&](const Value* t) { first_cols.push_back(t[0]); });
  return first_cols;
}

TEST(JoinKernelTest, SortedLookupAbsentFirstLastRepeated) {
  extmem::Device dev(64, 8);
  const MemChunk chunk = SortedChunk(&dev);
  const JoinKernel k(chunk.schema(), Schema({1}), ResultSchema{{0, 1}});
  ASSERT_TRUE(k.SortedByKey(chunk));
  EXPECT_TRUE(SortedMatches(k, chunk, 0).empty());   // below every value
  EXPECT_TRUE(SortedMatches(k, chunk, 4).empty());   // in a gap
  EXPECT_TRUE(SortedMatches(k, chunk, 9).empty());   // above every value
  EXPECT_EQ(SortedMatches(k, chunk, 2), (std::vector<Value>{10}));  // first
  EXPECT_EQ(SortedMatches(k, chunk, 8), (std::vector<Value>{15}));  // last
  EXPECT_EQ(SortedMatches(k, chunk, 3), (std::vector<Value>{11, 12, 13}));
  for (Value key = 0; key < 10; ++key) {
    EXPECT_EQ(SortedMatches(k, chunk, key), ScannedMatches(k, chunk, key))
        << "key " << key;
  }
}

TEST(JoinKernelTest, SortedLookupOnEmptyChunk) {
  extmem::Device dev(64, 8);
  const MemChunk chunk(Schema({0, 1}), &dev);
  const JoinKernel k(chunk.schema(), Schema({1}), ResultSchema{{0, 1}});
  EXPECT_TRUE(k.SortedByKey(chunk));
  EXPECT_TRUE(SortedMatches(k, chunk, 3).empty());
}

TEST(JoinKernelTest, SortedByKeyRejectsAnUnsortedChunk) {
  extmem::Device dev(64, 8);
  MemChunk chunk(Schema({0, 1}), &dev);
  const Tuple rows[] = {{1, 10}, {2, 20}, {1, 30}};
  for (const Tuple& t : rows) chunk.Append(t);
  const JoinKernel by_v0(chunk.schema(), Schema({0}), ResultSchema{{0, 1}});
  const JoinKernel by_v1(chunk.schema(), Schema({1}), ResultSchema{{0, 1}});
  EXPECT_FALSE(by_v0.SortedByKey(chunk));
  EXPECT_TRUE(by_v1.SortedByKey(chunk));
}

TEST(JoinKernelTest, SortedLookupOnHalvedSubChunks) {
  // ProcessChunkWithReplan re-runs a tripped chunk in halves read back
  // in order: each half is still sorted, and lookups in it find the
  // part of each run the half holds.
  extmem::Device dev(64, 8);
  MemChunk chunk = SortedChunk(&dev);
  const TupleCount total = chunk.size();
  const JoinKernel k(chunk.schema(), Schema({1}), ResultSchema{{0, 1}});
  std::vector<std::vector<Value>> per_half;
  storage::ProcessChunkWithReplan(
      &dev, &chunk, chunk.schema(), [&](const MemChunk& part) {
        if (part.size() == total) {
          extmem::ThrowStatus(extmem::Status(
              extmem::StatusCode::kBudgetExceeded, "trip the full chunk"));
        }
        ASSERT_TRUE(k.SortedByKey(part));
        per_half.push_back(SortedMatches(k, part, 3));
        for (Value key = 0; key < 10; ++key) {
          EXPECT_EQ(SortedMatches(k, part, key), ScannedMatches(k, part, key));
        }
      });
  // Halves of 3: {10, 11, 12} and {13, 14, 15}; the v1 = 3 run splits.
  EXPECT_EQ(per_half, (std::vector<std::vector<Value>>{{11, 12}, {13}}));
}

}  // namespace
}  // namespace emjoin::core
