#include "core/emit.h"

#include <gtest/gtest.h>

#include "core/join_kernel.h"
#include "tests/test_util.h"

namespace emjoin::core {
namespace {

TEST(ResultSchemaTest, MakeResultSchemaFirstSeenOrder) {
  extmem::Device dev(16, 4);
  const auto r1 = test::MakeRel(&dev, {3, 1}, {});
  const auto r2 = test::MakeRel(&dev, {1, 7}, {});
  const ResultSchema schema = MakeResultSchema({r1, r2});
  EXPECT_EQ(schema.attrs, (std::vector<storage::AttrId>{3, 1, 7}));
  EXPECT_EQ(schema.PositionOf(7), 2u);
  EXPECT_EQ(schema.PositionOf(99), 3u);  // "not found" == size()
}

TEST(AssignmentTest, BindWritesAtSchemaPositions) {
  Assignment a(ResultSchema{{10, 20, 30}});
  const storage::Schema phys({20, 10});
  const Value t[2] = {200, 100};
  BindMap(phys, a.schema()).Bind(t, &a);
  EXPECT_EQ(a.ValueOf(10), 100u);
  EXPECT_EQ(a.ValueOf(20), 200u);
  EXPECT_EQ(a.values().size(), 3u);
}

TEST(AssignmentTest, BindIgnoresAttributesOutsideSchema) {
  Assignment a(ResultSchema{{1}});
  const storage::Schema phys({1, 2});
  const Value t[2] = {5, 6};
  BindMap(phys, a.schema()).Bind(t, &a);  // attr 2 silently dropped
  EXPECT_EQ(a.ValueOf(1), 5u);
}

TEST(AssignmentTest, LaterBindsOverwrite) {
  Assignment a(ResultSchema{{1, 2}});
  const storage::Schema s1({1});
  const storage::Schema s2({1, 2});
  const Value t1[1] = {7};
  const Value t2[2] = {9, 11};
  BindMap(s1, a.schema()).Bind(t1, &a);
  BindMap(s2, a.schema()).Bind(t2, &a);
  EXPECT_EQ(a.ValueOf(1), 9u);
  EXPECT_EQ(a.ValueOf(2), 11u);
}

TEST(SinksTest, CountingAndCollecting) {
  CountingSink count;
  CollectingSink collect;
  const std::vector<Value> row = {1, 2, 3};
  count.AsEmitFn()(row);
  count.AsEmitFn()(row);
  collect.AsEmitFn()(row);
  EXPECT_EQ(count.count(), 2u);
  ASSERT_EQ(collect.results().size(), 1u);
  EXPECT_EQ(collect.results()[0], row);
}

TEST(IoTagTest, ScopedTagAttributesCharges) {
  extmem::Device dev(16, 4);
  dev.ChargeReadBlocks(2);  // default "scan"
  {
    extmem::ScopedIoTag tag(&dev, "sort");
    dev.ChargeWriteBlocks(3);
    {
      extmem::ScopedIoTag inner(&dev, "semijoin");
      dev.ChargeReadBlocks(1);
    }
    dev.ChargeReadBlocks(1);  // back to "sort"
  }
  dev.ChargeReadBlocks(4);  // back to "scan"

  std::uint64_t scan = 0, sort = 0, semi = 0;
  for (const auto& [tag, stats] : dev.per_tag()) {
    const std::string name = tag;
    if (name == "scan") scan = stats.total();
    if (name == "sort") sort = stats.total();
    if (name == "semijoin") semi = stats.total();
  }
  EXPECT_EQ(scan, 6u);
  EXPECT_EQ(sort, 4u);
  EXPECT_EQ(semi, 1u);
  EXPECT_EQ(dev.stats().total(), 11u);
  EXPECT_NE(dev.TagReport().find("sort=4"), std::string::npos);
}

}  // namespace
}  // namespace emjoin::core
