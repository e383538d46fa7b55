// Tests for src/parallel: the worker pool, the shard plan, and the
// sharded join's three contracts — correctness (union of shard joins ==
// the serial join), determinism (the emitted byte sequence and every
// per-shard I/O count are pure functions of the inputs and K, never of
// the worker count or thread interleaving), and containment (one
// shard's typed failure surfaces as the whole query's Status, after a
// prefix of the fault-free output, with independent, replayable
// per-shard fault seeds). The streaming tests pin the ordered hand-off:
// rows reach the caller's thread in shard order, in bounded batches,
// and a manifest changes neither the sequence nor the failure prefix.
#include "parallel/parallel_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/reference.h"
#include "metrics/registry.h"
#include "parallel/shard_plan.h"
#include "parallel/worker_pool.h"
#include "recover/manifest.h"
#include "tests/test_util.h"
#include "trace/tracer.h"
#include "workload/random_instance.h"

namespace emjoin::parallel {
namespace {

std::vector<storage::Relation> Line3Instance(extmem::Device* dev,
                                             double zipf_s = 0.0) {
  workload::RandomOptions opts;
  opts.seed = 42;
  opts.domain_size = 64;
  opts.zipf_s = zipf_s;
  return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                  {300, 300, 300}, opts);
}

// Rows the hand-off lets one worker queue ahead of the consumer:
// kMaxQueuedBatches * kBatchRows in parallel_join.cc.
constexpr std::uint64_t kQueueCapRows = 4 * 1024;

// An L3 large enough that every shard at K <= 8 streams more rows than
// kQueueCapRows, so its worker fills several batches and meets
// backpressure.
std::vector<storage::Relation> StreamingInstance(extmem::Device* dev) {
  workload::RandomOptions opts;
  opts.seed = 11;
  opts.domain_size = 40;
  return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                  {600, 600, 600}, opts);
}

std::vector<std::vector<Value>> SerialSorted(
    const std::vector<storage::Relation>& rels) {
  core::CollectingSink sink;
  const auto report = core::TryJoinAuto(rels, sink.AsEmitFn());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return test::Sorted(std::move(sink.results()));
}

// ---------------------------------------------------------------------
// WorkerPool.
// ---------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTaskAtEachWorkerCount) {
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), 100);
    // The pool is reusable after a barrier.
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.Wait();
    EXPECT_EQ(ran.load(), 101);
  }
}

TEST(WorkerPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait(): ~WorkerPool must finish the queue before joining.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkerPoolTest, ClampsZeroWorkersToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
}

// ---------------------------------------------------------------------
// ShardPlan.
// ---------------------------------------------------------------------

TEST(ShardPlanTest, ShardOfValueIsDeterministicAndCoversAllShards) {
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    std::vector<std::uint64_t> hits(k, 0);
    for (Value v = 0; v < 1000; ++v) {
      const std::uint32_t s = ShardOfValue(v, k);
      ASSERT_LT(s, k);
      EXPECT_EQ(s, ShardOfValue(v, k));  // pure function of (v, k)
      ++hits[s];
    }
    // The mixer must not send consecutive small values (what the
    // workload generators produce) to a strict subset of shards.
    for (const std::uint64_t h : hits) EXPECT_GT(h, 0u);
  }
}

TEST(ShardPlanTest, PicksTheAttributeCoveringTheMostData) {
  extmem::Device dev(64, 4);
  // L3 = e0(v0,v1) |><| e1(v1,v2) |><| e2(v2,v3), with e0 and e1 large:
  // attr 1 covers 16 tuples, attr 2 covers 10, so attr 1 partitions and
  // only broadcast-relation e2 is replicated.
  auto mk = [&](std::vector<storage::AttrId> attrs, std::size_t n) {
    std::vector<storage::Tuple> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back({Value(i), Value(i + 1)});
    }
    return test::MakeRel(&dev, std::move(attrs), std::move(rows));
  };
  const std::vector<storage::Relation> rels = {mk({0, 1}, 8), mk({1, 2}, 8),
                                               mk({2, 3}, 2)};
  const ShardPlan plan = PlanShards(rels, 4);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.partition_attr, storage::AttrId{1});
  ASSERT_EQ(plan.partitioned.size(), 3u);
  EXPECT_TRUE(plan.partitioned[0]);
  EXPECT_TRUE(plan.partitioned[1]);
  EXPECT_FALSE(plan.partitioned[2]);
  // Budget splits M across shards, floored at one block.
  EXPECT_EQ(plan.shard_memory, TupleCount{16});
  extmem::Device tiny(8, 4);
  const ShardPlan floor_plan =
      PlanShards({test::MakeRel(&tiny, {0, 1}, {{1, 2}})}, 4);
  EXPECT_EQ(floor_plan.shard_memory, TupleCount{4});
}

TEST(ShardPlanTest, FragmentsPartitionTheInputExactly) {
  extmem::Device src(64, 4);
  const std::vector<storage::Relation> rels = Line3Instance(&src);
  const ShardPlan plan = PlanShards(rels, 4);
  std::vector<std::unique_ptr<extmem::Device>> devs;
  std::vector<extmem::Device*> dev_ptrs;
  for (int i = 0; i < 4; ++i) {
    devs.push_back(
        std::make_unique<extmem::Device>(plan.shard_memory, src.B()));
    dev_ptrs.push_back(devs.back().get());
  }
  const auto frags = PartitionRelations(rels, plan, dev_ptrs);
  ASSERT_EQ(frags.size(), 4u);
  for (std::size_t r = 0; r < rels.size(); ++r) {
    TupleCount total = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      ASSERT_EQ(frags[s].size(), rels.size());
      EXPECT_EQ(frags[s][r].schema().attrs(), rels[r].schema().attrs());
      total += frags[s][r].size();
    }
    // Partitioned relations split without loss or duplication;
    // broadcast relations appear once per shard.
    EXPECT_EQ(total, plan.partitioned[r] ? rels[r].size()
                                         : rels[r].size() * 4);
  }
}

// ---------------------------------------------------------------------
// TryParallelJoinAuto: correctness.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, ShardedJoinMatchesSerialResults) {
  for (const std::uint32_t k : {2u, 3u, 4u, 8u}) {
    extmem::Device dev(64, 4);
    const std::vector<storage::Relation> rels = Line3Instance(&dev);
    const std::vector<std::vector<Value>> expected =
        core::ReferenceJoin(rels);

    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = k;
    options.workers = 2;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(test::Sorted(std::move(sink.results())), expected) << "K=" << k;
    EXPECT_TRUE(result->sharded);
    EXPECT_EQ(result->shards, k);
    EXPECT_EQ(result->results, expected.size());
    EXPECT_EQ(result->per_shard.size(), k);
    // max/sum bookkeeping is consistent with the per-shard reports.
    std::uint64_t sum = 0, mx = 0;
    for (const ShardReport& s : result->per_shard) {
      sum += s.io.total();
      mx = std::max(mx, s.io.total());
    }
    EXPECT_EQ(result->sum_shard_ios, sum);
    EXPECT_EQ(result->max_shard_ios, mx);
  }
}

TEST(ParallelJoinTest, ShardedStarAndZipfMatchSerial) {
  for (const double zipf : {0.0, 1.0}) {
    extmem::Device dev(64, 4);
    workload::RandomOptions opts;
    opts.seed = 7;
    opts.domain_size = 32;
    opts.zipf_s = zipf;
    const std::vector<storage::Relation> rels = workload::RandomInstance(
        &dev, query::JoinQuery::Star(3), {400, 80, 80, 80}, opts);
    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = 2;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(test::Sorted(std::move(sink.results())),
              core::ReferenceJoin(rels))
        << "zipf=" << zipf;
  }
}

// ---------------------------------------------------------------------
// TryParallelJoinAuto: determinism (the satellite claim).
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, OutputAndPerShardIoAreIdenticalAcrossWorkerCounts) {
  // The emitted sequence and every per-shard counter must be pure
  // functions of (inputs, K): W only changes the schedule.
  std::vector<std::vector<std::vector<Value>>> sequences;
  std::vector<ParallelJoinReport> reports;
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    extmem::Device dev(64, 4);
    const std::vector<storage::Relation> rels = Line3Instance(&dev);
    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    sequences.push_back(std::move(sink.results()));  // NOT sorted: exact order
    reports.push_back(*result);
  }
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[0]);
    EXPECT_EQ(reports[i].results, reports[0].results);
    EXPECT_EQ(reports[i].max_shard_ios, reports[0].max_shard_ios);
    EXPECT_EQ(reports[i].sum_shard_ios, reports[0].sum_shard_ios);
    EXPECT_EQ(reports[i].partition_io, reports[0].partition_io);
    ASSERT_EQ(reports[i].per_shard.size(), reports[0].per_shard.size());
    for (std::size_t s = 0; s < reports[0].per_shard.size(); ++s) {
      EXPECT_EQ(reports[i].per_shard[s].io, reports[0].per_shard[s].io)
          << "shard " << s;
      EXPECT_EQ(reports[i].per_shard[s].results,
                reports[0].per_shard[s].results);
      EXPECT_EQ(reports[i].per_shard[s].peak_resident,
                reports[0].per_shard[s].peak_resident);
    }
  }
}

TEST(ParallelJoinTest, SingleShardIsBitIdenticalToSerialJoin) {
  // Twin devices, same instance: K=1 must charge exactly the I/Os the
  // plain dispatcher charges and emit exactly the same sequence.
  extmem::Device serial_dev(64, 4);
  extmem::Device sharded_dev(64, 4);
  const auto serial_rels = Line3Instance(&serial_dev);
  const auto sharded_rels = Line3Instance(&sharded_dev);

  const extmem::IoStats serial_before = serial_dev.stats();
  core::CollectingSink serial_sink;
  const auto serial_report =
      core::TryJoinAuto(serial_rels, serial_sink.AsEmitFn());
  ASSERT_TRUE(serial_report.ok());
  const extmem::IoStats serial_delta = serial_dev.stats() - serial_before;

  const extmem::IoStats sharded_before = sharded_dev.stats();
  core::CollectingSink sharded_sink;
  const auto sharded =
      TryParallelJoinAuto(sharded_rels, sharded_sink.AsEmitFn(), {});
  ASSERT_TRUE(sharded.ok());
  const extmem::IoStats sharded_delta = sharded_dev.stats() - sharded_before;

  EXPECT_FALSE(sharded->sharded);
  EXPECT_TRUE(sharded->per_shard.empty());
  EXPECT_EQ(sharded_delta, serial_delta);
  EXPECT_EQ(sharded_sink.results(), serial_sink.results());
  EXPECT_EQ(sharded->auto_report.algorithm, serial_report->algorithm);
  EXPECT_EQ(sharded->results, serial_sink.results().size());
}

// ---------------------------------------------------------------------
// TryParallelJoinAuto: the streamed hand-off.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, StreamedOutputIsIdenticalAcrossWorkerCounts) {
  for (const std::uint32_t k : {4u, 8u}) {
    std::vector<std::vector<std::vector<Value>>> sequences;
    std::vector<std::vector<Value>> serial;
    for (const std::uint32_t workers : {1u, 2u, 8u}) {
      extmem::Device dev(256, 8);
      const std::vector<storage::Relation> rels = StreamingInstance(&dev);
      if (serial.empty()) serial = SerialSorted(rels);
      core::CollectingSink sink;
      ParallelOptions options;
      options.shards = k;
      options.workers = workers;
      const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const ShardReport& shard : result->per_shard) {
        ASSERT_GT(shard.results, kQueueCapRows) << "K=" << k;
      }
      EXPECT_GT(result->peak_buffered_rows, 0u);
      sequences.push_back(std::move(sink.results()));  // exact order
    }
    for (std::size_t i = 1; i < sequences.size(); ++i) {
      EXPECT_EQ(sequences[i], sequences[0]) << "K=" << k;
    }
    EXPECT_EQ(test::Sorted(std::move(sequences[0])), serial) << "K=" << k;
  }
}

TEST(ParallelJoinTest, FreshManifestStreamsTheSameSequenceAndJournalsIt) {
  for (const std::uint32_t k : {4u, 8u}) {
    for (const std::uint32_t workers : {1u, 2u, 8u}) {
      extmem::Device dev(256, 8);
      const std::vector<storage::Relation> rels = StreamingInstance(&dev);
      ParallelOptions options;
      options.shards = k;
      options.workers = workers;
      core::CollectingSink plain;
      ASSERT_TRUE(TryParallelJoinAuto(rels, plain.AsEmitFn(), options).ok());

      recover::QueryManifest manifest;
      options.manifest = &manifest;
      core::CollectingSink journaled;
      const auto result =
          TryParallelJoinAuto(rels, journaled.AsEmitFn(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->peak_buffered_rows, 0u);
      EXPECT_EQ(journaled.results(), plain.results())
          << "K=" << k << " W=" << workers;
      core::CollectingSink replayed;
      manifest.journal().ReplayInto(replayed.AsEmitFn());
      EXPECT_EQ(replayed.results(), plain.results())
          << "K=" << k << " W=" << workers;
      EXPECT_TRUE(manifest.PhaseCompleted("join"));
    }
  }
}

// A kill switch at a fixed tick of each shard device's I/O clock only
// fires on shards whose fault-free run charges more I/Os than that.
// KillOneLaterShard puts it above every shard's total but the largest,
// so exactly one shard dies, after the shards before it have streamed
// everything.
struct LaterShardKill {
  std::uint64_t kill_at = 0;
  std::uint32_t shard = 0;                  // the one that dies
  std::uint64_t rows_before = 0;            // rows of shards 0..shard-1
  std::uint64_t shard_rows = 0;             // the dying shard's rows
  std::vector<std::vector<Value>> full;     // fault-free sequence
};

extmem::Result<ParallelJoinReport> RunStreamingKilled(
    std::uint32_t workers, std::uint64_t kill_at,
    recover::QueryManifest* manifest, core::CollectingSink* sink) {
  extmem::Device dev(256, 8);
  const std::vector<storage::Relation> rels = StreamingInstance(&dev);
  ParallelOptions options;
  options.shards = 4;
  options.workers = workers;
  options.faults = true;
  options.fault_config.kill_at_ios = kill_at;
  options.manifest = manifest;
  return TryParallelJoinAuto(rels, sink->AsEmitFn(), options);
}

LaterShardKill KillOneLaterShard() {
  LaterShardKill kill;
  core::CollectingSink clean_sink;
  const auto clean =
      RunStreamingKilled(2, std::uint64_t{1} << 40, nullptr, &clean_sink);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  if (!clean.ok()) return kill;
  kill.full = std::move(clean_sink.results());

  std::vector<std::uint64_t> totals;
  for (const ShardReport& shard : clean->per_shard) {
    totals.push_back(shard.io.total());
  }
  kill.shard = static_cast<std::uint32_t>(
      std::max_element(totals.begin(), totals.end()) - totals.begin());
  std::vector<std::uint64_t> others = totals;
  others.erase(others.begin() + kill.shard);
  kill.kill_at = *std::max_element(others.begin(), others.end()) + 1;
  EXPECT_GT(kill.shard, 0u)
      << "the instance must make a later shard the largest";
  EXPECT_LT(kill.kill_at, totals[kill.shard]);
  EXPECT_GT(kill.kill_at,
            clean->per_shard[kill.shard].tags.at("partition").total());
  for (std::uint32_t s = 0; s < kill.shard; ++s) {
    kill.rows_before += clean->per_shard[s].results;
  }
  kill.shard_rows = clean->per_shard[kill.shard].results;
  return kill;
}

TEST(ParallelJoinTest, LaterShardFailureEmitsAPrefixAndItsStatus) {
  const LaterShardKill kill = KillOneLaterShard();
  ASSERT_FALSE(kill.full.empty());
  for (const std::uint32_t workers : {1u, 4u}) {
    core::CollectingSink sink;
    const auto failed =
        RunStreamingKilled(workers, kill.kill_at, nullptr, &sink);
    ASSERT_FALSE(failed.ok()) << "W=" << workers;
    EXPECT_EQ(failed.status().code(), extmem::StatusCode::kIoError);
    EXPECT_NE(failed.status().message().find("killed"), std::string::npos)
        << failed.status().ToString();
    const std::vector<std::vector<Value>>& got = sink.results();
    EXPECT_GE(got.size(), kill.rows_before) << "W=" << workers;
    ASSERT_LE(got.size(), kill.rows_before + kill.shard_rows);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), kill.full.begin()))
        << "W=" << workers << ": not a prefix of the fault-free sequence";
  }
}

TEST(ParallelJoinTest, KilledManifestRunJournalsItsPrefixAndResumesTheRest) {
  const LaterShardKill kill = KillOneLaterShard();
  ASSERT_FALSE(kill.full.empty());
  for (const std::uint32_t workers : {1u, 4u}) {
    recover::QueryManifest manifest;
    core::CollectingSink pre;
    const auto failed =
        RunStreamingKilled(workers, kill.kill_at, &manifest, &pre);
    ASSERT_FALSE(failed.ok()) << "W=" << workers;
    EXPECT_EQ(failed.status().code(), extmem::StatusCode::kIoError);
    // The delivered rows are a prefix of the fault-free sequence, and
    // the query journal holds exactly them.
    EXPECT_GE(pre.results().size(), kill.rows_before) << "W=" << workers;
    ASSERT_LE(pre.results().size(), kill.full.size());
    EXPECT_TRUE(std::equal(pre.results().begin(), pre.results().end(),
                           kill.full.begin()))
        << "W=" << workers << ": not a prefix of the fault-free sequence";
    core::CollectingSink journaled;
    manifest.journal().ReplayInto(journaled.AsEmitFn());
    EXPECT_EQ(journaled.results(), pre.results()) << "W=" << workers;
    EXPECT_FALSE(manifest.PhaseCompleted("join"));

    // The resume delivers exactly the rest, in order. Shards that
    // finished before the kill replay their child journals and charge
    // no I/O beyond receiving their fragments.
    core::CollectingSink post;
    const auto resumed = RunStreamingKilled(workers, std::uint64_t{1} << 40,
                                            &manifest, &post);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    std::vector<std::vector<Value>> all = pre.results();
    all.insert(all.end(), post.results().begin(), post.results().end());
    EXPECT_EQ(all, kill.full) << "W=" << workers;
    EXPECT_TRUE(manifest.PhaseCompleted("join"));
    for (std::uint32_t s = 0; s < kill.shard; ++s) {
      const ShardReport& shard = resumed->per_shard[s];
      EXPECT_EQ(shard.report.algorithm, "resume") << "shard " << s;
      EXPECT_EQ(shard.io.total(), shard.tags.at("partition").total())
          << "shard " << s;
    }
  }
}

TEST(ParallelJoinTest, ConsumerExceptionPropagatesWithoutHanging) {
  constexpr std::uint64_t kThrowAt = 3 * kQueueCapRows;
  for (const std::uint32_t workers : {1u, 4u}) {
    extmem::Device dev(256, 8);
    const std::vector<storage::Relation> rels = StreamingInstance(&dev);
    std::uint64_t seen = 0;
    const core::EmitFn emit = [&seen](std::span<const Value>) {
      if (++seen == kThrowAt) throw std::runtime_error("consumer gave up");
    };
    ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    EXPECT_THROW(static_cast<void>(TryParallelJoinAuto(rels, emit, options)),
                 std::runtime_error)
        << "W=" << workers;
    EXPECT_EQ(seen, kThrowAt);
    // Nothing outlived the call: the same device runs a clean query.
    core::CountingSink sink;
    const auto again = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_GT(again->results, kThrowAt);
  }
}

TEST(ParallelJoinTest, EmitRunsOnTheCallingThread) {
  extmem::Device dev(256, 8);
  const std::vector<storage::Relation> rels = StreamingInstance(&dev);
  const auto caller = std::this_thread::get_id();
  std::uint64_t rows = 0;
  std::uint64_t elsewhere = 0;
  ParallelOptions options;
  options.shards = 4;
  options.workers = 4;
  const auto result = TryParallelJoinAuto(
      rels,
      [&](std::span<const Value>) {
        ++rows;
        if (std::this_thread::get_id() != caller) ++elsewhere;
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(rows, result->results);
  EXPECT_EQ(elsewhere, 0u);
}

TEST(ParallelJoinTest, BufferedRowsStayBoundedBehindASlowConsumer) {
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    extmem::Device dev(256, 8);
    const std::vector<storage::Relation> rels = StreamingInstance(&dev);
    std::uint64_t rows = 0;
    ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    // Stalls once per kilo-row, so the workers run far ahead and block.
    const auto result = TryParallelJoinAuto(
        rels,
        [&rows](std::span<const Value>) {
          if (++rows % 1024 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        },
        options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(rows, result->results);
    EXPECT_GT(result->peak_buffered_rows, 0u);
    EXPECT_LE(result->peak_buffered_rows, workers * kQueueCapRows)
        << "W=" << workers;
  }
}

// ---------------------------------------------------------------------
// Observability merge.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, MergedMetricsCarryShardLabels) {
  extmem::Device dev(64, 4);
  const auto rels = Line3Instance(&dev);
  metrics::Registry merged;
  core::CountingSink sink;
  ParallelOptions options;
  options.shards = 2;
  const auto result =
      TryParallelJoinAuto(rels, sink.AsEmitFn(), options, &merged);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(merged.empty());
  const std::string text = merged.ToPrometheusText();
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos) << text;
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos) << text;
  // Untagged device totals exist per shard, so totals can be compared
  // across shards straight from the exposition.
  EXPECT_NE(text.find("emjoin_peak_resident_tuples{shard=\"0\"}"),
            std::string::npos)
      << text;
}

TEST(RegistryMergeTest, ExtraLabelsKeepShardSeriesDistinct) {
  metrics::Registry shard0, shard1, merged;
  shard0.GetCounter("emjoin_reads", {{"tag", "sort"}})->Add(3);
  shard1.GetCounter("emjoin_reads", {{"tag", "sort"}})->Add(5);
  merged.MergeFrom(shard0, {{"shard", "0"}});
  merged.MergeFrom(shard1, {{"shard", "1"}});
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "0"}})
          ->value(),
      3u);
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "1"}})
          ->value(),
      5u);
  // Merging the same series again accumulates instead of overwriting.
  merged.MergeFrom(shard0, {{"shard", "0"}});
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "0"}})
          ->value(),
      6u);
}

TEST(ParallelJoinTest, TracerAbsorbsOneSubtreePerShard) {
  extmem::Device dev(64, 4);
  trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const auto rels = Line3Instance(&dev);
  core::CountingSink sink;
  ParallelOptions options;
  options.shards = 2;
  const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_TRUE(result.ok());
  dev.set_tracer(nullptr);

  std::uint64_t shard_roots = 0;
  std::uint64_t shard_children = 0;
  for (const trace::SpanRecord& s : tracer.spans()) {
    const std::string_view name = s.name;
    if (name == "shard 0" || name == "shard 1") {
      ++shard_roots;
      EXPECT_EQ(s.parent, trace::kNoSpan);
      EXPECT_TRUE(s.closed);
    } else if (s.parent != trace::kNoSpan) {
      const std::string_view parent_name =
          tracer.spans()[s.parent].name;
      if (parent_name == "shard 0" || parent_name == "shard 1") {
        ++shard_children;
        EXPECT_EQ(s.depth, tracer.spans()[s.parent].depth + 1);
      }
    }
  }
  EXPECT_EQ(shard_roots, 2u);
  EXPECT_GT(shard_children, 0u);
}

// ---------------------------------------------------------------------
// Fault containment.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, ShardFailureSurfacesAsWholeQueryStatus) {
  extmem::Device dev(64, 4);
  const auto rels = Line3Instance(&dev);
  core::CollectingSink sink;
  ParallelOptions options;
  options.shards = 4;
  options.workers = 2;
  options.faults = true;
  options.fault_config.seed = 1;
  options.fault_config.read_fail = 1.0;  // every retry budget exhausts
  options.fault_config.retry.max_retries = 1;
  const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), extmem::StatusCode::kIoError)
      << result.status().ToString();
  // The failed query emits nothing: no partial shard output escapes.
  EXPECT_TRUE(sink.results().empty());
}

TEST(ParallelJoinTest, ShardFaultSchedulesAreSeededAndReplayable) {
  auto run = [](std::uint64_t seed) {
    extmem::Device dev(64, 4);
    const auto rels = Line3Instance(&dev);
    core::CountingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = 2;
    options.faults = true;
    options.fault_config.seed = seed;
    options.fault_config.read_fail = 0.02;  // transient: retries recover
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  };

  const ParallelJoinReport a = run(42);
  const ParallelJoinReport b = run(42);
  const ParallelJoinReport c = run(43);

  // Same base seed: every shard's fault schedule replays exactly, and
  // the join still produces the full result set.
  EXPECT_GT(a.faults.read_faults, 0u);
  EXPECT_EQ(a.results, c.results);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    EXPECT_EQ(a.per_shard[s].faults, b.per_shard[s].faults) << "shard " << s;
    sum += a.per_shard[s].faults.read_faults;
  }
  EXPECT_EQ(a.faults.read_faults, sum);

  // Different base seed: shard i's seed is base + i, so at least one
  // shard must draw a different schedule.
  bool any_diff = false;
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    if (!(a.per_shard[s].faults == c.per_shard[s].faults)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace emjoin::parallel
