// The checking sink and one top-level query call.
#include <algorithm>

#include "core/dispatch.h"
#include "perfbench.h"

namespace emjoin::perfbench {

void CheckSink::Begin(Clock::time_point start) {
  start_ = start;
  batch_rows_ = 0;
  seen_ = rows_ = set_digest_ = seq_digest_ = 0;
  first_row_ms_ = -1.0;
}

void CheckSink::Flush() {
  if (batch_rows_ == 0) return;
  spans_->Open("emit");
  const Value* row = batch_.data();
  for (std::size_t i = 0; i < batch_rows_; ++i, row += width_) {
    Fold(std::span<const Value>(row, width_));
  }
  batch_rows_ = 0;
  spans_->Close();
}

void CheckSink::FirstRow(std::size_t width) {
  first_row_ms_ = MsBetween(start_, Clock::now());
  width_ = width;
  if (spans_ != nullptr) batch_.resize(kBatchRows * width_);
}

void CheckSink::Finish() {
  if (spans_ != nullptr) Flush();
}

namespace {

void AddTags(const std::map<std::string, extmem::IoStats, std::less<>>& after,
             const std::map<std::string, extmem::IoStats, std::less<>>& before,
             QueryResult* r) {
  for (const auto& [tag, io] : after) {
    const auto it = before.find(tag);
    const extmem::IoStats delta = it == before.end() ? io : io - it->second;
    if (delta.total() > 0) r->tag_ios[tag] += delta.total();
  }
}

}  // namespace

QueryResult RunQuery(Instance& inst, CheckSink& sink, bool as_sharded,
                     metrics::Registry* merged_metrics) {
  extmem::Device* dev = inst.dev.get();
  const extmem::IoStats before = dev->stats();
  const auto tags_before = dev->per_tag();
  dev->gauge().ResetHighWater();

  QueryResult r;
  const Clock::time_point start = Clock::now();
  sink.Begin(start);
  if (as_sharded) {
    parallel::ParallelOptions opts;
    opts.shards = kShards;
    opts.workers = kWorkers;
    auto result = parallel::TryParallelJoinAuto(inst.rels, sink.Fn(), opts,
                                                merged_metrics);
    if (result.ok()) {
      r.parallel = *std::move(result);
    } else {
      r.status = result.status();
    }
  } else {
    auto result = core::TryJoinAuto(inst.rels, sink.Fn());
    if (!result.ok()) r.status = result.status();
  }
  sink.Finish();
  r.wall_ms = MsBetween(start, Clock::now());

  const extmem::IoStats delta = dev->stats() - before;
  r.ios = delta.total();
  r.writes = delta.block_writes;
  r.peak_mem = dev->gauge().high_water();
  AddTags(dev->per_tag(), tags_before, &r);
  for (const parallel::ShardReport& shard : r.parallel.per_shard) {
    r.ios += shard.io.total();
    r.writes += shard.io.block_writes;
    r.peak_mem = std::max(r.peak_mem, shard.peak_resident);
    AddTags(shard.tags, {}, &r);
  }
  return r;
}

bool CheckQuery(const QueryResult& r, const CheckSink& sink,
                Expectation* expect, std::string* why) {
  if (!r.status.ok()) {
    *why += "status " + r.status.ToString() + "; ";
    return false;
  }
  bool ok = true;
  if (sink.rows() != expect->ref.rows) {
    *why += "rows " + std::to_string(sink.rows()) + " != reference " +
            std::to_string(expect->ref.rows) + "; ";
    ok = false;
  }
  if (sink.set_digest() != expect->ref.set_digest) {
    *why += "row digest differs from reference; ";
    ok = false;
  }
  if (!expect->have_first) {
    expect->have_first = true;
    expect->seq_digest = sink.seq_digest();
    expect->ios = r.ios;
    expect->peak_mem = r.peak_mem;
    return ok;
  }
  if (sink.seq_digest() != expect->seq_digest) {
    *why += "emission order differs between queries; ";
    ok = false;
  }
  if (r.ios != expect->ios || r.peak_mem != expect->peak_mem) {
    *why += "I/O or peak memory differs between queries; ";
    ok = false;
  }
  return ok;
}

}  // namespace emjoin::perfbench
