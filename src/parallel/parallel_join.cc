#include "parallel/parallel_join.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "core/thread_annotations.h"
#include "extmem/device.h"
#include "metrics/collect.h"
#include "metrics/registry.h"
#include "parallel/shard_plan.h"
#include "parallel/worker_pool.h"
#include "recover/manifest.h"
#include "recover/resume.h"
#include "trace/tracer.h"

namespace emjoin::parallel {

namespace {

// Span names are const char* literals everywhere else; shard roots are
// the one dynamic case, so intern them. Called only once every shard
// has finished, on the orchestrating thread.
const char* InternShardName(std::uint32_t shard) {
  static std::set<std::string> names;
  return names.insert("shard " + std::to_string(shard)).first->c_str();
}

// The hand-off's two sizes. A worker hands its shard's rows over in
// batches of kBatchRows; a shard may queue at most kMaxQueuedBatches of
// them ahead of the consumer, and all shards behind the head of the
// drain order share (W - 1) * kMaxQueuedBatches, so at most
// W * kMaxQueuedBatches batches are queued at once.
constexpr std::uint64_t kBatchRows = 1024;
constexpr std::size_t kMaxQueuedBatches = 4;

// Ordered hand-off from the shard workers to the orchestrating thread.
// Each shard has its own FIFO lane of row batches. The consumer drains
// lane 0 while shards still run, then lane 1, and so on, so rows reach
// `emit` in shard order without a barrier. Backpressure bounds the
// queued rows: a worker whose lane (or the shared share of the lanes
// behind the head) is full blocks until the consumer catches up. The
// head shard is always running or finished — WorkerPool dispatches in
// FIFO order and every shard before the head has closed — so the drain
// cannot deadlock.
//
// Waits go through condition_variable_any on mu_ itself, under the
// lock_guard that holds it: the thread-safety analysis then sees mu_
// held across every wait loop and needs no opt-out.
class ShardStream {
 public:
  struct Batch {
    std::vector<Value> values;  // row-major
    std::uint64_t rows = 0;
  };

  ShardStream(std::uint32_t shards, std::uint32_t workers)
      : lanes_(shards),
        behind_head_cap_(std::size_t{workers - 1} * kMaxQueuedBatches) {}

  // Worker side: queues `batch` on `shard`'s lane, blocking while there
  // is no room. False (and the batch is dropped) once the stream is
  // aborted.
  bool Push(std::uint32_t shard, Batch batch) EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (!aborted_ && !HasRoom(shard)) space_cv_.wait(mu_);
    if (aborted_) return false;
    queued_rows_ += batch.rows;
    peak_rows_ = std::max(peak_rows_, queued_rows_);
    ++queued_batches_;
    lanes_[shard].batches.push_back(std::move(batch));
    if (shard == head_) data_cv_.notify_one();
    return true;
  }

  // Worker side: `shard` pushes nothing more. Everything the worker
  // wrote before Close is visible to the consumer once Next returns
  // false for this shard.
  void Close(std::uint32_t shard) EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    lanes_[shard].closed = true;
    if (shard == head_) data_cv_.notify_one();
  }

  // Consumer side: makes `shard` the head and waits for its next batch.
  // False once the shard is closed and drained, or the stream aborted.
  bool Next(std::uint32_t shard, Batch* out) EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shard != head_) {
      head_ = shard;
      space_cv_.notify_all();  // the new head's lane leaves the shared share
    }
    Lane& lane = lanes_[shard];
    while (!aborted_ && lane.batches.empty() && !lane.closed) {
      data_cv_.wait(mu_);
    }
    if (aborted_ || lane.batches.empty()) return false;
    *out = std::move(lane.batches.front());
    lane.batches.pop_front();
    queued_rows_ -= out->rows;
    --queued_batches_;
    space_cv_.notify_all();
    return true;
  }

  // Wakes every blocked worker; later pushes fail and their rows drop.
  void Abort() EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    space_cv_.notify_all();
    data_cv_.notify_all();
  }

  bool aborted() const EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }

  std::uint64_t peak_rows() const EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    return peak_rows_;
  }

 private:
  struct Lane {
    std::deque<Batch> batches;
    bool closed = false;
  };

  bool HasRoom(std::uint32_t shard) const REQUIRES(mu_) {
    if (lanes_[shard].batches.size() >= kMaxQueuedBatches) return false;
    if (shard == head_) return true;
    return queued_batches_ - lanes_[head_].batches.size() < behind_head_cap_;
  }

  mutable std::mutex mu_;
  std::condition_variable_any space_cv_ WAITS_ON(mu_);  // room to push
  std::condition_variable_any data_cv_ WAITS_ON(mu_);   // head has a batch
  std::vector<Lane> lanes_ GUARDED_BY(mu_);
  std::uint32_t head_ GUARDED_BY(mu_) = 0;
  std::size_t queued_batches_ GUARDED_BY(mu_) = 0;
  std::uint64_t queued_rows_ GUARDED_BY(mu_) = 0;
  std::uint64_t peak_rows_ GUARDED_BY(mu_) = 0;
  bool aborted_ GUARDED_BY(mu_) = false;
  const std::size_t behind_head_cap_;
};

// One shard's result: its row count and typed outcome. Only the shard's
// worker writes these; the orchestrator reads them after the shard has
// closed its lane.
struct ShardRun {
  std::uint64_t rows = 0;
  std::optional<extmem::Result<core::AutoJoinReport>> outcome;
};

// Hands the full `batch` to the consumer and starts a new one. Throws
// once the stream is aborted; JoinShard turns that into the shard's
// Status, which never decides the query's (an earlier shard or the
// consumer did).
void FlushBatch(std::uint32_t shard, std::size_t width, ShardStream* stream,
                ShardStream::Batch* batch) {
  ShardStream::Batch full = std::exchange(*batch, {});
  batch->values.reserve(kBatchRows * width);
  if (!stream->Push(shard, std::move(full))) {
    extmem::ThrowStatus(extmem::Status(extmem::StatusCode::kInternal,
                                       "shard output stream aborted"));
  }
}

// Pushes one shard's rows in the order its fault-free run emits them.
// With a child manifest, the rows an earlier attempt journaled come
// first, replayed at zero device I/O; then, unless that attempt
// finished the shard, the join re-runs through the child journal, which
// suppresses the rows just replayed.
extmem::Result<core::AutoJoinReport> JoinShard(
    const std::vector<storage::Relation>& shard_rels,
    recover::QueryManifest* child, const core::EmitFn& push) {
  if (child != nullptr) {
    extmem::Result<core::AutoJoinReport> replayed = extmem::CatchStatus([&] {
      child->journal().ReplayInto(push);
      return core::AutoJoinReport{"resume",
                                  "shard join already completed in manifest"};
    });
    if (!replayed.ok() || child->PhaseCompleted("join")) return replayed;
  }
  if (std::any_of(shard_rels.begin(), shard_rels.end(),
                  [](const storage::Relation& r) { return r.empty(); })) {
    // An empty fragment empties the whole shard-local join; skip the
    // operator instead of paying its fixed I/O for zero rows.
    if (child != nullptr) child->MarkPhase("join");
    return core::AutoJoinReport{"empty-shard",
                                "an input fragment is empty on this shard"};
  }
  if (child == nullptr) return core::TryJoinAuto(shard_rels, push);
  extmem::Result<core::AutoJoinReport> joined = core::TryJoinAuto(
      shard_rels, core::JournaledEmit(&child->journal(), push));
  if (joined.ok()) child->MarkPhase("join");
  return joined;
}

// Shard `shard`'s task: the dispatcher over its fragments on its own
// device, its rows streamed in batches through `stream`, whose lane it
// closes last. Every failure becomes the shard's Status, so no
// exception crosses the thread boundary.
void RunShard(std::uint32_t shard, std::size_t width,
              const std::vector<storage::Relation>& shard_rels,
              extmem::Device* dev, recover::QueryManifest* child,
              ShardStream* stream, ShardRun* run) {
  const auto lifecycle = [dev](extmem::ObsEventKind kind,
                               std::uint64_t outcome) {
    if (extmem::IoEventSink* sink = dev->events()) {
      sink->OnEvent(extmem::ObsEvent{kind, "shard", outcome});
    }
  };
  lifecycle(extmem::ObsEventKind::kShardStart, 0);
  if (stream->aborted()) {
    // An earlier shard failed or the consumer threw: skip the work.
    run->outcome = extmem::Status(extmem::StatusCode::kInternal,
                                  "shard skipped: output stream aborted");
  } else {
    ShardStream::Batch batch;
    batch.values.reserve(kBatchRows * width);
    const core::EmitFn push = [&](std::span<const Value> row) {
      batch.values.insert(batch.values.end(), row.begin(), row.end());
      ++run->rows;
      if (++batch.rows == kBatchRows) {
        FlushBatch(shard, width, stream, &batch);
      }
    };
    run->outcome = JoinShard(shard_rels, child, push);
    // The last partial batch goes out even after a failure: the consumer
    // sees every row the shard emitted before failing, as in TryJoinAuto.
    // A push into an aborted stream just drops it.
    if (batch.rows > 0) {
      static_cast<void>(stream->Push(shard, std::move(batch)));
    }
  }
  lifecycle(extmem::ObsEventKind::kShardFinish, run->outcome->ok() ? 1 : 0);
  stream->Close(shard);
}

}  // namespace

extmem::Result<ParallelJoinReport> TryParallelJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    const ParallelOptions& options, metrics::Registry* merged_metrics) {
  ParallelJoinReport report;
  report.shards = std::max<std::uint32_t>(options.shards, 1);
  report.workers = std::max<std::uint32_t>(options.workers, 1);

  // K=1 (or degenerate input): the exact serial path on the source
  // device — no partitioning, no extra devices, bit-identical I/O.
  if (report.shards == 1 || rels.empty()) {
    std::uint64_t rows = 0;
    const core::EmitFn counted = [&rows, &emit](std::span<const Value> row) {
      ++rows;
      emit(row);
    };
    if (options.manifest != nullptr) {
      extmem::Result<recover::ResumeReport> r =
          recover::TryResumableJoinAuto(rels, counted, options.manifest);
      if (!r.ok()) return r.status();
      report.auto_report = r->join;
      report.results = rows;
      return report;
    }
    extmem::Result<core::AutoJoinReport> r = core::TryJoinAuto(rels, counted);
    if (!r.ok()) return r.status();
    report.auto_report = std::move(r).value();
    report.results = rows;
    return report;
  }

  extmem::Device* src = rels.front().device();
  const ShardPlan plan = PlanShards(rels, report.shards);
  const std::uint32_t k = plan.shards;
  report.sharded = true;
  report.partition_attr = plan.partition_attr;

  // Bind the manifest (fingerprint check) and create every shard child
  // on the orchestrating thread — workers then touch only their own
  // child, the same confinement discipline as devices and tracers.
  recover::QueryManifest* manifest = options.manifest;
  std::vector<recover::QueryManifest*> children(k, nullptr);
  if (manifest != nullptr) {
    if (extmem::Status s = manifest->Bind(rels, k); !s.ok()) return s;
    for (std::uint32_t s = 0; s < k; ++s) children[s] = &manifest->Shard(s);
  }

  // Shard-local substrate: each shard owns a Device with budget
  // max(M/K, B), plus its own Tracer / Registry / FaultInjector when the
  // corresponding sink is active on the source. Nothing mutable but the
  // output hand-off is shared across shards, which is what makes the
  // worker pool safe and the merged report deterministic. Declared
  // before the fragments so relations die before the devices backing
  // their files.
  std::vector<std::unique_ptr<extmem::Device>> devices;
  std::vector<std::unique_ptr<trace::Tracer>> tracers(k);
  std::vector<std::unique_ptr<metrics::Registry>> registries(k);
  std::vector<std::unique_ptr<extmem::FaultInjector>> injectors(k);
  std::vector<extmem::Device*> raw_devices;
  devices.reserve(k);
  raw_devices.reserve(k);
  const bool faulted = options.faults && options.fault_config.Active();
  for (std::uint32_t s = 0; s < k; ++s) {
    devices.push_back(
        std::make_unique<extmem::Device>(plan.shard_memory, src->B()));
    extmem::Device* dev = devices.back().get();
    if (src->tracer() != nullptr) {
      tracers[s] = std::make_unique<trace::Tracer>();
      dev->set_tracer(tracers[s].get());
    }
    if (merged_metrics != nullptr) {
      registries[s] = std::make_unique<metrics::Registry>();
      dev->set_metrics(registries[s].get());
    }
    if (faulted) {
      extmem::FaultConfig config = options.fault_config;
      config.seed = options.fault_config.seed + s;
      injectors[s] = std::make_unique<extmem::FaultInjector>(config);
      dev->set_fault_injector(injectors[s].get());
    }
    if (src->events() != nullptr) {
      // Live telemetry: each shard device feeds the source's event sink
      // through a per-shard view that stamps the shard id on every
      // callback. Unlike tracers/registries this is not merged after the
      // run — the sink (obs::Telemetry) aggregates concurrently and
      // must therefore be thread-safe, per the device.h contract.
      dev->set_events(src->events()->ShardView(s));
    }
    raw_devices.push_back(dev);
  }

  // Partition on the orchestrating thread. Reads charge the source
  // device (whose own injector, if any, can fail them); fragment writes
  // charge the shard devices under their injectors — so a fault during
  // redistribution surfaces here as the query's Status.
  const extmem::IoStats src_before = src->stats();
  extmem::Result<std::vector<std::vector<storage::Relation>>> partitioned =
      extmem::CatchStatus(
          [&] { return PartitionRelations(rels, plan, raw_devices); });
  if (!partitioned.ok()) return partitioned.status();
  const std::vector<std::vector<storage::Relation>> fragments =
      std::move(partitioned).value();
  report.partition_io = src->stats() - src_before;

  // Each shard streams its rows through the hand-off and the
  // orchestrator emits them in shard order while shards still run. With
  // a manifest, emission goes through the query-level watermark, which
  // suppresses every row an earlier attempt already delivered.
  const std::size_t width = core::MakeResultSchema(rels).attrs.size();
  const core::EmitFn journaled =
      manifest != nullptr ? core::JournaledEmit(&manifest->journal(), emit)
                          : core::EmitFn();
  const core::EmitFn& out = manifest != nullptr ? journaled : emit;
  std::vector<ShardRun> runs(k);
  ShardStream stream(k, report.workers);
  std::optional<extmem::Status> failure;
  std::exception_ptr thrown;  // by `emit`, rethrown once the pool joined
  {
    WorkerPool pool(report.workers);
    try {
      for (std::uint32_t s = 0; s < k; ++s) {
        pool.Submit([s, width, &runs, &fragments, &raw_devices, &children,
                     &stream] {
          RunShard(s, width, fragments[s], raw_devices[s], children[s],
                   &stream, &runs[s]);
        });
      }
      // Drain the lanes in shard order: the emitted sequence depends
      // only on the inputs and K, never on worker interleaving. The
      // first failing shard in shard order decides the Status, after
      // the rows it streamed before failing.
      ShardStream::Batch batch;
      for (std::uint32_t s = 0; s < k && !failure.has_value(); ++s) {
        while (stream.Next(s, &batch)) {
          for (std::uint64_t r = 0; r < batch.rows; ++r) {
            out(std::span<const Value>(batch.values.data() + r * width,
                                       width));
          }
        }
        if (!runs[s].outcome->ok()) failure = runs[s].outcome->status();
      }
    } catch (...) {
      thrown = std::current_exception();
    }
    // Wake and release the workers of shards nobody will drain.
    if (failure.has_value() || thrown != nullptr) stream.Abort();
  }  // joins the pool: no worker outlives the call
  if (thrown != nullptr) std::rethrow_exception(thrown);
  if (failure.has_value()) return *std::move(failure);
  report.peak_buffered_rows = stream.peak_rows();
  if (manifest != nullptr) manifest->MarkPhase("join");

  // Every shard has finished: merge shard observability into the
  // source's sinks.
  report.per_shard.reserve(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    ShardReport sr;
    sr.io = devices[s]->stats();
    sr.tags = devices[s]->per_tag();
    sr.peak_resident = devices[s]->gauge().high_water();
    if (injectors[s] != nullptr) sr.faults = injectors[s]->stats();
    sr.results = runs[s].rows;
    sr.report = runs[s].outcome->value();

    report.results += sr.results;
    const std::uint64_t total = sr.io.total();
    report.sum_shard_ios += total;
    report.max_shard_ios = std::max(report.max_shard_ios, total);
    report.faults = report.faults + sr.faults;

    if (merged_metrics != nullptr) {
      metrics::CollectDelta(*devices[s], {}, registries[s].get());
      merged_metrics->MergeFrom(*registries[s],
                                {{"shard", std::to_string(s)}});
    }
    if (tracers[s] != nullptr) {
      src->tracer()->Absorb(*tracers[s], InternShardName(s));
    }
    if (extmem::IoEventSink* sink = devices[s]->events()) {
      sink->OnEvent(extmem::ObsEvent{extmem::ObsEventKind::kWatermark,
                                     "peak_resident_tuples",
                                     sr.peak_resident});
    }
    report.per_shard.push_back(std::move(sr));
  }

  // The dispatcher's pick for the (first non-empty) fragment stands in
  // for the whole run; fragments of one instance agree in practice.
  report.auto_report.algorithm = "empty-shard";
  for (const ShardReport& sr : report.per_shard) {
    if (sr.report.algorithm != "empty-shard") {
      report.auto_report.algorithm = sr.report.algorithm;
      break;
    }
  }
  report.auto_report.reason =
      "hash-partitioned " + std::to_string(k) + " ways on attr " +
      std::to_string(plan.partition_attr) + ", " +
      std::to_string(report.workers) + " workers";
  return report;
}

}  // namespace emjoin::parallel
