#include "obs/progress.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "extmem/device.h"
#include "extmem/event_hook.h"
#include "gens/psi.h"
#include "query/hypergraph.h"

namespace emjoin::obs {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

const char* ShardStateName(int state) {
  switch (state) {
    case 1: return "running";
    case 2: return "finished";
    case 3: return "failed";
    default: return "idle";
  }
}

}  // namespace

std::optional<long double> PlannedJoinIos(
    const std::vector<storage::Relation>& rels, std::uint32_t shards) {
  query::JoinQuery q;
  for (const storage::Relation& r : rels) q.AddRelation(r.schema(), r.size());
  if (!q.IsBergeAcyclic()) return std::nullopt;
  const extmem::Device* dev = rels.front().device();
  long double expected =
      gens::PredictBoundWorstCase(q, dev->M(), dev->B()).bound;
  if (shards > 1) {
    std::uint64_t input_blocks = 0;
    for (const storage::Relation& r : rels) {
      input_blocks += (r.size() + dev->B() - 1) / dev->B();
    }
    expected += 2.0L * static_cast<long double>(input_blocks);
  }
  return expected;
}

std::string ProgressSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"percent\": " + JsonNumber(percent);
  out += ", \"complete\": ";
  out += complete ? "true" : "false";
  out += ", \"done_ios\": " + std::to_string(done_ios);
  out += ", \"recovery_ios\": " + std::to_string(recovery_ios);
  out += ", \"predicted_ios\": " + JsonNumber(predicted_ios);
  out += ", \"eta_ios\": " + JsonNumber(eta_ios);
  out += ", \"phase\": \"" + phase + "\"";
  out += ", \"phases_done\": " + std::to_string(phases_done);
  out += ", \"phase_count\": " + std::to_string(phase_count);
  out += ", \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardProgress& s = shards[i];
    if (i > 0) out += ", ";
    out += "{\"shard\": " + std::to_string(s.shard);
    out += ", \"ios\": " + std::to_string(s.ios);
    out += ", \"recovery_ios\": " + std::to_string(s.recovery_ios);
    out += ", \"state\": \"";
    out += ShardStateName(s.state);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

void ProgressTracker::SetPlan(std::vector<PhasePlan> plan) {
  const std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  predicted_total_ = 0.0L;
  for (const PhasePlan& p : plan_) {
    predicted_total_ += std::max(p.expected_ios, 0.0L);
  }
  phases_done_ = 0;
  phase_active_ = false;
  phase_nesting_ = 0;
}

void ProgressTracker::OnBlocks(std::uint32_t shard, std::uint64_t reads,
                               std::uint64_t writes, bool recovery) {
  const std::uint64_t blocks = reads + writes;
  if (blocks == 0) return;
  if (recovery) {
    recovery_ios_.fetch_add(blocks, std::memory_order_relaxed);
  } else {
    done_ios_.fetch_add(blocks, std::memory_order_relaxed);
  }
  if (shard < kMaxShards) {
    ShardSlot& slot = shards_[shard];
    (recovery ? slot.recovery : slot.ios)
        .fetch_add(blocks, std::memory_order_relaxed);
  }
}

void ProgressTracker::OnPhaseBegin(const char* name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (phase_active_) {
    // A nested span reusing the current phase's name (or any inner
    // operator span) — never advances the plan.
    if (std::strcmp(name, plan_[phases_done_].name) == 0) ++phase_nesting_;
    return;
  }
  if (phases_done_ >= plan_.size()) return;
  if (std::strcmp(name, plan_[phases_done_].name) != 0) return;
  phase_active_ = true;
  phase_nesting_ = 0;
  phase_start_ios_ = done_ios_.load(std::memory_order_relaxed);
}

void ProgressTracker::OnPhaseEnd(const char* name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!phase_active_) return;
  if (std::strcmp(name, plan_[phases_done_].name) != 0) return;
  if (phase_nesting_ > 0) {
    --phase_nesting_;
    return;
  }
  phase_active_ = false;
  ++phases_done_;
}

void ProgressTracker::OnShardStart(std::uint32_t shard) {
  if (shard >= kMaxShards) return;
  shards_[shard].state.store(1, std::memory_order_release);
}

void ProgressTracker::OnShardFinish(std::uint32_t shard, bool ok) {
  if (shard >= kMaxShards) return;
  shards_[shard].state.store(ok ? 2 : 3, std::memory_order_release);
}

void ProgressTracker::MarkComplete() {
  complete_.store(true, std::memory_order_release);
}

std::uint64_t ProgressTracker::Clock() const {
  return done_ios_.load(std::memory_order_relaxed) +
         recovery_ios_.load(std::memory_order_relaxed);
}

double ProgressTracker::UnlockedRawPercent(std::uint64_t done) const {
  if (predicted_total_ <= 0.0L || plan_.empty()) return 0.0;
  long double fraction = 0.0L;
  for (std::size_t i = 0; i < phases_done_ && i < plan_.size(); ++i) {
    fraction += std::max(plan_[i].expected_ios, 0.0L) / predicted_total_;
  }
  if (phase_active_ && phases_done_ < plan_.size()) {
    const long double expected =
        std::max(plan_[phases_done_].expected_ios, 0.0L);
    const long double weight = expected / predicted_total_;
    const std::uint64_t in_phase =
        done >= phase_start_ios_ ? done - phase_start_ios_ : 0;
    const long double ratio =
        expected > 0.0L
            ? std::min(1.0L, static_cast<long double>(in_phase) / expected)
            : 1.0L;
    fraction += weight * ratio;
  }
  return static_cast<double>(std::min(1.0L, fraction)) * 100.0;
}

ProgressSnapshot ProgressTracker::Snapshot() const {
  ProgressSnapshot snap;
  snap.done_ios = done_ios_.load(std::memory_order_relaxed);
  snap.recovery_ios = recovery_ios_.load(std::memory_order_relaxed);
  snap.complete = complete_.load(std::memory_order_acquire);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap.phase_count = plan_.size();
    snap.phases_done = std::min(phases_done_, plan_.size());
    snap.predicted_ios = static_cast<double>(predicted_total_);
    if (!plan_.empty()) {
      const std::size_t cur = std::min(phases_done_, plan_.size() - 1);
      snap.phase = plan_[cur].name;
    }
    snap.percent = UnlockedRawPercent(snap.done_ios);
  }
  // Monotone running max in basis points; MarkComplete wins outright.
  const std::uint64_t raw_bp =
      snap.complete ? 10000
                    : static_cast<std::uint64_t>(snap.percent * 100.0);
  std::uint64_t seen = max_basis_points_.load(std::memory_order_relaxed);
  while (raw_bp > seen && !max_basis_points_.compare_exchange_weak(
                              seen, raw_bp, std::memory_order_relaxed)) {
  }
  const std::uint64_t bp = std::max(raw_bp, seen);
  snap.percent = snap.complete ? 100.0 : static_cast<double>(bp) / 100.0;
  snap.eta_ios = snap.complete
                     ? 0.0
                     : snap.predicted_ios * (1.0 - snap.percent / 100.0);
  for (std::uint32_t s = 0; s < kMaxShards; ++s) {
    const ShardSlot& slot = shards_[s];
    const int state = slot.state.load(std::memory_order_acquire);
    const std::uint64_t ios = slot.ios.load(std::memory_order_relaxed);
    const std::uint64_t rec = slot.recovery.load(std::memory_order_relaxed);
    if (state == 0 && ios == 0 && rec == 0) continue;
    snap.shards.push_back(ShardProgress{s, ios, rec, state});
  }
  return snap;
}

}  // namespace emjoin::obs
