#ifndef EMJOIN_OBS_PROGRESS_H_
#define EMJOIN_OBS_PROGRESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "storage/relation.h"

namespace emjoin::obs {

/// One planned phase of a query: a span name the orchestrator will open
/// (e.g. "load", "build", "join") and the cost model's predicted block
/// I/O for it. Phases are matched positionally and by name against
/// kPhaseBegin/kPhaseEnd events, so a plan may repeat names (one
/// build/join pair per bench loop).
struct PhasePlan {
  const char* name = "";
  long double expected_ios = 0.0L;
};

/// Predicted block I/O of a join query's one planned "join" phase: the
/// Theorem 3 worst-case bound over (sizes, M, B) of the relations'
/// device, plus, when shards > 1, the extra write+read pass that
/// redistributes the inputs. The bound is a closed form — unlike
/// PredictBoundExact it runs no counting oracles — so planning charges
/// zero I/Os. nullopt when `rels` is not a Berge-acyclic query.
/// `rels` must be non-empty.
std::optional<long double> PlannedJoinIos(
    const std::vector<storage::Relation>& rels, std::uint32_t shards);

/// Live per-shard progress, included in ProgressSnapshot.
struct ShardProgress {
  std::uint32_t shard = 0;
  std::uint64_t ios = 0;           // non-recovery block I/Os
  std::uint64_t recovery_ios = 0;  // fault-overhead block I/Os
  // 0 = idle (never started), 1 = running, 2 = finished ok, 3 = failed.
  int state = 0;
};

/// A consistent read of the tracker, plus its /progress JSON encoding.
struct ProgressSnapshot {
  double percent = 0.0;  // monotone non-decreasing, in [0, 100]
  bool complete = false;
  std::uint64_t done_ios = 0;      // charged I/Os counted toward progress
  std::uint64_t recovery_ios = 0;  // excluded fault-overhead I/Os
  double predicted_ios = 0.0;      // sum of the plan's expectations
  double eta_ios = 0.0;            // predicted remaining, on the I/O clock
  std::string phase;               // current (or last) plan phase name
  std::size_t phases_done = 0;
  std::size_t phase_count = 0;
  std::vector<ShardProgress> shards;  // active shards only

  std::string ToJson() const;
};

/// Model-vs-measured progress estimation for one query.
///
/// The tracker combines a phase plan — names plus the paper's
/// closed-form predicted I/O per phase, known at plan time from
/// (n, M, B) — with the live block charges streaming off the Device
/// event hook. Percent-done is phase-weighted: completed phases
/// contribute their full weight (expected_i / total expected), the
/// current phase contributes weight * min(1, measured/expected).
///
/// Guarantees, pinned by obs_test:
///  - monotone non-decreasing (enforced via an atomic running max, so
///    even a re-planned or mis-predicted run never reports a drop);
///  - clamped to 100, and exactly 100 after MarkComplete();
///  - `recovery`-tagged fault I/O (retries, backoff, torn-write
///    repairs) is tallied separately and never advances progress, so a
///    flaky device cannot inflate percent-done;
///  - per-shard charges roll up into the whole-query figure: shard
///    devices feed the same tracker through Telemetry's shard views,
///    mirroring the Registry::MergeFrom / Tracer::Absorb merge pattern
///    but live rather than at the barrier.
///
/// Thread safety: charge accounting is lock-free (relaxed atomics; the
/// counters are independent and the HTTP reader tolerates slight skew);
/// the rare phase transitions and Snapshot() share a mutex.
class ProgressTracker {
 public:
  static constexpr std::uint32_t kMaxShards = 64;

  /// Installs the phase plan. Call before the planned spans open;
  /// calling mid-run is safe (the monotone max keeps percent from
  /// dropping when the weights change).
  void SetPlan(std::vector<PhasePlan> plan) EXCLUDES(mu_);

  /// Account charged blocks (shard == ObsEvent::kNoShard for the
  /// orchestrator device). Lock-free.
  void OnBlocks(std::uint32_t shard, std::uint64_t reads,
                std::uint64_t writes, bool recovery);

  /// Phase transitions from the orchestrator's spans. Only top-level
  /// spans whose name matches the next planned phase advance the plan;
  /// anything else is ignored (operators open many inner spans).
  void OnPhaseBegin(const char* name) EXCLUDES(mu_);
  void OnPhaseEnd(const char* name) EXCLUDES(mu_);

  void OnShardStart(std::uint32_t shard);
  void OnShardFinish(std::uint32_t shard, bool ok);

  /// Forces percent to exactly 100 (the success path's final word).
  void MarkComplete();

  [[nodiscard]] bool complete() const {
    return complete_.load(std::memory_order_acquire);
  }

  /// Total observed block I/Os (progress-counted + recovery): the
  /// virtual I/O clock the flight recorder timestamps events with.
  [[nodiscard]] std::uint64_t Clock() const;

  [[nodiscard]] ProgressSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  // Per-shard tallies on the OnBlocks hot path: lock-free by design
  // (each field is an independent relaxed counter; readers tolerate
  // slight skew between fields).
  struct ShardSlot {
    std::atomic<std::uint64_t> ios LOCK_FREE_ATOMIC{0};
    std::atomic<std::uint64_t> recovery LOCK_FREE_ATOMIC{0};
    std::atomic<int> state LOCK_FREE_ATOMIC{0};
  };

  double UnlockedRawPercent(std::uint64_t done) const REQUIRES(mu_);

  // Lock-free: bumped by every block charge (any device thread), read
  // by Snapshot/Clock. Relaxed — independent monotone counters.
  std::atomic<std::uint64_t> done_ios_ LOCK_FREE_ATOMIC{0};
  std::atomic<std::uint64_t> recovery_ios_ LOCK_FREE_ATOMIC{0};
  std::atomic<bool> complete_ LOCK_FREE_ATOMIC{false};
  // Monotonicity guard: percent * 10^4, advanced with a CAS max. The
  // CAS loop is relaxed on purpose: the value is a self-contained
  // monotone max (no other memory is published through it), so the
  // only property needed is the atomicity of each compare_exchange.
  mutable std::atomic<std::uint64_t> max_basis_points_ LOCK_FREE_ATOMIC{0};

  mutable std::mutex mu_;  // guards the plan/phase state below
  std::vector<PhasePlan> plan_ GUARDED_BY(mu_);
  long double predicted_total_ GUARDED_BY(mu_) = 0.0L;
  std::size_t phases_done_ GUARDED_BY(mu_) = 0;
  std::uint64_t phase_start_ios_ GUARDED_BY(mu_) = 0;
  // Depth of nested spans reusing the current phase's name, so an inner
  // "join" span closing does not end the planned "join" phase.
  std::uint32_t phase_nesting_ GUARDED_BY(mu_) = 0;
  bool phase_active_ GUARDED_BY(mu_) = false;

  std::array<ShardSlot, kMaxShards> shards_;
};

}  // namespace emjoin::obs

#endif  // EMJOIN_OBS_PROGRESS_H_
