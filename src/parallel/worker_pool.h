#ifndef EMJOIN_PARALLEL_WORKER_POOL_H_
#define EMJOIN_PARALLEL_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace emjoin::parallel {

/// Fixed-size pool of worker threads draining a FIFO task queue.
///
/// This is the single place in the codebase where threads are spawned
/// (enforced by emjoin_lint's thread-discipline rule): everything the
/// workers touch must be shard-local by construction — its own Device,
/// files, Tracer, Registry, and FaultInjector — so the pool needs no
/// locking beyond its own queue and the merged results stay
/// deterministic regardless of interleaving. The one shared object, the
/// sharded join's output hand-off, locks itself and relies on the FIFO
/// dispatch order of Submit() to never block the shard it drains.
///
/// Tasks must not let exceptions escape: shard tasks end in a typed
/// Status via the Try* APIs, never an unwind across the thread boundary.
class WorkerPool {
 public:
  /// Spawns `workers` threads (at least one).
  explicit WorkerPool(std::uint32_t workers);

  /// Joins all workers; pending tasks are drained first.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one task. Tasks run in FIFO submission order (each worker
  /// pops the oldest pending task), concurrently across workers.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Barrier: blocks until every submitted task has finished running.
  /// Opted out of thread-safety analysis: the condition-variable wait
  /// protocol (std::unique_lock handed to wait()) is outside the
  /// analysis's model, but the body is the classic guarded-predicate
  /// loop and runs entirely under mu_.
  void Wait() NO_THREAD_SAFETY_ANALYSIS;

  [[nodiscard]] std::uint32_t workers() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

 private:
  // Worker main loop: the cv-wait protocol again, hence the same
  // analysis opt-out as Wait().
  void RunWorker() NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> threads_;  // written in the ctor only
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::mutex mu_;
  std::condition_variable work_cv_ WAITS_ON(mu_);  // tasks / shutdown
  std::condition_variable idle_cv_ WAITS_ON(mu_);  // pool drained
  std::size_t running_ GUARDED_BY(mu_) = 0;  // tasks currently executing
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace emjoin::parallel

#endif  // EMJOIN_PARALLEL_WORKER_POOL_H_
