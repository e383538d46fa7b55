#ifndef EMJOIN_METRICS_COLLECT_H_
#define EMJOIN_METRICS_COLLECT_H_

#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"
#include "metrics/registry.h"

/// Snapshot/delta collection that folds substrate state into a Registry.
///
/// The substrate's live instrumentation (sorter fan-ins, run lengths,
/// operator emit batches) records directly through Device::metrics();
/// the aggregate views below — per-tag I/O, totals, peak residency,
/// fault tallies — are cheaper to collect as before/after diffs around
/// a measured region than to stream per charge, and diffing keeps the
/// device's charge paths untouched (io_invariance pins that attaching a
/// registry changes zero counts).
namespace emjoin::metrics {

/// A device's counters at the start of a measured region. The default
/// value is the device's state at construction, so diffing against it
/// collects the device's whole life.
struct DeviceSnapshot {
  extmem::IoStats io;
  extmem::TagStats tags;
  extmem::FaultStats faults;
};

inline DeviceSnapshot Snapshot(const extmem::Device& dev) {
  const extmem::FaultInjector* inj = dev.fault_injector();
  return {dev.stats(), dev.per_tag(),
          inj != nullptr ? inj->stats() : extmem::FaultStats{}};
}

/// Folds the device's I/O and fault deltas since `before` into `reg`:
///   - `emjoin_device_io_blocks_total{op,tag}` per nonzero tag delta and
///     `emjoin_device_io_blocks_total{op}` totals (tag label absent);
///   - the `emjoin_peak_resident_tuples` gauge (max over collections);
///   - `emjoin_faults_total{kind}` per nonzero fault kind of the attached
///     injector (fault-free runs export no fault series), and the retry
///     burst's size in `emjoin_fault_retry_burst`.
inline void CollectDelta(const extmem::Device& dev,
                         const DeviceSnapshot& before, Registry* reg) {
  const auto add = [reg](const char* family, Labels labels,
                         std::uint64_t v) {
    if (v > 0) reg->GetCounter(family, std::move(labels))->Add(v);
  };
  const char* io_family = "emjoin_device_io_blocks_total";
  const extmem::IoStats io = dev.stats() - before.io;
  add(io_family, {{"op", "read"}}, io.block_reads);
  add(io_family, {{"op", "write"}}, io.block_writes);
  for (const auto& [tag, d] : extmem::TagDelta(dev.per_tag(), before.tags)) {
    add(io_family, {{"op", "read"}, {"tag", tag}}, d.block_reads);
    add(io_family, {{"op", "write"}, {"tag", tag}}, d.block_writes);
  }
  reg->GetGauge("emjoin_peak_resident_tuples")
      ->SetMax(dev.gauge().high_water());

  const extmem::FaultInjector* inj = dev.fault_injector();
  if (inj == nullptr) return;
  const extmem::FaultStats faults = inj->stats() - before.faults;
  const char* fault_family = "emjoin_faults_total";
  add(fault_family, {{"kind", "read_fault"}}, faults.read_faults);
  add(fault_family, {{"kind", "write_fault"}}, faults.write_faults);
  add(fault_family, {{"kind", "torn_write"}}, faults.torn_writes);
  add(fault_family, {{"kind", "retry"}}, faults.retries);
  add(fault_family, {{"kind", "backoff_io"}}, faults.backoff_ios);
  add(fault_family, {{"kind", "budget_shrink"}}, faults.shrinks);
  add(fault_family, {{"kind", "retry_exhaustion"}}, faults.exhaustions);
  if (faults.retries > 0) {
    reg->GetHistogram("emjoin_fault_retry_burst")->Record(faults.retries);
  }
}

}  // namespace emjoin::metrics

#endif  // EMJOIN_METRICS_COLLECT_H_
