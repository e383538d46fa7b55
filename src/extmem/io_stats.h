#ifndef EMJOIN_EXTMEM_IO_STATS_H_
#define EMJOIN_EXTMEM_IO_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace emjoin::extmem {

/// Counters for block transfers in the external-memory model.
///
/// One "I/O" is the transfer of one block of B tuples between disk and
/// memory (Aggarwal–Vitter model). The simulated device charges these
/// counters on every transfer; algorithms never touch them directly.
struct IoStats {
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;

  std::uint64_t total() const { return block_reads + block_writes; }

  IoStats& operator+=(const IoStats& other) {
    block_reads += other.block_reads;
    block_writes += other.block_writes;
    return *this;
  }

  IoStats operator+(const IoStats& other) const {
    IoStats s = *this;
    s += other;
    return s;
  }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.block_reads = block_reads - other.block_reads;
    d.block_writes = block_writes - other.block_writes;
    return d;
  }

  bool operator==(const IoStats& other) const = default;

  std::string ToString() const;
};

/// Sum of a range of IoStats, or of the mapped values of a per-tag
/// breakdown (any range of pairs whose second member is IoStats).
template <typename Range>
IoStats Total(const Range& range) {
  IoStats sum;
  for (const auto& entry : range) {
    if constexpr (requires { entry.second; }) {
      sum += entry.second;
    } else {
      sum += entry;
    }
  }
  return sum;
}

/// Per-tag I/O breakdown, keyed by tag content (Device::per_tag()).
using TagStats = std::map<std::string, IoStats, std::less<>>;

/// The nonzero per-tag deltas of `after` against the earlier snapshot
/// `before`; a tag absent from `before` counts from zero.
inline TagStats TagDelta(const TagStats& after, const TagStats& before) {
  TagStats delta;
  for (const auto& [tag, now] : after) {
    IoStats d = now;
    if (const auto it = before.find(tag); it != before.end()) {
      d = now - it->second;
    }
    if (d.total() != 0) delta.emplace(tag, d);
  }
  return delta;
}

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_IO_STATS_H_
