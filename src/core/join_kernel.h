#ifndef EMJOIN_CORE_JOIN_KERNEL_H_
#define EMJOIN_CORE_JOIN_KERNEL_H_

#include <cstdint>
#include <vector>

#include "core/emit.h"
#include "storage/relation.h"

namespace emjoin::core {

/// Where the columns of one physical schema land in a result assignment,
/// resolved once: a (column, result position) pair for every column the
/// result schema has. Columns it lacks are dropped. Binding a tuple is
/// then a flat copy, with no schema lookup.
class BindMap {
 public:
  BindMap(const storage::Schema& phys, const ResultSchema& result);

  /// Writes tuple `t`, laid out per the physical schema, into `a`.
  void Bind(const Value* t, Assignment* a) const {
    for (const Slot& s : slots_) a->Set(s.result, t[s.column]);
  }

 private:
  struct Slot {
    std::uint32_t column;
    std::uint32_t result;
  };
  std::vector<Slot> slots_;
};

/// One pairwise join step, resolved once per operator invocation from
/// (chunk schema, streamed schema, result schema) and never inside a
/// per-tuple loop. The chunk side is memory-resident (a MemChunk); the
/// streamed side is whatever is matched against it one row at a time: a
/// relation read block by block, or the results of a recursive join,
/// whose join value the operator reads back out of the assignment.
class JoinKernel {
 public:
  /// Column of one shared attribute on each side.
  struct KeyColumns {
    std::uint32_t chunk;
    std::uint32_t streamed;
  };

  JoinKernel(const storage::Schema& chunk, const storage::Schema& streamed,
             const ResultSchema& result);

  /// One entry per shared attribute, in the chunk schema's order. Empty
  /// for a cross product, where every pair matches.
  const std::vector<KeyColumns>& keys() const { return keys_; }

  const BindMap& chunk_bind() const { return chunk_bind_; }
  const BindMap& streamed_bind() const { return streamed_bind_; }

  /// Result position of the first shared attribute: where an operator
  /// whose streamed side is a recursive join reads the join value back.
  /// Only meaningful when keys() is not empty.
  std::uint32_t key_result_pos() const { return key_result_pos_; }

  /// True when chunk tuple `c` and streamed tuple `s` agree on every
  /// shared attribute.
  bool Joinable(const Value* c, const Value* s) const {
    for (const KeyColumns& k : keys_) {
      if (c[k.chunk] != s[k.streamed]) return false;
    }
    return true;
  }

  /// Calls `fn(tuple)` for every tuple of `chunk` joinable with streamed
  /// tuple `s`, in chunk order. A linear scan: the chunk may be in any
  /// order.
  template <typename Fn>
  void ForEachMatch(const storage::MemChunk& chunk, const Value* s,
                    Fn&& fn) const {
    const std::uint32_t w = chunk.schema().arity();
    const Value* t = chunk.data().data();
    const Value* end = t + chunk.data().size();
    for (; t != end; t += w) {
      if (Joinable(t, s)) fn(t);
    }
  }

  /// Calls `fn(tuple)` for every tuple of `chunk` whose first key column
  /// equals `key`, in chunk order. `chunk` must be sorted by that column
  /// (see SortedByKey): a binary search finds the first match, and the
  /// matches form one contiguous run, so this visits exactly the tuples a
  /// full scan would, in the same order.
  template <typename Fn>
  void ForEachSortedMatch(const storage::MemChunk& chunk, Value key,
                          Fn&& fn) const {
    const std::uint32_t w = chunk.schema().arity();
    const std::uint32_t col = keys_.front().chunk;
    const Value* data = chunk.data().data();
    TupleCount lo = 0;
    TupleCount hi = chunk.size();
    while (lo < hi) {
      const TupleCount mid = lo + (hi - lo) / 2;
      if (data[mid * w + col] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (const Value* t = data + lo * w; t != data + chunk.data().size();
         t += w) {
      if (t[col] != key) break;
      fn(t);
    }
  }

  /// True when `chunk` is sorted by the first key column, the
  /// precondition of ForEachSortedMatch. Linear; operators assert it
  /// once per chunk, never per lookup.
  bool SortedByKey(const storage::MemChunk& chunk) const;

 private:
  std::vector<KeyColumns> keys_;
  BindMap chunk_bind_;
  BindMap streamed_bind_;
  std::uint32_t key_result_pos_ = 0;
};

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_JOIN_KERNEL_H_
