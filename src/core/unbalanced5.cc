#include "core/unbalanced5.h"

#include <cassert>

#include "core/line3.h"
#include "core/pairwise.h"
#include "core/reduce.h"
#include "extmem/sorter.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

// rel sorted lexicographically by `keys` (then full tuple).
storage::Relation SortLex(const storage::Relation& rel,
                          const std::vector<storage::AttrId>& keys) {
  std::vector<std::uint32_t> cols;
  for (storage::AttrId a : keys) {
    const auto pos = rel.schema().PositionOf(a);
    assert(pos.has_value());
    cols.push_back(*pos);
  }
  extmem::FilePtr f = extmem::ExternalSort(rel.range(), cols);
  return storage::Relation(rel.schema(), extmem::FileRange(f), keys.front());
}

// Forward-only scanner over a relation sorted lexicographically by
// `cols`: for ascending targets, returns the slice of rows equal to the
// target key. One charged pass over the relation in total.
class KeyedScanner {
 public:
  KeyedScanner(storage::Relation rel, std::vector<std::uint32_t> cols)
      : rel_(std::move(rel)), cols_(std::move(cols)),
        reader_(rel_.range()) {}

  storage::Relation CollectEqual(std::span<const Value> key) {
    while (!reader_.Done() && Compare(reader_.Peek(), key) < 0) {
      reader_.Next();
    }
    const TupleCount start = reader_.position() - rel_.range().begin;
    while (!reader_.Done() && Compare(reader_.Peek(), key) == 0) {
      reader_.Next();
    }
    const TupleCount end = reader_.position() - rel_.range().begin;
    return rel_.Slice(start, end);
  }

 private:
  int Compare(const Value* row, std::span<const Value> key) const {
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (row[cols_[i]] != key[i]) return row[cols_[i]] < key[i] ? -1 : 1;
    }
    return 0;
  }

  storage::Relation rel_;
  std::vector<std::uint32_t> cols_;
  extmem::FileReader reader_;
};

std::vector<std::uint32_t> ColsOf(const storage::Schema& schema,
                                  const std::vector<storage::AttrId>& keys) {
  std::vector<std::uint32_t> cols;
  for (storage::AttrId a : keys) {
    const auto pos = schema.PositionOf(a);
    assert(pos.has_value());
    cols.push_back(*pos);
  }
  return cols;
}

}  // namespace

void LineJoinUnbalanced5UnderAssignment(
    const storage::Relation& r1, const storage::Relation& r2,
    const storage::Relation& r3, const storage::Relation& r4,
    const storage::Relation& r5, Assignment* assignment, const EmitFn& emit) {
  trace::Span span(r1.device(), "line5");
  // Operator-level watermark over the per-key nested loops (each of which
  // also re-plans internally); fault-free this aliases `emit` directly.
  GuardedEmit guarded(r1.device(), emit);
  // Line attributes: r3 = {v3, v4}, shared with r2 and r4 respectively.
  const std::vector<storage::AttrId> c23 =
      r2.schema().CommonAttrs(r3.schema());
  const std::vector<storage::AttrId> c34 =
      r3.schema().CommonAttrs(r4.schema());
  assert(c23.size() == 1 && c34.size() == 1);
  const storage::AttrId v3 = c23.front();
  const storage::AttrId v4 = c34.front();
  const std::vector<storage::AttrId> keys = {v3, v4};

  // Lines 1–2: the two 3-relation line joins, written to disk.
  const storage::Relation s = LineJoin3ToDisk(r1, r2, r3);
  const storage::Relation t = LineJoin3ToDisk(r3, r4, r5);

  // Lines 3–4: sort R3, S and T lexicographically by (v3, v4).
  const storage::Relation r3s = SortLex(r3, keys);
  const storage::Relation ss = SortLex(s, keys);
  const storage::Relation ts = SortLex(t, keys);

  // Lines 5–8: for each tuple of R3, nested-loop S(t) against T(t).
  KeyedScanner s_scan(ss, ColsOf(ss.schema(), keys));
  KeyedScanner t_scan(ts, ColsOf(ts.schema(), keys));
  const std::vector<std::uint32_t> r3_cols = ColsOf(r3s.schema(), keys);
  // One kernel for every per-tuple nested loop: each S(t), T(t) pair is
  // a slice of ss and ts, so the schemas never change.
  const JoinKernel kernel(ss.schema(), ts.schema(), assignment->schema());

  const std::uint32_t r3w = r3s.schema().arity();
  extmem::FileReader r3_reader(r3s.range());
  while (!r3_reader.Done()) {
    const std::span<const Value> block = r3_reader.NextBlock();
    for (const Value* tup = block.data(); tup != block.data() + block.size();
         tup += r3w) {
      const Value key[2] = {tup[r3_cols[0]], tup[r3_cols[1]]};
      const storage::Relation s_t = s_scan.CollectEqual(key);
      if (s_t.empty()) continue;
      const storage::Relation t_t = t_scan.CollectEqual(key);
      if (t_t.empty()) continue;
      // Every pair matches (the slices agree on v3, v4, the only shared
      // attributes); S(t) has size ≤ N1, T(t) ≤ N5.
      BlockNestedLoopJoin(s_t, t_t, kernel, assignment, guarded.fn());
    }
  }
}

void LineJoinUnbalanced5(const storage::Relation& r1,
                         const storage::Relation& r2,
                         const storage::Relation& r3,
                         const storage::Relation& r4,
                         const storage::Relation& r5, const EmitFn& emit,
                         bool reduce_first) {
  std::vector<storage::Relation> rels = {r1, r2, r3, r4, r5};
  if (reduce_first) rels = FullyReduce(rels);
  Assignment assignment(MakeResultSchema({r1, r2, r3, r4, r5}));
  LineJoinUnbalanced5UnderAssignment(rels[0], rels[1], rels[2], rels[3],
                                     rels[4], &assignment, emit);
}

}  // namespace emjoin::core
