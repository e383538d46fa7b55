#include "storage/relation.h"

#include <cassert>
#include <algorithm>
#include <cmath>

#include "extmem/status.h"
#include "trace/tracer.h"

namespace emjoin::storage {

Relation Relation::FromTuples(extmem::Device* device, Schema schema,
                              const std::vector<Tuple>& tuples) {
  extmem::FilePtr file = device->NewFile(schema.arity());
  extmem::FileWriter writer(file);
  for (const Tuple& t : tuples) {
    assert(t.size() == schema.arity());
    writer.Append(t);
  }
  writer.Finish();
  extmem::FileRange range(file);
  return Relation(std::move(schema), std::move(range));
}

Relation Relation::SortedBy(AttrId a) const {
  if (IsSortedBy(a)) return *this;
  const auto pos = schema_.PositionOf(a);
  assert(pos.has_value());
  const std::uint32_t key[] = {*pos};
  extmem::FilePtr sorted = extmem::ExternalSort(range_, key);
  return Relation(schema_, extmem::FileRange(sorted), a);
}

// lint: tagged-by-caller — binary-search probes are attributed to
// whatever operator (semijoin, petal scan, ...) drives the lookup.
Relation Relation::EqualRange(AttrId a, Value val) const {
  assert(IsSortedBy(a));
  const auto pos = schema_.PositionOf(a);
  assert(pos.has_value());
  const std::uint32_t col = *pos;

  // Binary search for the first tuple with value >= val and the first with
  // value > val. Each probe touches one block; charge the probes.
  extmem::Device* dev = device();
  std::uint64_t probes = 0;
  auto value_at = [&](TupleCount i) {
    ++probes;
    return range_.RawTuple(i)[col];
  };

  TupleCount lo = 0, hi = range_.size();
  while (lo < hi) {
    const TupleCount mid = lo + (hi - lo) / 2;
    if (value_at(mid) < val) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const TupleCount first = lo;
  hi = range_.size();
  while (lo < hi) {
    const TupleCount mid = lo + (hi - lo) / 2;
    if (value_at(mid) <= val) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  dev->ChargeReadBlocks(probes);
  return Slice(first, lo);
}

void Relation::ForEachGroup(
    AttrId a, const std::function<void(Value, Relation)>& fn) const {
  assert(IsSortedBy(a));
  const auto pos = schema_.PositionOf(a);
  assert(pos.has_value());
  const std::uint32_t col = *pos;

  extmem::FileReader reader(range_);
  const std::uint32_t w = schema_.arity();
  TupleCount group_start = 0;
  TupleCount i = 0;
  std::optional<Value> current;
  while (!reader.Done()) {
    const std::span<const Value> block = reader.NextBlock();
    for (std::size_t off = 0; off < block.size(); off += w) {
      const Value v = block[off + col];
      if (current.has_value() && v != *current) {
        fn(*current, Slice(group_start, i));
        group_start = i;
      }
      current = v;
      ++i;
    }
  }
  if (current.has_value()) {
    fn(*current, Slice(group_start, i));
  }
}

std::vector<Tuple> Relation::ReadAll() const {
  std::vector<Tuple> out;
  out.reserve(size());
  extmem::FileReader reader(range_);
  const std::uint32_t w = schema_.arity();
  while (!reader.Done()) {
    const std::span<const Value> block = reader.NextBlock();
    for (std::size_t off = 0; off < block.size(); off += w) {
      out.emplace_back(block.data() + off, block.data() + off + w);
    }
  }
  return out;
}

std::vector<Value> MemChunk::DistinctValues(std::uint32_t col) const {
  std::vector<Value> vals;
  vals.reserve(count_);
  for (TupleCount i = 0; i < count_; ++i) vals.push_back(tuple(i)[col]);
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

GroupCursor::GroupCursor(const Relation& rel, AttrId a)
    : rel_(rel), reader_(rel.range()) {
  assert(rel.IsSortedBy(a));
  const auto pos = rel.schema().PositionOf(a);
  assert(pos.has_value());
  col_ = *pos;
  ScanGroup();
}

void GroupCursor::ScanGroup() {
  if (begin_ >= rel_.size()) return;
  value_ = reader_.Next()[col_];
  end_ = begin_ + 1;
  while (!reader_.Done() && reader_.Peek()[col_] == value_) {
    reader_.Next();
    ++end_;
  }
}

void GroupCursor::Advance() {
  begin_ = end_;
  ScanGroup();
}

bool LoadChunk(extmem::FileReader& reader, const Schema& schema,
               extmem::Device* device, TupleCount max_tuples, MemChunk* out) {
  if (reader.Done()) return false;
  *out = MemChunk(schema, device);
  TupleCount loaded = 0;
  while (!reader.Done() && loaded < max_tuples) {
    const std::span<const Value> block = reader.NextBlock(max_tuples - loaded);
    out->AppendBlock(block);
    loaded += block.size() / schema.arity();
  }
  return true;
}

void ProcessChunkWithReplan(
    extmem::Device* dev, MemChunk* chunk, const Schema& schema,
    const std::function<void(const MemChunk&)>& process) {
  auto trip = extmem::BudgetTripOf([&] { process(*chunk); });
  if (!trip.has_value()) return;
  const TupleCount total = chunk->size();
  if (total <= 1) {
    // Even a single tuple's processing overruns the budget: the limit is
    // below the operator's hard floor. Nothing left to halve — terminal.
    extmem::ThrowStatus(*std::move(trip));
  }
  trace::Count(dev, "budget_replans", 1);

  // Rework after a caught trip is recovery I/O: spill the chunk so its
  // residency can be released, then re-read and re-process it in halved
  // sub-chunks. (The nested operator work keeps its own tags — only the
  // spill/re-read bookkeeping lands on "recovery".)
  extmem::ScopedIoTag tag(dev, "recovery");
  extmem::FilePtr scratch = dev->NewFile(schema.arity());
  {
    extmem::FileWriter writer(scratch);
    writer.AppendBlock(chunk->data());
    writer.Finish();
  }
  chunk->Clear();

  const TupleCount half = total / 2 > 0 ? total / 2 : 1;
  extmem::FileReader reader{extmem::FileRange(scratch)};
  while (!reader.Done()) {
    // Re-polled per sub-chunk: further shrinks land between sub-chunks.
    TupleCount cap = std::min(half, dev->DegradedChunkCap(half));
    if (cap < 1) cap = 1;
    MemChunk sub(schema, dev);
    auto load_trip = extmem::BudgetTripOf(
        [&] { static_cast<void>(LoadChunk(reader, schema, dev, cap, &sub)); });
    if (load_trip.has_value() && sub.empty()) {
      extmem::ThrowStatus(*std::move(load_trip));
    }
    // A trip mid-load leaves `sub` holding exactly the tuples consumed
    // from the reader so far — process them; nothing is lost or doubled.
    if (!sub.empty()) ProcessChunkWithReplan(dev, &sub, schema, process);
  }
}

bool LoadChunkByValue(extmem::FileReader& reader, const Schema& schema,
                      extmem::Device* device, std::uint32_t col,
                      TupleCount min_tuples, MemChunk* out) {
  if (reader.Done()) return false;
  *out = MemChunk(schema, device);
  TupleCount loaded = 0;
  while (!reader.Done()) {
    if (loaded >= min_tuples) {
      // Stop at a group boundary: only continue while the next tuple has
      // the same value as the last loaded one.
      const Value last = out->tuple(loaded - 1)[col];
      if (reader.Peek()[col] != last) break;
    }
    out->Append(TupleRef(reader.Next(), schema.arity()));
    ++loaded;
  }
  return true;
}

}  // namespace emjoin::storage
