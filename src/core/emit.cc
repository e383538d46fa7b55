#include "core/emit.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace emjoin::core {

namespace {
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

std::uint64_t EmitJournal::HashRow(std::span<const Value> row) {
  std::uint64_t h = kFnvOffset;
  for (const Value v : row) h = FnvMix(h, static_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t EmitJournal::FindRow(std::span<const Value> row) const {
  const auto it = index_.find(HashRow(row));
  if (it == index_.end()) return rows_;
  for (const std::uint32_t idx : it->second) {
    const Value* stored = data_.data() + static_cast<std::size_t>(idx) * width_;
    if (std::equal(row.begin(), row.end(), stored)) return idx;
  }
  return rows_;
}

bool EmitJournal::Record(std::span<const Value> row) {
  if (rows_ == 0 && width_ == 0) width_ = static_cast<std::uint32_t>(row.size());
  assert(row.size() == width_);
  if (FindRow(row) != rows_) return false;
  index_[HashRow(row)].push_back(static_cast<std::uint32_t>(rows_));
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
  return true;
}

bool EmitJournal::Contains(std::span<const Value> row) const {
  if (rows_ == 0) return false;
  if (row.size() != width_) return false;
  return FindRow(row) != rows_;
}

std::uint64_t EmitJournal::hash() const {
  std::uint64_t h = kFnvOffset;
  for (const Value v : data_) h = FnvMix(h, static_cast<std::uint64_t>(v));
  // Mix in the row count so journals of different shapes with equal flat
  // contents (e.g. width 2 x 3 rows vs width 3 x 2 rows) do not collide.
  return FnvMix(h, rows_);
}

void EmitJournal::ReplayInto(const EmitFn& emit) const {
  for (std::uint64_t i = 0; i < rows_; ++i) {
    emit(std::span<const Value>(
        data_.data() + static_cast<std::size_t>(i) * width_, width_));
  }
}

void EmitJournal::Restore(std::uint32_t width, std::vector<Value> data) {
  assert(width == 0 || data.size() % width == 0);
  width_ = width;
  data_ = std::move(data);
  rows_ = width == 0 ? 0 : data_.size() / width;
  index_.clear();
  for (std::uint64_t i = 0; i < rows_; ++i) {
    const std::span<const Value> row(
        data_.data() + static_cast<std::size_t>(i) * width_, width_);
    index_[HashRow(row)].push_back(static_cast<std::uint32_t>(i));
  }
}

EmitFn JournaledEmit(EmitJournal* journal, EmitFn sink) {
  return [journal, sink = std::move(sink)](std::span<const Value> row) {
    if (journal->Record(row)) sink(row);
  };
}

ResultSchema MakeResultSchema(const std::vector<storage::Relation>& rels) {
  ResultSchema schema;
  for (const storage::Relation& r : rels) {
    for (storage::AttrId a : r.schema().attrs()) {
      if (schema.PositionOf(a) == schema.attrs.size()) {
        schema.attrs.push_back(a);
      }
    }
  }
  return schema;
}

}  // namespace emjoin::core
