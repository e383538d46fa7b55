#include "core/reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>

namespace emjoin::core {

namespace {

// Backtracks over relations, indexing each relation by its first attribute
// already bound when reached (simple but adequate for an oracle).
void Enumerate(const std::vector<storage::Relation>& rels,
               const ResultSchema& schema,
               const std::function<void(std::span<const Value>)>& yield) {
  std::vector<Value> assignment(schema.attrs.size(), 0);
  std::vector<bool> bound(schema.attrs.size(), false);
  // Result position of every column of every relation, resolved once.
  std::vector<std::vector<std::uint32_t>> positions;
  positions.reserve(rels.size());
  for (const storage::Relation& rel : rels) {
    std::vector<std::uint32_t>& pos = positions.emplace_back();
    for (storage::AttrId a : rel.schema().attrs()) {
      pos.push_back(schema.PositionOf(a));
    }
  }

  std::function<void(std::size_t)> recurse = [&](std::size_t level) {
    if (level == rels.size()) {
      yield(assignment);
      return;
    }
    const std::vector<std::uint32_t>& cols = positions[level];
    const extmem::FileRange& range = rels[level].range();
    for (TupleCount i = 0; i < range.size(); ++i) {
      const Value* t = range.RawTuple(i);
      bool compatible = true;
      std::vector<std::uint32_t> newly;
      for (std::uint32_t c = 0; c < cols.size(); ++c) {
        const std::uint32_t pos = cols[c];
        if (!bound[pos]) {
          assignment[pos] = t[c];
          bound[pos] = true;
          newly.push_back(pos);
        } else if (assignment[pos] != t[c]) {
          compatible = false;
          break;
        }
      }
      if (compatible) recurse(level + 1);
      for (std::uint32_t pos : newly) bound[pos] = false;
    }
  };
  recurse(0);
}

}  // namespace

std::vector<std::vector<Value>> ReferenceJoin(
    const std::vector<storage::Relation>& rels) {
  const ResultSchema schema = MakeResultSchema(rels);
  std::vector<std::vector<Value>> out;
  Enumerate(rels, schema, [&](std::span<const Value> row) {
    out.emplace_back(row.begin(), row.end());
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t ReferenceJoinCount(const std::vector<storage::Relation>& rels) {
  const ResultSchema schema = MakeResultSchema(rels);
  std::uint64_t count = 0;
  Enumerate(rels, schema, [&](std::span<const Value>) { ++count; });
  return count;
}

}  // namespace emjoin::core
