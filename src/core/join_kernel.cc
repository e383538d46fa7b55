#include "core/join_kernel.h"

#include <cassert>

namespace emjoin::core {

BindMap::BindMap(const storage::Schema& phys, const ResultSchema& result) {
  slots_.reserve(phys.arity());
  for (std::uint32_t col = 0; col < phys.arity(); ++col) {
    const std::uint32_t pos = result.PositionOf(phys.attr(col));
    if (pos < result.attrs.size()) slots_.push_back({col, pos});
  }
}

JoinKernel::JoinKernel(const storage::Schema& chunk,
                       const storage::Schema& streamed,
                       const ResultSchema& result)
    : chunk_bind_(chunk, result), streamed_bind_(streamed, result) {
  for (std::uint32_t col = 0; col < chunk.arity(); ++col) {
    if (const auto s = streamed.PositionOf(chunk.attr(col))) {
      keys_.push_back({col, *s});
    }
  }
  if (!keys_.empty()) {
    key_result_pos_ = result.PositionOf(chunk.attr(keys_.front().chunk));
  }
}

bool JoinKernel::SortedByKey(const storage::MemChunk& chunk) const {
  assert(!keys_.empty() && "a sorted lookup needs a shared attribute");
  const std::uint32_t col = keys_.front().chunk;
  for (TupleCount i = 1; i < chunk.size(); ++i) {
    if (chunk.tuple(i)[col] < chunk.tuple(i - 1)[col]) return false;
  }
  return true;
}

}  // namespace emjoin::core
