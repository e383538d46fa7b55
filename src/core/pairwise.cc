#include "core/pairwise.h"

#include <cassert>

#include "core/join_kernel.h"
#include "extmem/status.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

// Emits all combinations of a memory-resident chunk with one streamed
// tuple that agree on the chunk-vs-tuple shared attributes. The streamed
// tuple is bound once, at its first match; the two sides agree on every
// position they share, so the emitted rows are those of binding both
// per match.
void EmitChunkMatches(const JoinKernel& kernel, const storage::MemChunk& chunk,
                      const Value* t, Assignment* base, const EmitFn& emit) {
  bool streamed_bound = false;
  kernel.ForEachMatch(chunk, t, [&](const Value* c) {
    if (!streamed_bound) {
      kernel.streamed_bind().Bind(t, base);
      streamed_bound = true;
    }
    kernel.chunk_bind().Bind(c, base);
    emit(base->values());
  });
}

}  // namespace

void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         Assignment* base, const EmitFn& emit) {
  const JoinKernel kernel(outer.schema(), inner.schema(), base->schema());
  BlockNestedLoopJoin(outer, inner, kernel, base, emit);
}

void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         const JoinKernel& kernel, Assignment* base,
                         const EmitFn& emit) {
  extmem::Device* dev = outer.device();
  trace::Count(dev, "bnl_joins");
  GuardedEmit guarded(dev, emit);
  extmem::FileReader outer_reader(outer.range());
  const std::uint32_t iw = inner.schema().arity();
  const auto process = [&](const storage::MemChunk& chunk) {
    extmem::FileReader inner_reader(inner.range());
    while (!inner_reader.Done()) {
      const std::span<const Value> block = inner_reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += iw) {
        EmitChunkMatches(kernel, chunk, t, base, guarded.fn());
      }
    }
  };
  while (!outer_reader.Done()) {
    // Re-polled per chunk: a budget shrink lands here as a smaller load.
    const TupleCount cap = dev->DegradedChunkCap(dev->M());
    storage::MemChunk chunk;
    auto trip = extmem::BudgetTripOf([&] {
      static_cast<void>(
          storage::LoadChunk(outer_reader, outer.schema(), dev, cap, &chunk));
    });
    if (trip.has_value() && chunk.empty()) {
      extmem::ThrowStatus(*std::move(trip));
    }
    // A trip mid-load leaves the chunk holding exactly the tuples already
    // consumed from the reader — process the partial chunk; the next loop
    // iteration continues from the reader's position.
    if (!chunk.empty()) {
      storage::ProcessChunkWithReplan(dev, &chunk, outer.schema(), process);
    }
  }
}

void SortMergeJoin(const Relation& r1, const Relation& r2, Assignment* base,
                   const EmitFn& emit) {
  const std::vector<storage::AttrId> common =
      r1.schema().CommonAttrs(r2.schema());
  if (common.empty()) {
    BlockNestedLoopJoin(r1, r2, base, emit);
    return;
  }
  assert(common.size() == 1 && "Berge-acyclic: at most one shared attribute");
  const storage::AttrId v = common.front();

  const Relation s1 = r1.SortedBy(v);
  const Relation s2 = r2.SortedBy(v);
  extmem::Device* dev = r1.device();
  const TupleCount m = dev->M();
  // Either side can be the loaded one, value by value.
  const JoinKernel k12(r1.schema(), r2.schema(), base->schema());
  const JoinKernel k21(r2.schema(), r1.schema(), base->schema());

  storage::GroupCursor c1(s1, v);
  storage::GroupCursor c2(s2, v);
  while (!c1.Done() && !c2.Done()) {
    if (c1.value() < c2.value()) {
      c1.Advance();
      continue;
    }
    if (c2.value() < c1.value()) {
      c2.Advance();
      continue;
    }
    const Relation g1 = c1.group();
    const Relation g2 = c2.group();
    if (g1.size() >= m && g2.size() >= m) {
      // Heavy on both sides: block nested loop within the value.
      BlockNestedLoopJoin(g1, g2, k12, base, emit);
    } else {
      // Load the lighter group, stream the other.
      const bool first_small = g1.size() <= g2.size();
      const Relation& small = first_small ? g1 : g2;
      const Relation& large = first_small ? g2 : g1;
      const JoinKernel& kernel = first_small ? k12 : k21;
      if (dev->DegradedChunkCap(small.size()) < small.size()) {
        // Degraded: the light group no longer fits the shrunken budget.
        // Fall back to the chunked nested loop, which re-plans its own
        // fan-in. Fault-free the cap equals small.size() and this branch
        // is never taken, so golden counts are unchanged.
        BlockNestedLoopJoin(small, large, kernel, base, emit);
      } else {
        extmem::FileReader small_reader(small.range());
        storage::MemChunk chunk;
        storage::LoadChunk(small_reader, small.schema(), dev, small.size(),
                           &chunk);
        const std::uint32_t lw = large.schema().arity();
        extmem::FileReader large_reader(large.range());
        while (!large_reader.Done()) {
          const std::span<const Value> block = large_reader.NextBlock();
          for (const Value* t = block.data(); t != block.data() + block.size();
               t += lw) {
            EmitChunkMatches(kernel, chunk, t, base, emit);
          }
        }
      }
    }
    c1.Advance();
    c2.Advance();
  }
}

Relation JoinToDisk(const Relation& r1, const Relation& r2) {
  extmem::ScopedIoTag tag(r1.device(), "materialize");
  trace::Span span(r1.device(), "materialize");
  const storage::Schema joined =
      storage::JoinedSchema(r1.schema(), r2.schema());
  extmem::Device* dev = r1.device();
  extmem::FilePtr out = dev->NewFile(joined.arity());
  extmem::FileWriter writer(out);

  std::vector<storage::Relation> pair = {r1, r2};
  Assignment assignment(ResultSchema{joined.attrs()});
  // The assignment's attribute order equals the joined schema's order, so
  // emitted rows can be appended verbatim.
  SortMergeJoin(r1, r2, &assignment,
                [&](std::span<const Value> row) { writer.Append(row); });
  writer.Finish();
  return Relation(joined, extmem::FileRange(out));
}

}  // namespace emjoin::core
