#ifndef EMJOIN_CORE_PAIRWISE_H_
#define EMJOIN_CORE_PAIRWISE_H_

#include "core/emit.h"
#include "core/join_kernel.h"
#include "storage/relation.h"

namespace emjoin::core {

using storage::Relation;

/// Block nested-loop join in the emit model: loads `outer` one M-chunk at
/// a time and streams `inner` once per chunk, emitting every combination
/// that agrees on all shared attributes. O(⌈N_out/M⌉ · N_in/B) I/Os —
/// worst-case optimal for two relations (Table 1, row 1). Also serves as
/// the cross-product operator when the relations share no attribute.
///
/// `base` carries bindings for attributes outside the two relations
/// (pass a fresh Assignment at top level).
void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         Assignment* base, const EmitFn& emit);

/// The same join with the kernel resolved by the caller: `kernel` must be
/// JoinKernel(outer.schema(), inner.schema(), base->schema()). Callers
/// that run many nested loops over the same schemas (Algorithm 4 runs
/// one per R3 tuple) build it once instead of once per call.
void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         const JoinKernel& kernel, Assignment* base,
                         const EmitFn& emit);

/// Instance-optimal 2-relation join (§3): sort both relations on their
/// (single) shared attribute and merge; a value heavy on both sides is
/// handled by an in-memory block nested loop. Õ(Σ_a N1|a · N2|a / (MB) +
/// (N1+N2)/B) I/Os on every instance.
void SortMergeJoin(const Relation& r1, const Relation& r2, Assignment* base,
                   const EmitFn& emit);

/// Materializing sort-merge join: like SortMergeJoin but the results are
/// written to a new relation on disk (charged), with schema
/// JoinedSchema(r1.schema(), r2.schema()). Used where an algorithm
/// explicitly stores an intermediate (Algorithms 4–5, Yannakakis).
Relation JoinToDisk(const Relation& r1, const Relation& r2);

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_PAIRWISE_H_
