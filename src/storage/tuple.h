#ifndef EMJOIN_STORAGE_TUPLE_H_
#define EMJOIN_STORAGE_TUPLE_H_

#include <span>
#include <string>
#include <vector>

#include "extmem/defs.h"
#include "storage/schema.h"

namespace emjoin::storage {

/// An owned tuple: a row of attribute values laid out per some Schema.
using Tuple = std::vector<Value>;

/// A borrowed tuple (one row inside a disk block or memory chunk).
using TupleRef = std::span<const Value>;

/// Renders `tuple` as e.g. "[3, 7, 1]".
std::string TupleToString(TupleRef tuple);

/// Projects `tuple` (laid out per `from`) onto the attributes of `to`.
/// Every attribute of `to` must be present in `from`.
Tuple ProjectTuple(TupleRef tuple, const Schema& from, const Schema& to);

/// Concatenates the values of `a` with the values of `b` restricted to
/// attributes not already in `schema_a`; the result is laid out per
/// `JoinedSchema(schema_a, schema_b)`.
Tuple ConcatTuples(TupleRef a, const Schema& schema_a, TupleRef b,
                   const Schema& schema_b);

/// Schema of the natural join of two relations: `a`'s attributes followed
/// by `b`'s attributes not in `a`.
Schema JoinedSchema(const Schema& a, const Schema& b);

}  // namespace emjoin::storage

#endif  // EMJOIN_STORAGE_TUPLE_H_
