#include "storage/tuple.h"

#include <cassert>
#include <sstream>

namespace emjoin::storage {

std::string TupleToString(TupleRef tuple) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) os << ", ";
    os << tuple[i];
  }
  os << "]";
  return os.str();
}

Tuple ProjectTuple(TupleRef tuple, const Schema& from, const Schema& to) {
  Tuple out;
  out.reserve(to.arity());
  for (AttrId a : to.attrs()) {
    const auto pos = from.PositionOf(a);
    assert(pos.has_value());
    out.push_back(tuple[*pos]);
  }
  return out;
}

Tuple ConcatTuples(TupleRef a, const Schema& schema_a, TupleRef b,
                   const Schema& schema_b) {
  Tuple out(a.begin(), a.end());
  for (std::uint32_t i = 0; i < schema_b.arity(); ++i) {
    if (!schema_a.Contains(schema_b.attr(i))) out.push_back(b[i]);
  }
  return out;
}

Schema JoinedSchema(const Schema& a, const Schema& b) {
  std::vector<AttrId> attrs = a.attrs();
  for (AttrId x : b.attrs()) {
    if (!a.Contains(x)) attrs.push_back(x);
  }
  return Schema(std::move(attrs));
}

}  // namespace emjoin::storage
