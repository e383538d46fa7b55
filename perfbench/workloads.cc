// The benchmark's four workloads. Sizes and (M, B) are fixed per
// workload; only the seed varies between runs.
#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "perfbench.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::perfbench {
namespace {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Rebuilds `rels` on `dev` with every attribute's values mapped through a
// seeded injection into [0, 2^32): the instance keeps its shape (and
// join size) while the order of its values changes with the seed. Each
// relation is written sorted, as the constructions write theirs.
std::vector<storage::Relation> Relabel(
    extmem::Device* dev, const std::vector<storage::Relation>& rels,
    std::uint64_t seed) {
  std::vector<std::vector<storage::Tuple>> contents;
  std::map<storage::AttrId, std::set<Value>> domains;
  for (const storage::Relation& r : rels) {
    contents.push_back(r.ReadAll());
    for (const storage::Tuple& t : contents.back()) {
      for (std::uint32_t i = 0; i < t.size(); ++i) {
        domains[r.schema().attr(i)].insert(t[i]);
      }
    }
  }
  std::map<storage::AttrId, std::map<Value, Value>> label;
  for (const auto& [attr, values] : domains) {
    std::uint64_t state = seed * 0x100000001b3ULL + attr;
    std::set<Value> used;
    for (Value v : values) {
      Value fresh = 0;
      do {
        fresh = SplitMix64(&state) & 0xffffffffULL;
      } while (!used.insert(fresh).second);
      label[attr][v] = fresh;
    }
  }
  std::vector<storage::Relation> out;
  for (std::size_t e = 0; e < rels.size(); ++e) {
    const storage::Schema& schema = rels[e].schema();
    for (storage::Tuple& t : contents[e]) {
      for (std::uint32_t i = 0; i < t.size(); ++i) {
        t[i] = label[schema.attr(i)][t[i]];
      }
    }
    std::sort(contents[e].begin(), contents[e].end());
    out.push_back(storage::Relation::FromTuples(dev, schema, contents[e]));
  }
  return out;
}

query::JoinQuery QueryOf(const std::vector<storage::Relation>& rels) {
  query::JoinQuery q;
  for (const storage::Relation& r : rels) q.AddRelation(r.schema(), r.size());
  return q;
}

Instance Make(TupleCount m, TupleCount b) {
  Instance inst;
  inst.dev = std::make_unique<extmem::Device>(m, b);
  return inst;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "dense_line3" || name == "sparse_line4" ||
         name == "unbalanced_line5" || name == "sharded_skew_line3";
}

Instance BuildInstance(const std::string& name, std::uint64_t seed) {
  if (name == "dense_line3") {
    // Figure 3: |R1| = |R3| = 2048 over one middle tuple.
    Instance inst = Make(64, 8);
    extmem::Device scratch(64, 8);
    inst.rels = Relabel(inst.dev.get(),
                        workload::L3WorstCase(&scratch, 2048, 1, 2048), seed);
    inst.query = QueryOf(inst.rels);
    return inst;
  }
  if (name == "sparse_line4") {
    Instance inst = Make(512, 16);
    inst.query = query::JoinQuery::Line(4);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 40000;
    inst.rels = workload::RandomInstance(inst.dev.get(), inst.query,
                                         {40000, 40000, 40000, 40000}, opts);
    inst.query = QueryOf(inst.rels);
    return inst;
  }
  if (name == "unbalanced_line5") {
    // §6.3, as bench_line5_unbalanced builds it at K=256, z1=32, z2=8:
    // matching ends, cross-product middles, R3 mapping dom(v3) onto
    // dom(v4). N1*N3*N5 < N2*N4, so JoinAuto routes to Algorithm 4.
    constexpr TupleCount k = 256, z1 = 32, z2 = 8;
    Instance inst = Make(64, 8);
    extmem::Device scratch(64, 8);
    std::vector<storage::Relation> hard;
    hard.push_back(workload::Matching(&scratch, 0, 1, k));
    hard.push_back(workload::CrossProduct(&scratch, 1, 2, k, z1));
    hard.push_back(workload::ManyToOne(&scratch, 2, 3, z1, z2));
    hard.push_back(workload::CrossProduct(&scratch, 3, 4, z2, k));
    hard.push_back(workload::Matching(&scratch, 4, 5, k));
    inst.rels = Relabel(inst.dev.get(), hard, seed);
    inst.query = QueryOf(inst.rels);
    return inst;
  }
  if (name == "sharded_skew_line3") {
    Instance inst = Make(512, 16);
    inst.query = query::JoinQuery::Line(3);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 2000;
    opts.zipf_s = 0.7;
    inst.rels = workload::RandomInstance(inst.dev.get(), inst.query,
                                         {16000, 16000, 800}, opts);
    inst.query = QueryOf(inst.rels);
    inst.sharded = true;
    return inst;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace emjoin::perfbench
