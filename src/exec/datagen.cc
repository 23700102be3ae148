#include "exec/datagen.h"

#include <algorithm>
#include <vector>

#include "support/rng.h"

namespace volcano::exec {

Table GenerateTable(const rel::RelationInfo& info, uint64_t seed) {
  Rng rng(seed ^ (uint64_t{info.name.id()} << 32));
  std::vector<Symbol> attrs;
  std::vector<uint64_t> domains;
  for (const auto& a : info.attributes) {
    attrs.push_back(a.name);
    domains.push_back(static_cast<uint64_t>(std::max(1.0, a.distinct_values)));
  }
  Table t{Schema(std::move(attrs))};

  // Values are drawn row-major, straight into the flat table.
  auto n = static_cast<size_t>(info.cardinality);
  t.Reserve(n);
  std::vector<int64_t> row(domains.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = static_cast<int64_t>(rng.Uniform(domains[c]));
    }
    t.Append(row.data());
  }
  if (info.sorted_on.empty()) return t;

  std::vector<int> cols;
  for (Symbol attr : info.sorted_on) {
    int c = t.schema().IndexOf(attr);
    VOLCANO_CHECK(c >= 0);
    cols.push_back(c);
  }
  // Sort row positions, each carrying its major sort key. The comparator
  // answers exactly as a comparison of the rows would, so std::sort makes
  // the moves it would make on the rows and a seed yields the same row
  // order, ties included.
  struct Keyed {
    int64_t key;
    size_t pos;
  };
  std::vector<Keyed> order(t.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = {t.row(i)[cols[0]], i};
  std::sort(order.begin(), order.end(), [&](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    const int64_t* ra = t.row(a.pos);
    const int64_t* rb = t.row(b.pos);
    for (size_t k = 1; k < cols.size(); ++k) {
      if (ra[cols[k]] != rb[cols[k]]) return ra[cols[k]] < rb[cols[k]];
    }
    return false;
  });
  // Apply the permutation in place, one cycle at a time: sorted row i is
  // the generated row order[i].pos.
  std::vector<bool> placed(t.size(), false);
  for (size_t start = 0; start < t.size(); ++start) {
    if (placed[start]) continue;
    std::copy_n(t.row(start), row.size(), row.begin());
    size_t i = start;
    while (order[i].pos != start) {
      std::copy_n(t.row(order[i].pos), row.size(), t.mutable_row(i));
      placed[i] = true;
      i = order[i].pos;
    }
    std::copy_n(row.begin(), row.size(), t.mutable_row(i));
    placed[i] = true;
  }
  return t;
}

Database GenerateDatabase(const rel::Catalog& catalog, uint64_t seed) {
  Database db;
  for (Symbol name : catalog.RelationNames()) {
    const rel::RelationInfo* info = catalog.FindRelation(name);
    db.Put(name, GenerateTable(*info, seed));
  }
  return db;
}

}  // namespace volcano::exec
