// In-memory tables and the tuple representation.
//
// The execution substrate: relations are fixed-width integer tuples with a
// named schema, stored row-major in one contiguous array. This stands in
// for Volcano's stored files; 100-byte records of the paper's experiments
// are modeled by the catalog's tuple_bytes (cost model) while execution
// works on the attribute values.
//
// The same flat layout is the per-operator slab of every materializing
// iterator (sort, dedup, intersect, aggregate, hash build): rows are
// appended by value and addressed by position, so no tuple owns a heap
// allocation below the root of a plan. `Row` is the boundary type only:
// ExecutePlan/Drain build one per result row, and the reference evaluator
// works on them.

#ifndef VOLCANO_EXEC_TABLE_H_
#define VOLCANO_EXEC_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/intern.h"
#include "support/status.h"

namespace volcano::exec {

/// One tuple at the executor's boundary: attribute values in schema order.
using Row = std::vector<int64_t>;

/// SQL NULL sentinel. Stored base tables never contain it; it enters a
/// stream only as left-outer-join padding. Comparisons treat it as
/// unknown: it never equals anything (itself included), and predicates on
/// it are false — which is exactly the null-rejection the outer-join
/// simplification rule relies on.
inline constexpr int64_t kNull = std::numeric_limits<int64_t>::min();

/// Ordered attribute list naming a row's columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Symbol> attrs) : attrs_(std::move(attrs)) {}

  const std::vector<Symbol>& attrs() const { return attrs_; }
  size_t size() const { return attrs_.size(); }
  Symbol at(size_t i) const { return attrs_[i]; }

  /// Column index of `attr`, or -1.
  int IndexOf(Symbol attr) const {
    for (size_t i = 0; i < attrs_.size(); ++i) {
      if (attrs_[i] == attr) return static_cast<int>(i);
    }
    return -1;
  }

  /// Concatenation (join output schema).
  static Schema Concat(const Schema& a, const Schema& b) {
    std::vector<Symbol> attrs = a.attrs_;
    attrs.insert(attrs.end(), b.attrs_.begin(), b.attrs_.end());
    return Schema(std::move(attrs));
  }

 private:
  std::vector<Symbol> attrs_;
};

/// Rows of one schema, stored row-major in one array: row i is the
/// width() values starting at row(i). A stored relation instance, and the
/// slab a materializing iterator drains its input into. Pointers from
/// row() stay valid until the next Append, Reserve or Clear; assigning a
/// fresh Table releases the storage.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)),
        stride_(std::max<size_t>(1, schema_.size())) {}

  const Schema& schema() const { return schema_; }
  size_t width() const { return schema_.size(); }
  size_t size() const { return size_; }

  const int64_t* row(size_t i) const { return values_.data() + i * stride_; }
  int64_t* mutable_row(size_t i) { return values_.data() + i * stride_; }

  /// Appends a copy of the width() values at `row`; returns its position.
  size_t Append(const int64_t* row) {
    // A zero-width row still takes one slot, so row() never hands out null
    // for a row that exists.
    values_.insert(values_.end(), row, row + width());
    if (width() == 0) values_.push_back(0);
    return size_++;
  }

  void Reserve(size_t rows) { values_.reserve(rows * stride_); }

  /// Drops every row, keeping the storage for reuse.
  void Clear() {
    values_.clear();
    size_ = 0;
  }

 private:
  Schema schema_;
  size_t stride_ = 1;
  size_t size_ = 0;
  std::vector<int64_t> values_;
};

/// All stored relations of one database instance.
class Database {
 public:
  void Put(Symbol relation, Table table) {
    tables_[relation] = std::move(table);
  }
  const Table* Find(Symbol relation) const {
    auto it = tables_.find(relation);
    return it == tables_.end() ? nullptr : &it->second;
  }
  size_t size() const { return tables_.size(); }

 private:
  std::unordered_map<Symbol, Table> tables_;
};

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_TABLE_H_
