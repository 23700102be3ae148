// Physical operator iterators: scan, filter, sort, merge join, hybrid hash
// join, outer/semi/anti joins, project, merge/hash intersect.
//
// Tuple ownership follows iterator.h: scan, filter, semijoin, antijoin,
// nested subquery and concat hand out their input's (or table's) pointer;
// project, the joins and the aggregates write each output tuple into one
// fixed-width buffer they own; sort, the dedups, hash intersect, hash
// aggregation, the nested-subquery inner side and every hash build drain
// their input into one flat slab (Table) and address it by row position.

#ifndef VOLCANO_EXEC_ITERATORS_H_
#define VOLCANO_EXEC_ITERATORS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/iterator.h"
#include "relational/rel_args.h"
#include "support/flat_hash.h"

namespace volcano::exec {

/// Equi-join hash table over a slab: each key maps to the first slab
/// position holding it, and next-position links chain the rest in input
/// order. Rows with a kNull key are not stored (NULL never joins).
class HashIndex {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Drains `input` (opening and closing it), keyed on column `col`.
  void Build(Iterator& input, int col);
  /// First position with `key`, or kEnd.
  uint32_t First(int64_t key) const {
    const uint32_t* head = heads_.Find(key);
    return head == nullptr ? kEnd : *head;
  }
  /// The position after `pos` with the same key, or kEnd.
  uint32_t Next(uint32_t pos) const { return next_[pos]; }
  const int64_t* row(uint32_t pos) const { return slab_.row(pos); }
  void Clear();

 private:
  Table slab_;
  FlatHashMap<int64_t, uint32_t> heads_;
  std::vector<uint32_t> next_;
};

/// Set of whole rows, kept in a slab in first-insertion order.
class RowSet {
 public:
  void Reset(const Schema& schema);
  /// Position of the stored row equal to `row`, or -1.
  int64_t Find(const int64_t* row) const { return Find(row, HashRow(row)); }
  /// Stores `row` unless an equal row is present; true if it was new.
  bool Insert(const int64_t* row);
  const Table& rows() const { return slab_; }

 private:
  uint64_t HashRow(const int64_t* row) const;
  int64_t Find(const int64_t* row, uint64_t hash) const;

  Table slab_;
  FlatHashSet<uint32_t> index_;  // slab positions, hashed by row content
};

/// Full scan of a stored table: hands out pointers into the table.
class ScanIterator final : public Iterator {
 public:
  explicit ScanIterator(const Table& table) : table_(table) {}
  void Open() override { pos_ = 0; }
  const int64_t* Next() override {
    if (pos_ >= table_.size()) return nullptr;
    return table_.row(pos_++);
  }
  void Close() override {}
  const Schema& schema() const override { return table_.schema(); }

 private:
  const Table& table_;
  size_t pos_ = 0;
};

/// Predicate filter; order preserving, fully pipelined.
class FilterIterator final : public Iterator {
 public:
  FilterIterator(IteratorPtr input, const rel::SelectArg& pred);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  rel::SelectArg pred_;
  int col_ = -1;
};

/// Full sort (materializing); ascending on the given attributes
/// major-to-minor.
class SortIterator final : public Iterator {
 public:
  SortIterator(IteratorPtr input, std::vector<Symbol> order);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  std::vector<Symbol> order_;
  Table slab_;
  std::vector<uint32_t> order_pos_;  // slab positions in sorted order
  size_t pos_ = 0;
};

/// Merge join on sorted inputs (equi-join, duplicate-correct: copies the
/// right-hand value group into a slab so duplicate left keys re-scan it).
class MergeJoinIterator final : public Iterator {
 public:
  MergeJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                    Symbol right_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  bool FillRightGroup(int64_t key);

  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  const int64_t* lrow_ = nullptr;
  const int64_t* rrow_ = nullptr;  // first right row past the group
  Table rgroup_;
  int64_t rgroup_key_ = 0;
  bool rgroup_valid_ = false;
  size_t rpos_ = 0;
  std::vector<int64_t> out_;
};

/// Hash join: builds on the left input, probes with the right. The paper's
/// experiments assume it "proceeds without partition files"; this in-memory
/// implementation matches that assumption. Output order is unspecified.
class HashJoinIterator final : public Iterator {
 public:
  HashJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                   Symbol right_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  HashIndex build_;
  uint32_t match_ = HashIndex::kEnd;
  std::vector<int64_t> out_;
};

/// Hash left outer join: builds on the right (inner) input, probes with the
/// left (outer) input so every outer row is seen exactly once; unmatched
/// outer rows are emitted padded with kNull. kNull keys never match.
class HashLeftOuterJoinIterator final : public Iterator {
 public:
  HashLeftOuterJoinIterator(IteratorPtr left, IteratorPtr right,
                            Symbol left_attr, Symbol right_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  HashIndex build_;
  uint32_t match_ = HashIndex::kEnd;
  bool in_probe_ = false;
  bool emitted_match_ = false;
  std::vector<int64_t> out_;
};

/// Hash semijoin: emits each outer (left) row at most once if the inner
/// input contains a matching key. Order and duplicates of the outer stream
/// are preserved; kNull keys never match.
class HashSemiJoinIterator final : public Iterator {
 public:
  HashSemiJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                       Symbol right_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  FlatHashSet<int64_t> keys_;
};

/// Hash antijoin: the complement of the semijoin — emits exactly the outer
/// rows the semijoin drops (so semijoin ∪ antijoin = outer input). A kNull
/// outer key matches nothing and is therefore emitted.
class HashAntiJoinIterator final : public Iterator {
 public:
  HashAntiJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                       Symbol right_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  FlatHashSet<int64_t> keys_;
};

/// Naive correlated subquery execution (NESTED_SUBQ): materializes the
/// inner input once, then re-scans it per outer row — quadratic, the
/// baseline the unnesting transformations beat. Emits the outer row when
/// the existence test (negated for NOT IN / NOT EXISTS) passes.
class NestedSubqIterator final : public Iterator {
 public:
  NestedSubqIterator(IteratorPtr left, IteratorPtr right,
                     const rel::SubqueryArg& arg);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  rel::SubqueryArg arg_;
  int lcol_ = -1;
  int rcol_ = -1;
  Table inner_;
};

/// Ternary multi-way hash join (MULTI_HASH_JOIN): builds hash tables on the
/// second and third inputs and streams the first through both probes; the
/// intermediate join result is never materialized. kNull keys never match.
class MultiHashJoinIterator final : public Iterator {
 public:
  MultiHashJoinIterator(IteratorPtr a, IteratorPtr b, IteratorPtr c,
                        const rel::MultiJoinArg& arg);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr a_;
  IteratorPtr b_;
  IteratorPtr c_;
  rel::MultiJoinArg arg_;
  Schema schema_;
  int a_inner_col_ = -1;   // inner-left attribute in a's schema
  int b_inner_col_ = -1;   // inner-right attribute in b's schema
  int ab_outer_col_ = -1;  // outer-left attribute in the (a,b) row
  int c_outer_col_ = -1;   // outer-right attribute in c's schema
  HashIndex b_build_;
  HashIndex c_build_;
  uint32_t b_match_ = HashIndex::kEnd;
  uint32_t c_match_ = HashIndex::kEnd;
  std::vector<int64_t> out_;  // (a, b, c); its (a, b) prefix is transient
};

/// Duplicate-preserving column projection; order preserving.
class ProjectIterator final : public Iterator {
 public:
  ProjectIterator(IteratorPtr input, std::vector<Symbol> attrs);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  std::vector<int> cols_;
  std::vector<int64_t> out_;
};

/// Set intersection of two fully sorted inputs (positional column
/// correspondence, duplicates eliminated) — "an algorithm very similar to
/// merge-join" (paper section 3). `left_order` / `right_order` give the
/// column comparison order the inputs are sorted by (the optimizer may pick
/// any of several alternative orders; the iterator must compare in the same
/// one).
class MergeIntersectIterator final : public Iterator {
 public:
  MergeIntersectIterator(IteratorPtr left, IteratorPtr right,
                         std::vector<Symbol> left_order,
                         std::vector<Symbol> right_order);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  std::vector<Symbol> left_order_;
  std::vector<Symbol> right_order_;
  std::vector<int> lcols_, rcols_;
  const int64_t* lrow_ = nullptr;
  const int64_t* rrow_ = nullptr;
  bool have_last_ = false;
  std::vector<int64_t> last_;  // the row last emitted (the output buffer)
  std::vector<int64_t> match_;
};

/// Bag union: forwards all rows of the first input, then the second.
class ConcatIterator final : public Iterator {
 public:
  ConcatIterator(IteratorPtr left, IteratorPtr right);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  bool on_right_ = false;
};

/// Hash aggregation: GROUP BY one column, COUNT(*). Output rows are
/// (group value, count) in unspecified order.
class HashAggIterator final : public Iterator {
 public:
  HashAggIterator(IteratorPtr input, Symbol group_attr, Symbol count_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  int group_col_ = -1;
  Table out_;
  size_t pos_ = 0;
};

/// Streaming aggregation over an input sorted on the grouping column;
/// output stays sorted on it.
class SortAggIterator final : public Iterator {
 public:
  SortAggIterator(IteratorPtr input, Symbol group_attr, Symbol count_attr);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  int group_col_ = -1;
  const int64_t* pending_ = nullptr;  // first row of the next group
  int64_t out_[2] = {0, 0};
};

/// Sort-based duplicate elimination: sorts by the given prefix order then
/// all remaining columns, emits distinct rows (SORT_DEDUP enforcer).
class SortDedupIterator final : public Iterator {
 public:
  SortDedupIterator(IteratorPtr input, std::vector<Symbol> prefix_order);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  std::vector<Symbol> prefix_order_;
  Table slab_;
  std::vector<uint32_t> order_pos_;  // distinct rows' slab positions, sorted
  size_t pos_ = 0;
};

/// Hash-based duplicate elimination (HASH_DEDUP enforcer); emits rows in
/// first-seen order.
class HashDedupIterator final : public Iterator {
 public:
  explicit HashDedupIterator(IteratorPtr input);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  RowSet seen_;
  size_t pos_ = 0;
};

/// Hash-based set intersection (duplicates eliminated): builds a row set
/// on the left input, emits each distinct right row found in it.
class HashIntersectIterator final : public Iterator {
 public:
  HashIntersectIterator(IteratorPtr left, IteratorPtr right);
  void Open() override;
  const int64_t* Next() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  RowSet left_rows_;
  std::vector<uint32_t> out_;  // left_rows_ positions, in right-stream order
  size_t pos_ = 0;
};

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_ITERATORS_H_
