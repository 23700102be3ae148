#include "exec/iterators.h"

#include <algorithm>
#include <cstring>

#include "support/hash.h"

namespace volcano::exec {

namespace {

/// A fixed-width output buffer; never empty, so data() is never null even
/// for a zero-width schema.
std::vector<int64_t> RowBuffer(size_t width) {
  return std::vector<int64_t>(std::max<size_t>(1, width), 0);
}

void CopyRow(const int64_t* from, size_t width, int64_t* to) {
  std::memcpy(to, from, width * sizeof(int64_t));
}

bool EqualRows(const int64_t* a, const int64_t* b, size_t width) {
  return std::equal(a, a + width, b);
}

/// Opens `input`, copies every row into a fresh slab, closes it.
void DrainInto(Iterator& input, Table* slab) {
  *slab = Table(input.schema());
  input.Open();
  while (const int64_t* row = input.Next()) slab->Append(row);
  input.Close();
}

std::vector<int> ColumnsOf(const Schema& schema,
                           const std::vector<Symbol>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (Symbol attr : attrs) {
    int c = schema.IndexOf(attr);
    VOLCANO_CHECK(c >= 0);
    cols.push_back(c);
  }
  return cols;
}

/// Slab positions ordered ascending on `cols` major-to-minor. std::sort on
/// positions makes the same comparisons and moves it would make on the rows
/// themselves, so ties come out exactly as a sort of the rows would leave
/// them.
std::vector<uint32_t> SortedPositions(const Table& slab,
                                      const std::vector<int>& cols) {
  VOLCANO_CHECK(slab.size() < HashIndex::kEnd);
  std::vector<uint32_t> pos(slab.size());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = static_cast<uint32_t>(i);
  std::sort(pos.begin(), pos.end(), [&](uint32_t a, uint32_t b) {
    const int64_t* ra = slab.row(a);
    const int64_t* rb = slab.row(b);
    for (int c : cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });
  return pos;
}

}  // namespace

// --- helpers (iterator.h) ----------------------------------------------------

std::vector<Row> Drain(Iterator& it) {
  std::vector<Row> out;
  size_t width = it.schema().size();
  it.Open();
  while (const int64_t* row = it.Next()) out.emplace_back(row, row + width);
  it.Close();
  return out;
}

bool SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool IsSortedBy(const std::vector<Row>& rows, const std::vector<int>& cols) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (int c : cols) {
      if (rows[i - 1][c] < rows[i][c]) break;
      if (rows[i - 1][c] > rows[i][c]) return false;
    }
  }
  return true;
}

// --- HashIndex ---------------------------------------------------------------

void HashIndex::Build(Iterator& input, int col) {
  slab_ = Table(input.schema());
  input.Open();
  while (const int64_t* row = input.Next()) {
    if (row[col] != kNull) slab_.Append(row);  // NULL keys never join
  }
  input.Close();
  VOLCANO_CHECK(slab_.size() < kEnd);
  heads_.Clear();
  next_.assign(slab_.size(), kEnd);
  // Push-front in reverse, so each chain runs in input order.
  for (size_t i = slab_.size(); i-- > 0;) {
    auto pos = static_cast<uint32_t>(i);
    auto [head, inserted] = heads_.TryEmplace(slab_.row(i)[col], pos);
    if (!inserted) {
      next_[i] = *head;
      *head = pos;
    }
  }
}

void HashIndex::Clear() {
  slab_ = Table();
  heads_.Clear();
  next_ = {};
}

// --- RowSet ------------------------------------------------------------------

void RowSet::Reset(const Schema& schema) {
  slab_ = Table(schema);
  index_.Clear();
}

uint64_t RowSet::HashRow(const int64_t* row) const {
  uint64_t h = slab_.width();
  for (size_t i = 0; i < slab_.width(); ++i) {
    h = HashCombine(h, static_cast<uint64_t>(row[i]));
  }
  return h;
}

int64_t RowSet::Find(const int64_t* row, uint64_t hash) const {
  const uint32_t* pos = index_.FindHashed(hash, [&](uint32_t p) {
    return EqualRows(slab_.row(p), row, slab_.width());
  });
  if (pos == nullptr) return -1;
  return *pos;
}

bool RowSet::Insert(const int64_t* row) {
  uint64_t hash = HashRow(row);
  if (Find(row, hash) >= 0) return false;
  VOLCANO_CHECK(slab_.size() < HashIndex::kEnd);
  index_.InsertHashed(hash, static_cast<uint32_t>(slab_.Append(row)));
  return true;
}

// --- FilterIterator ----------------------------------------------------------

FilterIterator::FilterIterator(IteratorPtr input, const rel::SelectArg& pred)
    : input_(std::move(input)), pred_(pred) {}

void FilterIterator::Open() {
  input_->Open();
  col_ = input_->schema().IndexOf(pred_.attr());
  VOLCANO_CHECK(col_ >= 0);
}

const int64_t* FilterIterator::Next() {
  while (const int64_t* row = input_->Next()) {
    // Predicates on NULL are unknown, never true.
    int64_t v = row[col_];
    if (v != kNull && pred_.Eval(v)) return row;
  }
  return nullptr;
}

void FilterIterator::Close() { input_->Close(); }

// --- SortIterator ------------------------------------------------------------

SortIterator::SortIterator(IteratorPtr input, std::vector<Symbol> order)
    : input_(std::move(input)), order_(std::move(order)) {}

void SortIterator::Open() {
  DrainInto(*input_, &slab_);
  order_pos_ = SortedPositions(slab_, ColumnsOf(input_->schema(), order_));
  pos_ = 0;
}

const int64_t* SortIterator::Next() {
  if (pos_ >= order_pos_.size()) return nullptr;
  return slab_.row(order_pos_[pos_++]);
}

void SortIterator::Close() {
  slab_ = Table();
  order_pos_ = {};
}

// --- MergeJoinIterator -------------------------------------------------------

MergeJoinIterator::MergeJoinIterator(IteratorPtr left, IteratorPtr right,
                                     Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

void MergeJoinIterator::Open() {
  left_->Open();
  right_->Open();
  lrow_ = left_->Next();
  rrow_ = right_->Next();
  rgroup_ = Table(right_->schema());
  rgroup_valid_ = false;
  rpos_ = 0;
  out_ = RowBuffer(schema_.size());
}

bool MergeJoinIterator::FillRightGroup(int64_t key) {
  // Advance the right input to `key`, then copy the whole value group so
  // duplicate left keys can re-scan it after the right input has moved on.
  while (rrow_ != nullptr && rrow_[rcol_] < key) rrow_ = right_->Next();
  if (rrow_ == nullptr || rrow_[rcol_] != key) return false;
  rgroup_.Clear();
  while (rrow_ != nullptr && rrow_[rcol_] == key) {
    rgroup_.Append(rrow_);
    rrow_ = right_->Next();
  }
  rgroup_key_ = key;
  rgroup_valid_ = true;
  rpos_ = 0;
  return true;
}

const int64_t* MergeJoinIterator::Next() {
  while (true) {
    if (lrow_ == nullptr) return nullptr;
    int64_t key = lrow_[lcol_];
    if (key == kNull) {  // NULL keys never join
      lrow_ = left_->Next();
      continue;
    }
    if (!rgroup_valid_ || rgroup_key_ != key) {
      // Both inputs are sorted ascending, so a new left key is always at or
      // beyond the buffered group; fetch the group for this key.
      if (!FillRightGroup(key)) {
        if (rrow_ == nullptr) return nullptr;  // right exhausted: no matches
        lrow_ = left_->Next();  // no right rows with this key
        continue;
      }
    }
    if (rpos_ < rgroup_.size()) {
      size_t lw = left_->schema().size();
      CopyRow(lrow_, lw, out_.data());
      CopyRow(rgroup_.row(rpos_++), rgroup_.width(), out_.data() + lw);
      return out_.data();
    }
    // Group exhausted for this left row; a duplicate left key re-scans it.
    lrow_ = left_->Next();
    rpos_ = 0;
  }
}

void MergeJoinIterator::Close() {
  left_->Close();
  right_->Close();
  rgroup_ = Table();
}

// --- HashJoinIterator --------------------------------------------------------

HashJoinIterator::HashJoinIterator(IteratorPtr left, IteratorPtr right,
                                   Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

void HashJoinIterator::Open() {
  build_.Build(*left_, lcol_);
  right_->Open();
  match_ = HashIndex::kEnd;
  out_ = RowBuffer(schema_.size());
}

const int64_t* HashJoinIterator::Next() {
  size_t lw = left_->schema().size();
  while (match_ == HashIndex::kEnd) {
    const int64_t* rrow = right_->Next();
    if (rrow == nullptr) return nullptr;
    match_ = build_.First(rrow[rcol_]);
    // The probe row is copied once; each match rewrites only the left part.
    if (match_ != HashIndex::kEnd) {
      CopyRow(rrow, right_->schema().size(), out_.data() + lw);
    }
  }
  CopyRow(build_.row(match_), lw, out_.data());
  match_ = build_.Next(match_);
  return out_.data();
}

void HashJoinIterator::Close() {
  right_->Close();
  build_.Clear();
}

// --- HashLeftOuterJoinIterator -----------------------------------------------

HashLeftOuterJoinIterator::HashLeftOuterJoinIterator(IteratorPtr left,
                                                     IteratorPtr right,
                                                     Symbol left_attr,
                                                     Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

void HashLeftOuterJoinIterator::Open() {
  // Build on the inner (right) side: probing with the outer stream is what
  // lets each outer row be padded exactly once when it finds no match.
  build_.Build(*right_, rcol_);
  left_->Open();
  in_probe_ = false;
  emitted_match_ = false;
  out_ = RowBuffer(schema_.size());
}

const int64_t* HashLeftOuterJoinIterator::Next() {
  size_t lw = left_->schema().size();
  size_t rw = right_->schema().size();
  while (true) {
    if (in_probe_) {
      // The outer row was copied into out_ when its probe began.
      if (match_ != HashIndex::kEnd) {
        CopyRow(build_.row(match_), rw, out_.data() + lw);
        match_ = build_.Next(match_);
        emitted_match_ = true;
        return out_.data();
      }
      in_probe_ = false;
      if (!emitted_match_) {
        std::fill(out_.begin() + lw, out_.begin() + lw + rw, kNull);
        return out_.data();
      }
    }
    const int64_t* lrow = left_->Next();
    if (lrow == nullptr) return nullptr;
    CopyRow(lrow, lw, out_.data());
    match_ = build_.First(lrow[lcol_]);
    in_probe_ = true;
    emitted_match_ = false;
  }
}

void HashLeftOuterJoinIterator::Close() {
  left_->Close();
  build_.Clear();
}

// --- HashSemiJoinIterator ----------------------------------------------------

namespace {

/// The non-NULL join keys of `input` at column `col`.
void CollectKeys(Iterator& input, int col, FlatHashSet<int64_t>* keys) {
  keys->Clear();
  input.Open();
  while (const int64_t* row = input.Next()) {
    if (row[col] != kNull) keys->Insert(row[col]);
  }
  input.Close();
}

}  // namespace

HashSemiJoinIterator::HashSemiJoinIterator(IteratorPtr left, IteratorPtr right,
                                           Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void HashSemiJoinIterator::Open() {
  // Only key existence matters: a set, not a multimap, so inner duplicates
  // cannot multiply outer rows.
  CollectKeys(*right_, rcol_, &keys_);
  left_->Open();
}

const int64_t* HashSemiJoinIterator::Next() {
  while (const int64_t* row = left_->Next()) {
    int64_t key = row[lcol_];
    if (key != kNull && keys_.Contains(key)) return row;
  }
  return nullptr;
}

void HashSemiJoinIterator::Close() {
  left_->Close();
  keys_.Clear();
}

// --- HashAntiJoinIterator ----------------------------------------------------

HashAntiJoinIterator::HashAntiJoinIterator(IteratorPtr left, IteratorPtr right,
                                           Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void HashAntiJoinIterator::Open() {
  CollectKeys(*right_, rcol_, &keys_);
  left_->Open();
}

const int64_t* HashAntiJoinIterator::Next() {
  while (const int64_t* row = left_->Next()) {
    int64_t key = row[lcol_];
    // A kNull key matches nothing, so the antijoin keeps the row.
    if (key == kNull || !keys_.Contains(key)) return row;
  }
  return nullptr;
}

void HashAntiJoinIterator::Close() {
  left_->Close();
  keys_.Clear();
}

// --- NestedSubqIterator ------------------------------------------------------

NestedSubqIterator::NestedSubqIterator(IteratorPtr left, IteratorPtr right,
                                       const rel::SubqueryArg& arg)
    : left_(std::move(left)), right_(std::move(right)), arg_(arg) {
  lcol_ = left_->schema().IndexOf(arg_.outer_attr());
  rcol_ = right_->schema().IndexOf(arg_.inner_attr());
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void NestedSubqIterator::Open() {
  DrainInto(*right_, &inner_);
  left_->Open();
}

const int64_t* NestedSubqIterator::Next() {
  while (const int64_t* row = left_->Next()) {
    int64_t key = row[lcol_];
    // Deliberately quadratic: the full inner scan per outer row is what a
    // correlated subquery costs before unnesting.
    bool match = false;
    if (key != kNull) {
      for (size_t i = 0; i < inner_.size(); ++i) {
        if (inner_.row(i)[rcol_] == key) {
          match = true;
          break;
        }
      }
    }
    if (match != arg_.negated()) return row;
  }
  return nullptr;
}

void NestedSubqIterator::Close() {
  left_->Close();
  inner_ = Table();
}

// --- MultiHashJoinIterator -----------------------------------------------------

MultiHashJoinIterator::MultiHashJoinIterator(IteratorPtr a, IteratorPtr b,
                                             IteratorPtr c,
                                             const rel::MultiJoinArg& arg)
    : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), arg_(arg) {
  a_inner_col_ = a_->schema().IndexOf(arg_.inner_left());
  b_inner_col_ = b_->schema().IndexOf(arg_.inner_right());
  Schema ab = Schema::Concat(a_->schema(), b_->schema());
  ab_outer_col_ = ab.IndexOf(arg_.outer_left());
  c_outer_col_ = c_->schema().IndexOf(arg_.outer_right());
  VOLCANO_CHECK(a_inner_col_ >= 0 && b_inner_col_ >= 0 &&
                ab_outer_col_ >= 0 && c_outer_col_ >= 0);
  schema_ = Schema::Concat(ab, c_->schema());
}

void MultiHashJoinIterator::Open() {
  b_build_.Build(*b_, b_inner_col_);
  c_build_.Build(*c_, c_outer_col_);
  a_->Open();
  b_match_ = HashIndex::kEnd;
  c_match_ = HashIndex::kEnd;
  out_ = RowBuffer(schema_.size());
}

const int64_t* MultiHashJoinIterator::Next() {
  size_t aw = a_->schema().size();
  size_t bw = b_->schema().size();
  while (true) {
    if (c_match_ != HashIndex::kEnd) {
      CopyRow(c_build_.row(c_match_), c_->schema().size(),
              out_.data() + aw + bw);
      c_match_ = c_build_.Next(c_match_);
      return out_.data();
    }
    if (b_match_ != HashIndex::kEnd) {
      // The intermediate (a, b) row exists only as the output buffer's
      // prefix; it is never materialized into a table.
      CopyRow(b_build_.row(b_match_), bw, out_.data() + aw);
      b_match_ = b_build_.Next(b_match_);
      c_match_ = c_build_.First(out_[ab_outer_col_]);
      continue;
    }
    const int64_t* arow = a_->Next();
    if (arow == nullptr) return nullptr;
    CopyRow(arow, aw, out_.data());
    b_match_ = b_build_.First(arow[a_inner_col_]);
  }
}

void MultiHashJoinIterator::Close() {
  a_->Close();
  b_build_.Clear();
  c_build_.Clear();
}

// --- ProjectIterator ---------------------------------------------------------

ProjectIterator::ProjectIterator(IteratorPtr input, std::vector<Symbol> attrs)
    : input_(std::move(input)),
      schema_(attrs),
      cols_(ColumnsOf(input_->schema(), attrs)) {}

void ProjectIterator::Open() {
  input_->Open();
  out_ = RowBuffer(cols_.size());
}

const int64_t* ProjectIterator::Next() {
  const int64_t* in = input_->Next();
  if (in == nullptr) return nullptr;
  for (size_t i = 0; i < cols_.size(); ++i) out_[i] = in[cols_[i]];
  return out_.data();
}

void ProjectIterator::Close() { input_->Close(); }

// --- ConcatIterator ------------------------------------------------------------

ConcatIterator::ConcatIterator(IteratorPtr left, IteratorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
}

void ConcatIterator::Open() {
  left_->Open();
  right_->Open();
  on_right_ = false;
}

const int64_t* ConcatIterator::Next() {
  if (!on_right_) {
    if (const int64_t* row = left_->Next()) return row;
    on_right_ = true;
  }
  return right_->Next();
}

void ConcatIterator::Close() {
  left_->Close();
  right_->Close();
}

// --- HashAggIterator -----------------------------------------------------------

HashAggIterator::HashAggIterator(IteratorPtr input, Symbol group_attr,
                                 Symbol count_attr)
    : input_(std::move(input)), schema_({group_attr, count_attr}) {
  group_col_ = input_->schema().IndexOf(group_attr);
  VOLCANO_CHECK(group_col_ >= 0);
}

void HashAggIterator::Open() {
  // Each group's (value, count) row lives in the output slab; the map
  // points at it by position.
  FlatHashMap<int64_t, uint32_t> groups;
  out_ = Table(schema_);
  input_->Open();
  while (const int64_t* row = input_->Next()) {
    int64_t group = row[group_col_];
    auto [pos, inserted] =
        groups.TryEmplace(group, static_cast<uint32_t>(out_.size()));
    if (inserted) {
      const int64_t fresh[2] = {group, 0};
      out_.Append(fresh);
    }
    ++out_.mutable_row(*pos)[1];
  }
  input_->Close();
  pos_ = 0;
}

const int64_t* HashAggIterator::Next() {
  if (pos_ >= out_.size()) return nullptr;
  return out_.row(pos_++);
}

void HashAggIterator::Close() { out_ = Table(); }

// --- SortAggIterator -----------------------------------------------------------

SortAggIterator::SortAggIterator(IteratorPtr input, Symbol group_attr,
                                 Symbol count_attr)
    : input_(std::move(input)), schema_({group_attr, count_attr}) {
  group_col_ = input_->schema().IndexOf(group_attr);
  VOLCANO_CHECK(group_col_ >= 0);
}

void SortAggIterator::Open() {
  input_->Open();
  pending_ = input_->Next();
}

const int64_t* SortAggIterator::Next() {
  if (pending_ == nullptr) return nullptr;
  // Only the group value is kept across the input's Next calls.
  int64_t group = pending_[group_col_];
  int64_t count = 1;
  while ((pending_ = input_->Next()) != nullptr &&
         pending_[group_col_] == group) {
    ++count;
  }
  out_[0] = group;
  out_[1] = count;
  return out_;
}

void SortAggIterator::Close() { input_->Close(); }

// --- MergeIntersectIterator --------------------------------------------------

MergeIntersectIterator::MergeIntersectIterator(IteratorPtr left,
                                               IteratorPtr right,
                                               std::vector<Symbol> left_order,
                                               std::vector<Symbol> right_order)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_order_(std::move(left_order)),
      right_order_(std::move(right_order)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
  VOLCANO_CHECK(left_order_.size() == left_->schema().size());
  VOLCANO_CHECK(right_order_.size() == right_->schema().size());
}

void MergeIntersectIterator::Open() {
  lcols_ = ColumnsOf(left_->schema(), left_order_);
  rcols_ = ColumnsOf(right_->schema(), right_order_);
  left_->Open();
  right_->Open();
  lrow_ = left_->Next();
  rrow_ = right_->Next();
  have_last_ = false;
  last_ = RowBuffer(left_->schema().size());
  match_ = RowBuffer(left_->schema().size());
}

const int64_t* MergeIntersectIterator::Next() {
  size_t width = left_->schema().size();
  auto compare = [&]() {
    for (size_t i = 0; i < lcols_.size(); ++i) {
      int64_t a = lrow_[lcols_[i]];
      int64_t b = rrow_[rcols_[i]];
      if (a != b) return a < b ? -1 : 1;
    }
    return 0;
  };
  while (lrow_ != nullptr && rrow_ != nullptr) {
    int c = compare();
    if (c < 0) {
      lrow_ = left_->Next();
    } else if (c > 0) {
      rrow_ = right_->Next();
    } else {
      // Copy the match before both inputs move on.
      CopyRow(lrow_, width, match_.data());
      lrow_ = left_->Next();
      rrow_ = right_->Next();
      if (have_last_ && EqualRows(match_.data(), last_.data(), width)) {
        continue;  // duplicate elimination
      }
      std::swap(last_, match_);
      have_last_ = true;
      return last_.data();
    }
  }
  return nullptr;
}

void MergeIntersectIterator::Close() {
  left_->Close();
  right_->Close();
}

// --- SortDedupIterator -----------------------------------------------------------

SortDedupIterator::SortDedupIterator(IteratorPtr input,
                                     std::vector<Symbol> prefix_order)
    : input_(std::move(input)), prefix_order_(std::move(prefix_order)) {}

void SortDedupIterator::Open() {
  DrainInto(*input_, &slab_);
  // Sort columns: the required prefix first, then every remaining column so
  // duplicates become adjacent.
  std::vector<int> cols = ColumnsOf(input_->schema(), prefix_order_);
  for (size_t i = 0; i < input_->schema().size(); ++i) {
    int c = static_cast<int>(i);
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  }
  order_pos_ = SortedPositions(slab_, cols);
  order_pos_.erase(std::unique(order_pos_.begin(), order_pos_.end(),
                               [&](uint32_t a, uint32_t b) {
                                 return EqualRows(slab_.row(a), slab_.row(b),
                                                  slab_.width());
                               }),
                   order_pos_.end());
  pos_ = 0;
}

const int64_t* SortDedupIterator::Next() {
  if (pos_ >= order_pos_.size()) return nullptr;
  return slab_.row(order_pos_[pos_++]);
}

void SortDedupIterator::Close() {
  slab_ = Table();
  order_pos_ = {};
}

// --- HashDedupIterator -----------------------------------------------------------

HashDedupIterator::HashDedupIterator(IteratorPtr input)
    : input_(std::move(input)) {}

void HashDedupIterator::Open() {
  seen_.Reset(input_->schema());
  input_->Open();
  while (const int64_t* row = input_->Next()) seen_.Insert(row);
  input_->Close();
  pos_ = 0;
}

const int64_t* HashDedupIterator::Next() {
  if (pos_ >= seen_.rows().size()) return nullptr;
  return seen_.rows().row(pos_++);
}

void HashDedupIterator::Close() { seen_.Reset(Schema()); }

// --- HashIntersectIterator ---------------------------------------------------

HashIntersectIterator::HashIntersectIterator(IteratorPtr left,
                                             IteratorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
}

void HashIntersectIterator::Open() {
  left_rows_.Reset(left_->schema());
  left_->Open();
  while (const int64_t* row = left_->Next()) left_rows_.Insert(row);
  left_->Close();
  // A left row is emitted the first time the right stream finds it.
  std::vector<bool> emitted(left_rows_.rows().size(), false);
  out_.clear();
  right_->Open();
  while (const int64_t* row = right_->Next()) {
    int64_t pos = left_rows_.Find(row);
    if (pos >= 0 && !emitted[pos]) {
      emitted[pos] = true;
      out_.push_back(static_cast<uint32_t>(pos));
    }
  }
  right_->Close();
  pos_ = 0;
}

const int64_t* HashIntersectIterator::Next() {
  if (pos_ >= out_.size()) return nullptr;
  return left_rows_.rows().row(out_[pos_++]);
}

void HashIntersectIterator::Close() {
  left_rows_.Reset(Schema());
  out_ = {};
}

}  // namespace volcano::exec
