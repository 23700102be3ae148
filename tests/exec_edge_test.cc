// Edge cases of the flat-tuple executor: duplicate keys, kNull keys,
// multi-column set operations, and the Next pointer-lifetime contract.
//
// Every input here comes from a scan that hands out each row in a fresh heap
// buffer and frees the previous one on its next Next. An operator that keeps
// an input pointer past that point, where it must keep a copy, reads freed
// memory: AddressSanitizer reports it, and without the sanitizer the stale
// values show up as wrong results.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "exec/iterators.h"
#include "relational/rel_args.h"

namespace volcano::exec {
namespace {

SymbolTable g_symbols;

Symbol Sym(const char* s) { return g_symbols.Intern(s); }

/// Scan whose row pointers die on its next Next.
class EphemeralScan final : public Iterator {
 public:
  EphemeralScan(std::vector<Symbol> attrs, std::vector<Row> rows)
      : schema_(std::move(attrs)), rows_(std::move(rows)) {}

  void Open() override { pos_ = 0; }
  const int64_t* Next() override {
    Release();
    if (pos_ >= rows_.size()) return nullptr;
    const Row& row = rows_[pos_++];
    buf_ = std::make_unique<int64_t[]>(std::max<size_t>(1, row.size()));
    std::copy(row.begin(), row.end(), buf_.get());
    return buf_.get();
  }
  void Close() override { Release(); }
  const Schema& schema() const override { return schema_; }

 private:
  void Release() {
    if (buf_ != nullptr) std::fill_n(buf_.get(), schema_.size(), -777);
    buf_.reset();
  }

  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  std::unique_ptr<int64_t[]> buf_;
};

IteratorPtr Scan(std::vector<const char*> attrs, std::vector<Row> rows) {
  std::vector<Symbol> syms;
  for (const char* a : attrs) syms.push_back(Sym(a));
  return std::make_unique<EphemeralScan>(std::move(syms), std::move(rows));
}

/// Nested-loop equi-join with NULL-never-joins semantics.
std::vector<Row> JoinReference(const std::vector<Row>& l,
                               const std::vector<Row>& r, int lc, int rc) {
  std::vector<Row> out;
  for (const Row& a : l) {
    for (const Row& b : r) {
      if (a[lc] != kNull && a[lc] == b[rc]) {
        Row row = a;
        row.insert(row.end(), b.begin(), b.end());
        out.push_back(row);
      }
    }
  }
  return out;
}

// --- merge join ----------------------------------------------------------------

TEST(ExecEdge, MergeJoinDuplicatesOnBothSidesAndGroupAtEndOfInput) {
  // Key 1 has 2 left x 3 right rows; key 3 has 2 x 2, and its right-hand
  // group is the last rows of the right input.
  std::vector<Row> l = {{1, 10}, {1, 11}, {2, 20}, {3, 30}, {3, 31}};
  std::vector<Row> r = {{1, 100}, {1, 101}, {1, 102}, {3, 300}, {3, 301}};
  MergeJoinIterator mj(Scan({"mj_lk", "mj_lv"}, l), Scan({"mj_rk", "mj_rv"}, r),
                       Sym("mj_lk"), Sym("mj_rk"));
  std::vector<Row> out = Drain(mj);
  EXPECT_EQ(out.size(), 2u * 3u + 2u * 2u);
  EXPECT_TRUE(SameMultiset(out, JoinReference(l, r, 0, 0)));
  EXPECT_TRUE(IsSortedBy(out, {0}));
}

TEST(ExecEdge, MergeJoinSkipsNullKeys) {
  // kNull sorts first (it is the smallest int64) and never joins.
  std::vector<Row> l = {{kNull}, {kNull}, {2}, {5}};
  std::vector<Row> r = {{kNull}, {2}, {2}, {5}};
  MergeJoinIterator mj(Scan({"mjn_l"}, l), Scan({"mjn_r"}, r), Sym("mjn_l"),
                       Sym("mjn_r"));
  EXPECT_EQ(Drain(mj), (std::vector<Row>{{2, 2}, {2, 2}, {5, 5}}));
}

// --- hash joins ----------------------------------------------------------------

TEST(ExecEdge, HashJoinNullKeysAndAllDuplicateBuildSide) {
  std::vector<Row> l = {{5, 1}, {5, 2}, {kNull, 3}, {5, 4}};
  std::vector<Row> r = {{5}, {kNull}, {7}, {5}};
  HashJoinIterator hj(Scan({"hj_lk", "hj_lv"}, l), Scan({"hj_rk"}, r),
                      Sym("hj_lk"), Sym("hj_rk"));
  std::vector<Row> out = Drain(hj);
  EXPECT_EQ(out.size(), 3u * 2u);
  EXPECT_TRUE(SameMultiset(out, JoinReference(l, r, 0, 0)));
}

TEST(ExecEdge, LeftOuterJoinKeepsOuterOrderAndPadsNullKeys) {
  // Outer kNull and unmatched keys are padded; the inner side's kNull keys
  // and its all-duplicate key 1 never disturb the outer order.
  std::vector<Row> l = {{1, 10}, {kNull, 11}, {2, 12}, {1, 13}};
  std::vector<Row> r = {{1, 100}, {1, 101}, {kNull, 102}, {kNull, 103}};
  HashLeftOuterJoinIterator loj(Scan({"loj_lk", "loj_lv"}, l),
                                Scan({"loj_rk", "loj_rv"}, r), Sym("loj_lk"),
                                Sym("loj_rk"));
  std::vector<Row> out = Drain(loj);
  ASSERT_EQ(out.size(), 6u);
  std::vector<int64_t> outer_payload;
  for (const Row& row : out) outer_payload.push_back(row[1]);
  EXPECT_EQ(outer_payload, (std::vector<int64_t>{10, 10, 11, 12, 13, 13}));
  EXPECT_EQ(out[2], (Row{kNull, 11, kNull, kNull}));
  EXPECT_EQ(out[3], (Row{2, 12, kNull, kNull}));
  std::vector<Row> matched = {out[0], out[1], out[4], out[5]};
  EXPECT_TRUE(SameMultiset(matched, JoinReference(l, r, 0, 0)));
}

TEST(ExecEdge, SemiAndAntiJoinNullKeysAndAllDuplicateInner) {
  std::vector<Row> l = {{3, 1}, {kNull, 2}, {4, 3}, {3, 4}};
  std::vector<Row> r = {{3}, {3}, {3}, {kNull}};
  HashSemiJoinIterator semi(Scan({"sj_lk", "sj_lv"}, l), Scan({"sj_rk"}, r),
                            Sym("sj_lk"), Sym("sj_rk"));
  EXPECT_EQ(Drain(semi), (std::vector<Row>{{3, 1}, {3, 4}}));
  HashAntiJoinIterator anti(Scan({"aj_lk", "aj_lv"}, l), Scan({"aj_rk"}, r),
                            Sym("aj_lk"), Sym("aj_rk"));
  EXPECT_EQ(Drain(anti), (std::vector<Row>{{kNull, 2}, {4, 3}}));
}

TEST(ExecEdge, MultiHashJoinMatchesTwoBinaryJoins) {
  // a.x = b.y, then b.z = c.w, with duplicates and kNull keys everywhere.
  std::vector<Row> a = {{1}, {1}, {2}, {kNull}};
  std::vector<Row> b = {{1, 7}, {1, 8}, {2, kNull}, {kNull, 7}};
  std::vector<Row> c = {{7, 70}, {7, 71}, {8, 80}, {kNull, 90}};
  rel::MultiJoinArg arg(g_symbols, Sym("mhj_x"), Sym("mhj_y"), Sym("mhj_z"),
                        Sym("mhj_w"));
  MultiHashJoinIterator mhj(Scan({"mhj_x"}, a), Scan({"mhj_y", "mhj_z"}, b),
                            Scan({"mhj_w", "mhj_v"}, c), arg);
  std::vector<Row> expected = JoinReference(JoinReference(a, b, 0, 0), c, 2, 0);
  std::vector<Row> out = Drain(mhj);
  EXPECT_EQ(out.size(), 2u * (2u + 1u));
  EXPECT_TRUE(SameMultiset(out, expected));
}

// --- multi-column set operations -----------------------------------------------

const std::vector<Row> kMultiColumn = {{1, 2}, {1, 3}, {1, 2}, {2, 2},
                                       {1, 3}, {2, 1}, {2, 2}};

TEST(ExecEdge, HashDedupMultiColumnKeepsFirstSeenOrder) {
  HashDedupIterator d(Scan({"hd_a", "hd_b"}, kMultiColumn));
  EXPECT_EQ(Drain(d), (std::vector<Row>{{1, 2}, {1, 3}, {2, 2}, {2, 1}}));
}

TEST(ExecEdge, SortDedupMultiColumnSortsPrefixThenRest) {
  SortDedupIterator d(Scan({"sd_a", "sd_b"}, kMultiColumn), {Sym("sd_b")});
  EXPECT_EQ(Drain(d), (std::vector<Row>{{2, 1}, {1, 2}, {2, 2}, {1, 3}}));
}

TEST(ExecEdge, HashIntersectMultiColumnComparesWholeRows) {
  // {1, 4} shares its first column with left rows but is not one of them.
  std::vector<Row> r = {{1, 3}, {1, 4}, {1, 2}, {2, 5}, {1, 3}};
  HashIntersectIterator hi(Scan({"hi_a", "hi_b"}, kMultiColumn),
                           Scan({"hi_c", "hi_d"}, r));
  EXPECT_EQ(Drain(hi), (std::vector<Row>{{1, 3}, {1, 2}}));
}

// --- operators that keep a row across their child's next Next -------------------

TEST(ExecEdge, MergeIntersectCopiesTheRowItCompares) {
  std::vector<Row> l = {{1, 1}, {1, 1}, {2, 5}, {3, 0}};
  std::vector<Row> r = {{1, 1}, {2, 5}, {2, 5}, {4, 0}};
  MergeIntersectIterator mi(Scan({"mi_a", "mi_b"}, l),
                            Scan({"mi_c", "mi_d"}, r),
                            {Sym("mi_a"), Sym("mi_b")},
                            {Sym("mi_c"), Sym("mi_d")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{1, 1}, {2, 5}}));
}

TEST(ExecEdge, SortAggregateCountsGroupsAcrossNext) {
  std::vector<Row> in = {{1, 9}, {1, 8}, {1, 7}, {2, 6}, {3, 5}, {3, 4}};
  SortAggIterator agg(Scan({"sa_g", "sa_v"}, in), Sym("sa_g"), Sym("sa_n"));
  EXPECT_EQ(Drain(agg), (std::vector<Row>{{1, 3}, {2, 1}, {3, 2}}));
}

TEST(ExecEdge, HashAggregateCountsKeysAndNull) {
  std::vector<Row> in = {{4}, {kNull}, {4}, {2}, {kNull}, {4}};
  HashAggIterator agg(Scan({"ha_g"}, in), Sym("ha_g"), Sym("ha_n"));
  EXPECT_TRUE(
      SameMultiset(Drain(agg), {{4, 3}, {kNull, 2}, {2, 1}}));
}

TEST(ExecEdge, PassThroughAndBufferedOperatorsOverDyingRows) {
  // Filter, project and sort over the same dying rows.
  std::vector<Row> in = {{3, 30}, {1, 10}, {2, 20}, {1, 11}};
  rel::SelectArg pred(g_symbols, Sym("pt_k"), rel::CmpOp::kLess, 3, 0.5);
  SortIterator sort(
      std::make_unique<ProjectIterator>(
          std::make_unique<FilterIterator>(Scan({"pt_k", "pt_v"}, in), pred),
          std::vector<Symbol>{Sym("pt_v"), Sym("pt_k")}),
      {Sym("pt_v")});
  EXPECT_EQ(Drain(sort), (std::vector<Row>{{10, 1}, {11, 1}, {20, 2}}));
}

}  // namespace
}  // namespace volcano::exec
