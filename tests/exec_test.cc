// Unit tests for the execution engine: each iterator in isolation, data
// generation, and schema utilities.

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/datagen.h"
#include "exec/iterators.h"
#include "exec/plan_exec.h"
#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "support/hash.h"

namespace volcano::exec {
namespace {

SymbolTable g_symbols;

Symbol Sym(const char* s) { return g_symbols.Intern(s); }

Table MakeTable(std::vector<Symbol> attrs, std::vector<Row> rows) {
  Table t{Schema(std::move(attrs))};
  for (const Row& row : rows) t.Append(row.data());
  return t;
}

// Every row of a table, as Rows.
std::vector<Row> RowsOf(const Table& t) {
  ScanIterator scan(t);
  return Drain(scan);
}

TEST(Schema, IndexOfAndConcat) {
  Schema a({Sym("x"), Sym("y")});
  Schema b({Sym("z")});
  EXPECT_EQ(a.IndexOf(Sym("x")), 0);
  EXPECT_EQ(a.IndexOf(Sym("y")), 1);
  EXPECT_EQ(a.IndexOf(Sym("z")), -1);
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IndexOf(Sym("z")), 2);
}

TEST(ScanIterator, ProducesAllRows) {
  Table t = MakeTable({Sym("a")}, {{1}, {2}, {3}});
  ScanIterator scan(t);
  std::vector<Row> out = Drain(scan);
  EXPECT_EQ(out, (std::vector<Row>{{1}, {2}, {3}}));
}

TEST(ScanIterator, EmptyTable) {
  Table t = MakeTable({Sym("a")}, {});
  ScanIterator scan(t);
  EXPECT_TRUE(Drain(scan).empty());
}

TEST(FilterIterator, AppliesPredicate) {
  Table t = MakeTable({Sym("f1")}, {{1}, {5}, {3}, {9}});
  rel::SelectArg pred(g_symbols, Sym("f1"), rel::CmpOp::kLess, 5, 0.5);
  FilterIterator f(std::make_unique<ScanIterator>(t), pred);
  EXPECT_EQ(Drain(f), (std::vector<Row>{{1}, {3}}));
}

TEST(FilterIterator, AllCmpOps) {
  Table t = MakeTable({Sym("f2")}, {{1}, {2}, {3}});
  auto run = [&](rel::CmpOp op) {
    rel::SelectArg pred(g_symbols, Sym("f2"), op, 2, 0.5);
    FilterIterator f(std::make_unique<ScanIterator>(t), pred);
    return Drain(f).size();
  };
  EXPECT_EQ(run(rel::CmpOp::kLess), 1u);
  EXPECT_EQ(run(rel::CmpOp::kLessEq), 2u);
  EXPECT_EQ(run(rel::CmpOp::kEq), 1u);
  EXPECT_EQ(run(rel::CmpOp::kGreaterEq), 2u);
  EXPECT_EQ(run(rel::CmpOp::kGreater), 1u);
}

TEST(SortIterator, SortsSingleColumn) {
  Table t = MakeTable({Sym("s1")}, {{3}, {1}, {2}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s1")});
  EXPECT_EQ(Drain(s), (std::vector<Row>{{1}, {2}, {3}}));
}

TEST(SortIterator, SortsMajorMinor) {
  Table t = MakeTable({Sym("s2"), Sym("s3")}, {{2, 1}, {1, 2}, {1, 1}, {2, 0}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s2"), Sym("s3")});
  EXPECT_EQ(Drain(s), (std::vector<Row>{{1, 1}, {1, 2}, {2, 0}, {2, 1}}));
}

TEST(SortIterator, StableUnderEqualKeys) {
  Table t = MakeTable({Sym("s4"), Sym("s5")}, {{1, 9}, {1, 7}, {0, 5}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s4")});
  std::vector<Row> out = Drain(s);
  EXPECT_EQ(out[0], (Row{0, 5}));
  // Equal keys may appear in either order; verify the key column only.
  EXPECT_EQ(out[1][0], 1);
  EXPECT_EQ(out[2][0], 1);
}

std::vector<Row> JoinReference(const Table& l, const Table& r, int lc,
                               int rc) {
  std::vector<Row> out;
  for (const Row& a : RowsOf(l)) {
    for (const Row& b : RowsOf(r)) {
      if (a[lc] == b[rc]) {
        Row row = a;
        row.insert(row.end(), b.begin(), b.end());
        out.push_back(row);
      }
    }
  }
  return out;
}

TEST(MergeJoinIterator, MatchesNestedLoopReference) {
  Table l = MakeTable({Sym("mj_l")}, {{1}, {2}, {2}, {4}, {7}});
  Table r = MakeTable({Sym("mj_r")}, {{2}, {2}, {3}, {4}, {4}, {8}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj_l"),
                       Sym("mj_r"));
  EXPECT_TRUE(SameMultiset(Drain(mj), JoinReference(l, r, 0, 0)));
}

TEST(MergeJoinIterator, DuplicateHeavyInputs) {
  Table l = MakeTable({Sym("mj2_l")}, {{1}, {1}, {1}, {2}});
  Table r = MakeTable({Sym("mj2_r")}, {{1}, {1}, {2}, {2}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj2_l"),
                       Sym("mj2_r"));
  EXPECT_EQ(Drain(mj).size(), 3u * 2u + 1u * 2u);
}

TEST(MergeJoinIterator, NoMatches) {
  Table l = MakeTable({Sym("mj3_l")}, {{1}, {3}, {5}});
  Table r = MakeTable({Sym("mj3_r")}, {{2}, {4}, {6}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj3_l"),
                       Sym("mj3_r"));
  EXPECT_TRUE(Drain(mj).empty());
}

TEST(MergeJoinIterator, EmptyInputs) {
  Table l = MakeTable({Sym("mj4_l")}, {});
  Table r = MakeTable({Sym("mj4_r")}, {{1}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj4_l"),
                       Sym("mj4_r"));
  EXPECT_TRUE(Drain(mj).empty());
}

TEST(HashJoinIterator, MatchesNestedLoopReference) {
  Table l = MakeTable({Sym("hj_l"), Sym("hj_lv")},
                      {{1, 10}, {2, 20}, {2, 21}, {5, 50}});
  Table r = MakeTable({Sym("hj_r")}, {{2}, {5}, {5}, {9}});
  HashJoinIterator hj(std::make_unique<ScanIterator>(l),
                      std::make_unique<ScanIterator>(r), Sym("hj_l"),
                      Sym("hj_r"));
  EXPECT_TRUE(SameMultiset(Drain(hj), JoinReference(l, r, 0, 0)));
}

TEST(HashJoinIterator, EmptyBuildSide) {
  Table l = MakeTable({Sym("hj2_l")}, {});
  Table r = MakeTable({Sym("hj2_r")}, {{1}, {2}});
  HashJoinIterator hj(std::make_unique<ScanIterator>(l),
                      std::make_unique<ScanIterator>(r), Sym("hj2_l"),
                      Sym("hj2_r"));
  EXPECT_TRUE(Drain(hj).empty());
}

TEST(ProjectIterator, SelectsAndReordersColumns) {
  Table t = MakeTable({Sym("p1"), Sym("p2"), Sym("p3")}, {{1, 2, 3}});
  ProjectIterator p(std::make_unique<ScanIterator>(t),
                    {Sym("p3"), Sym("p1")});
  EXPECT_EQ(Drain(p), (std::vector<Row>{{3, 1}}));
  EXPECT_EQ(p.schema().IndexOf(Sym("p3")), 0);
}

TEST(MergeIntersectIterator, IntersectsSortedInputs) {
  Table l = MakeTable({Sym("mi_l")}, {{1}, {2}, {2}, {3}});
  Table r = MakeTable({Sym("mi_r")}, {{2}, {3}, {3}, {4}});
  MergeIntersectIterator mi(std::make_unique<ScanIterator>(l),
                            std::make_unique<ScanIterator>(r), {Sym("mi_l")},
                            {Sym("mi_r")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{2}, {3}}));  // set semantics
}

TEST(MergeIntersectIterator, RespectsAlternativeColumnOrder) {
  // Inputs sorted by their *second* column; comparison must follow that
  // order, not the schema order.
  Table l = MakeTable({Sym("mi2_a"), Sym("mi2_b")}, {{9, 1}, {5, 2}, {1, 3}});
  Table r = MakeTable({Sym("mi2_c"), Sym("mi2_d")}, {{5, 2}, {9, 3}});
  MergeIntersectIterator mi(
      std::make_unique<ScanIterator>(l), std::make_unique<ScanIterator>(r),
      {Sym("mi2_b"), Sym("mi2_a")}, {Sym("mi2_d"), Sym("mi2_c")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{5, 2}}));
}

TEST(HashIntersectIterator, SetSemantics) {
  Table l = MakeTable({Sym("hi_l")}, {{3}, {1}, {2}, {2}});
  Table r = MakeTable({Sym("hi_r")}, {{2}, {2}, {3}, {5}});
  HashIntersectIterator hi(std::make_unique<ScanIterator>(l),
                           std::make_unique<ScanIterator>(r));
  EXPECT_TRUE(SameMultiset(Drain(hi), {{2}, {3}}));
}

TEST(Datagen, HonoursCardinalityAndDomain) {
  rel::Catalog catalog;
  StatusOr<Symbol> r =
      catalog.AddRelation("DG1", 500, 100, 2, {500, 10});
  ASSERT_TRUE(r.ok());
  Table t = GenerateTable(*catalog.FindRelation(r.value()), 7);
  EXPECT_EQ(t.size(), 500u);
  for (const Row& row : RowsOf(t)) {
    EXPECT_GE(row[1], 0);
    EXPECT_LT(row[1], 10);
  }
}

TEST(Datagen, SortedRelationIsSorted) {
  rel::Catalog catalog;
  StatusOr<Symbol> r = catalog.AddRelation("DG2", 200, 100, 2);
  ASSERT_TRUE(r.ok());
  Symbol key = catalog.symbols().Lookup("DG2.a0");
  ASSERT_TRUE(catalog.SetSortedOn(r.value(), {key}).ok());
  Table t = GenerateTable(*catalog.FindRelation(r.value()), 13);
  EXPECT_TRUE(IsSortedBy(RowsOf(t), {0}));
}

TEST(Datagen, Deterministic) {
  rel::Catalog catalog;
  StatusOr<Symbol> r = catalog.AddRelation("DG3", 100, 100, 3);
  ASSERT_TRUE(r.ok());
  Table a = GenerateTable(*catalog.FindRelation(r.value()), 99);
  Table b = GenerateTable(*catalog.FindRelation(r.value()), 99);
  EXPECT_EQ(RowsOf(a), RowsOf(b));
}

TEST(Helpers, SameMultisetDetectsDifference) {
  EXPECT_TRUE(SameMultiset({{1}, {2}}, {{2}, {1}}));
  EXPECT_FALSE(SameMultiset({{1}, {2}}, {{2}, {2}}));
  EXPECT_FALSE(SameMultiset({{1}}, {{1}, {1}}));
}

TEST(Helpers, IsSortedBy) {
  EXPECT_TRUE(IsSortedBy({{1, 9}, {2, 0}, {2, 1}}, {0}));
  EXPECT_FALSE(IsSortedBy({{2, 0}, {1, 9}}, {0}));
  EXPECT_TRUE(IsSortedBy({}, {0}));
}

// Hashes every generated value in table, row and column order, through the
// scan iterator so the hash does not depend on the table's storage layout.
uint64_t HashDatabase(const rel::Catalog& catalog, const Database& db) {
  uint64_t h = 0;
  for (Symbol name : catalog.RelationNames()) {
    const Table* table = db.Find(name);
    EXPECT_NE(table, nullptr);
    if (table == nullptr) continue;
    ScanIterator scan(*table);
    std::vector<Row> rows = Drain(scan);
    h = HashCombine(h, rows.size());
    for (const Row& row : rows) {
      for (int64_t v : row) h = HashCombine(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

// The generated data is pinned: a change to the generator's layout or sort
// must reproduce the same tables in the same row order for a seed.
TEST(Datagen, PinnedTpchDatabase) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  Database db = GenerateDatabase(*w.catalog, 7);
  EXPECT_EQ(HashDatabase(*w.catalog, db), 0x4843ecf3539ebc2aULL);
}

TEST(Datagen, PinnedRandomWorkloadDatabase) {
  rel::WorkloadOptions options;
  options.num_relations = 8;
  rel::Workload w = rel::GenerateWorkload(options, 11);
  // Some relations are stored sorted, so the pin covers the sorted path.
  size_t sorted = 0;
  for (Symbol name : w.catalog->RelationNames()) {
    if (!w.catalog->FindRelation(name)->sorted_on.empty()) ++sorted;
  }
  EXPECT_GT(sorted, 0u);
  Database db = GenerateDatabase(*w.catalog, 7);
  EXPECT_EQ(HashDatabase(*w.catalog, db), 0xb207f0720186500aULL);
}

}  // namespace
}  // namespace volcano::exec
