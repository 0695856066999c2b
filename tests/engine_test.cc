#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <iterator>
#include <set>
#include <string>

#include "sqlfacil/engine/catalog.h"
#include "sqlfacil/engine/cost_model.h"
#include "sqlfacil/engine/datagen.h"
#include "sqlfacil/engine/executor.h"
#include "sqlfacil/engine/table.h"
#include "sqlfacil/engine/value.h"
#include "sqlfacil/sql/parser.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/random.h"

namespace sqlfacil::engine {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, NullSemantics) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(n.IsTruthy());
  EXPECT_FALSE(n.EqualsValue(n));  // NULL != NULL in SQL
}

TEST(ValueTest, NumericCoercionInEquality) {
  EXPECT_TRUE(Value(int64_t{3}).EqualsValue(Value(3.0)));
  EXPECT_FALSE(Value(int64_t{3}).EqualsValue(Value(3.5)));
  EXPECT_FALSE(Value(int64_t{3}).EqualsValue(Value(std::string("3"))));
}

TEST(ValueTest, CompareOrdersNullNumbersStrings) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value(int64_t{5}).Compare(Value(std::string("a"))), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(std::string("ab")).Compare(Value(std::string("ab"))), 0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value(int64_t{1}).IsTruthy());
  EXPECT_FALSE(Value(int64_t{0}).IsTruthy());
  EXPECT_FALSE(Value(0.0).IsTruthy());
  EXPECT_TRUE(Value(std::string("x")).IsTruthy());
  EXPECT_FALSE(Value(std::string()).IsTruthy());
}

// ---------------------------------------------------------------------------
// Table & index
// ---------------------------------------------------------------------------

Table MakeSmallTable() {
  TableSchema schema;
  schema.name = "t";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"x", ColumnType::kDouble},
                    {"name", ColumnType::kString}};
  Table table(std::move(schema));
  for (int64_t i = 0; i < 10; ++i) {
    table.AppendRow({Value(i), Value(static_cast<double>(i) * 0.5),
                     Value(std::string(i % 2 == 0 ? "even" : "odd"))});
  }
  return table;
}

TEST(TableTest, AppendAndGet) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(t.GetValue(3, 0).AsInt(), 3);
  EXPECT_DOUBLE_EQ(t.GetValue(3, 1).AsDoubleExact(), 1.5);
  EXPECT_EQ(t.GetValue(3, 2).AsString(), "odd");
}

TEST(TableTest, SchemaLookupIsCaseInsensitive) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.schema().FindColumn("ID"), 0);
  EXPECT_EQ(t.schema().FindColumn("Name"), 2);
  EXPECT_EQ(t.schema().FindColumn("nope"), -1);
}

TEST(TableTest, IndexLookup) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildIndex("id").ok());
  EXPECT_TRUE(t.HasIndex(0));
  const auto& hits = t.IndexLookup(0, 7);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  EXPECT_TRUE(t.IndexLookup(0, 99).empty());
}

TEST(TableTest, IndexOnMissingColumnFails) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.BuildIndex("zzz").code(), StatusCode::kNotFound);
  EXPECT_EQ(t.BuildIndex("x").code(),
            StatusCode::kInvalidArgument);  // double column
}

TEST(TableTest, Statistics) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.DistinctCount(0), 10u);
  EXPECT_EQ(t.DistinctCount(2), 2u);
  EXPECT_DOUBLE_EQ(t.ColumnMin(0), 0.0);
  EXPECT_DOUBLE_EQ(t.ColumnMax(0), 9.0);
  EXPECT_DOUBLE_EQ(t.ColumnMax(1), 4.5);
}

// ---------------------------------------------------------------------------
// Datagen
// ---------------------------------------------------------------------------

TEST(DatagenTest, GeneratesRequestedShape) {
  Rng rng(42);
  auto table = GenerateTable(
      "obj",
      {ColumnGenSpec::Id("objid"), ColumnGenSpec::UniformInt("type", 0, 8),
       ColumnGenSpec::NormalDouble("ra", 180, 60),
       ColumnGenSpec::Categorical("cls", {"a", "b"})},
      500, &rng);
  EXPECT_EQ(table->num_rows(), 500u);
  EXPECT_EQ(table->num_columns(), 4u);
  EXPECT_TRUE(table->HasIndex(0));  // id column auto-indexed
  for (size_t i = 0; i < 20; ++i) {
    const int64_t type = table->GetValue(i, 1).AsInt();
    EXPECT_GE(type, 0);
    EXPECT_LE(type, 8);
  }
}

TEST(DatagenTest, DeterministicForSameSeed) {
  Rng rng1(7), rng2(7);
  auto spec = std::vector<ColumnGenSpec>{
      ColumnGenSpec::UniformInt("a", 0, 1000000)};
  auto t1 = GenerateTable("t", spec, 50, &rng1);
  auto t2 = GenerateTable("t", spec, 50, &rng2);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(t1->GetValue(i, 0).AsInt(), t2->GetValue(i, 0).AsInt());
  }
}

TEST(DatagenTest, ZipfColumnIsSkewed) {
  Rng rng(11);
  auto t = GenerateTable(
      "t", {ColumnGenSpec::ZipfInt("z", 100, 1.2)}, 5000, &rng);
  size_t zeros = 0, high = 0;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    const int64_t v = t->GetValue(i, 0).AsInt();
    if (v == 0) ++zeros;
    if (v >= 50) ++high;
  }
  EXPECT_GT(zeros, high);
}

// ---------------------------------------------------------------------------
// Executor: fixture with a small astronomy-style catalog
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(12345);
    catalog_.RegisterBuiltinFunctions();
    // photoobj: 1000 rows.
    catalog_.AddTable(GenerateTable(
        "PhotoObj",
        {ColumnGenSpec::Id("objid"), ColumnGenSpec::UniformInt("type", 0, 8),
         ColumnGenSpec::UniformDouble("ra", 0, 360),
         ColumnGenSpec::UniformDouble("dec", -90, 90),
         ColumnGenSpec::NormalDouble("r", 20, 2),
         ColumnGenSpec::BitFlags("flags", 8)},
        1000, &rng));
    // specobj: 100 rows; bestobjid references photoobj ids.
    catalog_.AddTable(GenerateTable(
        "SpecObj",
        {ColumnGenSpec::Id("specobjid"),
         ColumnGenSpec::UniformInt("bestobjid", 0, 999),
         ColumnGenSpec::UniformDouble("z", 0, 3)},
        100, &rng));
    catalog_.AddFunction(ScalarFunction{
        "dbo.fPhotoFlags", 1, 1, 5.0,
        [](const std::vector<Value>& args) -> StatusOr<Value> {
          if (!args[0].is_string()) {
            return Status::ExecutionError("fPhotoFlags requires a string");
          }
          return Value(int64_t{1} << (args[0].AsString().size() % 8));
        }});
  }

  StatusOr<QueryResult> Run(const std::string& text) {
    auto stmt = sql::ParseStatement(text);
    if (!stmt.ok()) return stmt.status();
    Executor executor(&catalog_);
    return executor.Execute(*stmt->select);
  }

  StatusOr<Relation> RunRel(const std::string& text) {
    auto stmt = sql::ParseStatement(text);
    if (!stmt.ok()) return stmt.status();
    Executor executor(&catalog_);
    return executor.ExecuteToRelation(*stmt->select);
  }

  Catalog catalog_;
};

TEST_F(ExecutorTest, SelectStarCountsAllRows) {
  auto r = Run("SELECT * FROM PhotoObj");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->answer_rows, 1000u);
  EXPECT_GT(r->cost_units, 0.0);
}

TEST_F(ExecutorTest, PointLookupViaIndex) {
  auto r = Run("SELECT * FROM PhotoObj WHERE objid = 17");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answer_rows, 1u);
  // Index path: far cheaper than a full scan.
  auto scan = Run("SELECT * FROM PhotoObj WHERE type >= 0");
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(r->cost_units, scan->cost_units / 10.0);
}

TEST_F(ExecutorTest, RangePredicateSelectsSubset) {
  auto all = Run("SELECT ra FROM PhotoObj");
  auto some = Run("SELECT ra FROM PhotoObj WHERE ra BETWEEN 10 AND 20");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_LT(some->answer_rows, all->answer_rows);
  EXPECT_GT(some->answer_rows, 0u);
}

TEST_F(ExecutorTest, CountStar) {
  auto rel = RunRel("SELECT COUNT(*) FROM PhotoObj WHERE type = 3");
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->total_rows, 1u);
  const int64_t count = rel->rows[0][0].AsInt();
  auto direct = Run("SELECT * FROM PhotoObj WHERE type = 3");
  EXPECT_EQ(static_cast<size_t>(count), direct->answer_rows);
}

TEST_F(ExecutorTest, AggregatesMinMaxAvg) {
  auto rel = RunRel("SELECT min(ra), max(ra), avg(ra), sum(ra) FROM PhotoObj");
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->rows.size(), 1u);
  const double min = rel->rows[0][0].ToDouble();
  const double max = rel->rows[0][1].ToDouble();
  const double avg = rel->rows[0][2].ToDouble();
  EXPECT_LT(min, max);
  EXPECT_GT(avg, min);
  EXPECT_LT(avg, max);
}

TEST_F(ExecutorTest, GroupByCountsGroups) {
  auto rel = RunRel("SELECT type, count(*) FROM PhotoObj GROUP BY type");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->total_rows, 9u);  // types 0..8
  int64_t total = 0;
  for (const auto& row : rel->rows) total += row[1].AsInt();
  EXPECT_EQ(total, 1000);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  auto all = RunRel("SELECT type, count(*) FROM PhotoObj GROUP BY type");
  auto some = RunRel(
      "SELECT type, count(*) FROM PhotoObj GROUP BY type "
      "HAVING count(*) > 120");
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  EXPECT_LT(some->total_rows, all->total_rows);
}

TEST_F(ExecutorTest, EquiJoinMatchesManually) {
  auto r = Run(
      "SELECT s.z FROM SpecObj AS s INNER JOIN PhotoObj AS p "
      "ON s.bestobjid = p.objid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every bestobjid in [0, 999] matches exactly one photoobj.
  EXPECT_EQ(r->answer_rows, 100u);
}

TEST_F(ExecutorTest, ImplicitJoinWithWhereEquality) {
  auto r = Run(
      "SELECT s.z FROM SpecObj s, PhotoObj p WHERE s.bestobjid = p.objid");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answer_rows, 100u);
}

TEST_F(ExecutorTest, JoinWithExtraFilter) {
  auto r = Run(
      "SELECT s.z FROM SpecObj s, PhotoObj p "
      "WHERE s.bestobjid = p.objid AND p.type = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->answer_rows, 100u);
}

TEST_F(ExecutorTest, CrossJoinBudgeted) {
  // 1000 x 1000 x 100 cross product blows the budget.
  auto r = Run("SELECT * FROM PhotoObj a, PhotoObj b, SpecObj c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, SmallCrossJoinWorks) {
  auto r = Run("SELECT * FROM SpecObj a, SpecObj b WHERE a.z > 2 AND b.z > 2");
  ASSERT_TRUE(r.ok());
  auto single = Run("SELECT * FROM SpecObj WHERE z > 2");
  EXPECT_EQ(r->answer_rows, single->answer_rows * single->answer_rows);
}

TEST_F(ExecutorTest, DistinctDedupes) {
  auto rel = RunRel("SELECT DISTINCT type FROM PhotoObj");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->total_rows, 9u);
}

TEST_F(ExecutorTest, TopLimitsRows) {
  auto r = Run("SELECT TOP 10 * FROM PhotoObj");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answer_rows, 10u);
}

TEST_F(ExecutorTest, OrderBySortsMaterializedRows) {
  auto rel = RunRel("SELECT TOP 5 objid, ra FROM PhotoObj ORDER BY ra DESC");
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->rows.size(), 5u);
  for (size_t i = 1; i < rel->rows.size(); ++i) {
    EXPECT_GE(rel->rows[i - 1][1].ToDouble(), rel->rows[i][1].ToDouble());
  }
}

TEST_F(ExecutorTest, ScalarSubquery) {
  auto rel = RunRel(
      "SELECT * FROM PhotoObj WHERE ra > (SELECT max(ra) - 1.0 FROM PhotoObj)");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_GE(rel->total_rows, 1u);
  EXPECT_LT(rel->total_rows, 100u);
}

TEST_F(ExecutorTest, InSubquery) {
  auto r = Run(
      "SELECT * FROM PhotoObj WHERE objid IN "
      "(SELECT bestobjid FROM SpecObj)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->answer_rows, 0u);
  EXPECT_LE(r->answer_rows, 100u);
}

TEST_F(ExecutorTest, ExistsSubquery) {
  auto r = Run("SELECT * FROM SpecObj WHERE EXISTS (SELECT 1 FROM PhotoObj)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->answer_rows, 100u);
}

TEST_F(ExecutorTest, DerivedTable) {
  auto r = Run(
      "SELECT * FROM (SELECT type, count(*) AS n FROM PhotoObj "
      "GROUP BY type) AS g WHERE n > 100");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->answer_rows, 0u);
  EXPECT_LE(r->answer_rows, 9u);
}

TEST_F(ExecutorTest, ScalarFunctionChargedPerRow) {
  // The Figure 1b pathology: the function in the WHERE clause is invoked
  // once per scanned row, so cost should far exceed the plain scan.
  auto plain = Run("SELECT * FROM PhotoObj WHERE type = 1");
  auto with_fn =
      Run("SELECT * FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_fn.ok()) << with_fn.status().ToString();
  EXPECT_GT(with_fn->cost_units, plain->cost_units * 2.0);
}

TEST_F(ExecutorTest, UnknownTableIsNotFound) {
  auto r = Run("SELECT * FROM NoSuchTable");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownColumnIsNotFound) {
  auto r = Run("SELECT nope FROM PhotoObj");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownFunctionIsNotFound) {
  auto r = Run("SELECT dbo.fNoSuchFn(ra) FROM PhotoObj");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, DivideByZeroIsExecutionError) {
  auto r = Run("SELECT ra / 0 FROM PhotoObj");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorTest, TypeClashIsExecutionError) {
  auto r = Run("SELECT * FROM PhotoObj WHERE ra = 'abc'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorTest, LikeOnStrings) {
  Rng rng(5);
  catalog_.AddTable(GenerateTable(
      "Jobs",
      {ColumnGenSpec::Id("jobid"),
       ColumnGenSpec::Categorical("outputtype", {"QUERY_RESULT", "EXPORT"})},
      50, &rng));
  auto r = Run("SELECT * FROM Jobs WHERE outputtype LIKE '%QUERY%'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->answer_rows, 0u);
  EXPECT_LT(r->answer_rows, 50u);
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  auto rel = RunRel("SELECT 1 + 2");
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->total_rows, 1u);
  EXPECT_EQ(rel->rows[0][0].AsInt(), 3);
}

TEST_F(ExecutorTest, UnionAllSums) {
  auto rel = RunRel(
      "SELECT objid FROM PhotoObj WHERE type = 0 "
      "UNION SELECT objid FROM PhotoObj WHERE type = 1");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  auto t0 = Run("SELECT objid FROM PhotoObj WHERE type = 0");
  auto t1 = Run("SELECT objid FROM PhotoObj WHERE type = 1");
  EXPECT_EQ(rel->total_rows, t0->answer_rows + t1->answer_rows);
}

TEST_F(ExecutorTest, CaseExpression) {
  auto rel = RunRel(
      "SELECT TOP 3 CASE WHEN ra > 180 THEN 'east' ELSE 'west' END FROM "
      "PhotoObj");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  for (const auto& row : rel->rows) {
    EXPECT_TRUE(row[0].AsString() == "east" || row[0].AsString() == "west");
  }
}

TEST_F(ExecutorTest, CastExpression) {
  auto rel = RunRel("SELECT TOP 1 cast(ra AS int) FROM PhotoObj");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->rows[0][0].is_int());
}

TEST_F(ExecutorTest, CostGrowsWithWork) {
  auto small = Run("SELECT * FROM SpecObj");
  auto large = Run("SELECT * FROM PhotoObj");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->cost_units, small->cost_units);
}

// ---------------------------------------------------------------------------
// LikeMatch
// ---------------------------------------------------------------------------

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("QUERY_RESULT", "%QUERY%"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_FALSE(LikeMatch("hello", "hello_"));
  EXPECT_TRUE(LikeMatch("ABC", "abc"));  // case-insensitive
}

// ---------------------------------------------------------------------------
// Cost model (opt baseline)
// ---------------------------------------------------------------------------

class CostModelTest : public ExecutorTest {};

TEST_F(CostModelTest, EstimatesScaleWithTableSize) {
  auto big = sql::ParseStatement("SELECT * FROM PhotoObj");
  auto small = sql::ParseStatement("SELECT * FROM SpecObj");
  auto eb = EstimateQuery(*big->select, catalog_);
  auto es = EstimateQuery(*small->select, catalog_);
  ASSERT_TRUE(eb.ok());
  ASSERT_TRUE(es.ok());
  EXPECT_GT(eb->estimated_cost, es->estimated_cost);
  EXPECT_GT(eb->estimated_rows, es->estimated_rows);
}

TEST_F(CostModelTest, PredicatesReduceCardinality) {
  auto all = sql::ParseStatement("SELECT * FROM PhotoObj");
  auto filtered =
      sql::ParseStatement("SELECT * FROM PhotoObj WHERE type = 1 AND ra > 10");
  auto ea = EstimateQuery(*all->select, catalog_);
  auto ef = EstimateQuery(*filtered->select, catalog_);
  EXPECT_LT(ef->estimated_rows, ea->estimated_rows);
}

TEST_F(CostModelTest, UnknownTableErrors) {
  auto q = sql::ParseStatement("SELECT * FROM nope");
  auto e = EstimateQuery(*q->select, catalog_);
  EXPECT_FALSE(e.ok());
}

TEST_F(CostModelTest, JoinEstimateExceedsScans) {
  auto join = sql::ParseStatement(
      "SELECT * FROM SpecObj s, PhotoObj p WHERE s.bestobjid = p.objid");
  auto ej = EstimateQuery(*join->select, catalog_);
  ASSERT_TRUE(ej.ok());
  EXPECT_GT(ej->estimated_cost, 1000.0);
}

// ---------------------------------------------------------------------------
// Access-path costing (index vs seq scan)
// ---------------------------------------------------------------------------

TEST(AccessPathTest, CostFormulaShapes) {
  // Seq cost grows with pages and rows.
  EXPECT_GT(SeqScanCost(1000, 50, 1), SeqScanCost(1000, 10, 1));
  EXPECT_GT(SeqScanCost(5000, 10, 1), SeqScanCost(1000, 10, 1));
  EXPECT_GT(SeqScanCost(1000, 10, 4), SeqScanCost(1000, 10, 1));

  // Index cost grows with selectivity; a selective index probe is far
  // cheaper than scanning, an unselective one far more expensive (random
  // heap fetches cost a page each).
  const double rows = 1e6, pages = rows / 170.0;
  const double seq = SeqScanCost(rows, pages, 1);
  EXPECT_LT(IndexScanCost(rows, pages, 0.001, 3) * 10.0, seq);
  EXPECT_GT(IndexScanCost(rows, pages, 1.0, 3), seq);
  EXPECT_LT(IndexScanCost(rows, pages, 0.001, 3),
            IndexScanCost(rows, pages, 0.01, 3));

  EXPECT_DOUBLE_EQ(EqualitySelectivity(1000), 0.001);
  EXPECT_DOUBLE_EQ(EqualitySelectivity(0), 1.0);
  EXPECT_DOUBLE_EQ(RangeSelectivity(0, 25, 0, 100), 0.25);
  EXPECT_DOUBLE_EQ(RangeSelectivity(-50, 200, 0, 100), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(RangeSelectivity(30, 20, 0, 100), 0.0);    // empty
  EXPECT_DOUBLE_EQ(RangeSelectivity(1, 2, 5, 5), 1.0);  // degenerate domain
}

TEST(AccessPathTest, ChoosesIndexOnlyWhenSelective) {
  TableSchema schema;
  schema.name = "ap";
  schema.columns = {{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}};
  Table t(std::move(schema));
  for (int64_t i = 0; i < 100000; ++i) {
    t.AppendRow({Value(i), Value(i % 100)});
  }
  ASSERT_TRUE(t.BuildIndex("id").ok());

  // Point lookup: 1/100000 selectivity -> index wins decisively.
  const auto point =
      ChooseAccessPath(t, 0, EqualitySelectivity(t.DistinctCount(0)), 1);
  EXPECT_TRUE(point.index_available);
  EXPECT_TRUE(point.use_index);
  EXPECT_LT(point.index_cost * 10.0, point.seq_cost);

  // Unselective predicate on the same index -> seq scan wins.
  const auto broad = ChooseAccessPath(t, 0, 0.8, 1);
  EXPECT_TRUE(broad.index_available);
  EXPECT_FALSE(broad.use_index);

  // No index on the column -> seq is the only path.
  const auto unindexed = ChooseAccessPath(t, 1, 0.01, 1);
  EXPECT_FALSE(unindexed.index_available);
  EXPECT_FALSE(unindexed.use_index);
  EXPECT_TRUE(std::isinf(unindexed.index_cost));
}

TEST_F(CostModelTest, IndexedPointQueryCostsBelowSeqPredicates) {
  // objid is the auto-indexed id column; type is unindexed. Both WHERE
  // clauses have one conjunct, but only the first can use an index, so its
  // estimate must be far below both the full scan and the unindexed
  // predicate scan.
  auto by_id = sql::ParseStatement("SELECT * FROM PhotoObj WHERE objid = 17");
  auto by_type = sql::ParseStatement("SELECT * FROM PhotoObj WHERE type = 3");
  auto full = sql::ParseStatement("SELECT * FROM PhotoObj");
  auto ei = EstimateQuery(*by_id->select, catalog_);
  auto et = EstimateQuery(*by_type->select, catalog_);
  auto ef = EstimateQuery(*full->select, catalog_);
  ASSERT_TRUE(ei.ok() && et.ok() && ef.ok());
  EXPECT_LT(ei->estimated_cost, et->estimated_cost);
  EXPECT_LT(ei->estimated_cost, ef->estimated_cost);
  EXPECT_GT(et->estimated_cost, ef->estimated_cost * 0.5);  // truly seq
}

// ---------------------------------------------------------------------------
// Disk storage backend
// ---------------------------------------------------------------------------

TableOptions DiskOptions(size_t pool_pages = 64) {
  TableOptions opts;
  opts.backend = StorageBackend::kDisk;
  opts.data_dir = ::testing::TempDir();
  opts.buffer_pool_pages = pool_pages;
  return opts;
}

Table MakeSmallDiskTable() {
  TableSchema schema;
  schema.name = "t_disk";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"x", ColumnType::kDouble},
                    {"name", ColumnType::kString}};
  Table table(std::move(schema), DiskOptions());
  for (int64_t i = 0; i < 10; ++i) {
    table.AppendRow({Value(i), Value(static_cast<double>(i) * 0.5),
                     Value(std::string(i % 2 == 0 ? "even" : "odd"))});
  }
  return table;
}

TEST(DiskTableTest, AppendAndGetMatchesMem) {
  Table mem = MakeSmallTable();
  Table disk = MakeSmallDiskTable();
  ASSERT_EQ(disk.backend(), StorageBackend::kDisk);
  ASSERT_EQ(disk.num_rows(), mem.num_rows());
  for (size_t r = 0; r < mem.num_rows(); ++r) {
    for (size_t c = 0; c < mem.num_columns(); ++c) {
      EXPECT_EQ(disk.GetValue(r, c).Compare(mem.GetValue(r, c)), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(DiskTableTest, StatisticsMatchMem) {
  Table t = MakeSmallDiskTable();
  EXPECT_EQ(t.DistinctCount(0), 10u);
  EXPECT_EQ(t.DistinctCount(2), 2u);
  EXPECT_DOUBLE_EQ(t.ColumnMin(0), 0.0);
  EXPECT_DOUBLE_EQ(t.ColumnMax(0), 9.0);
  EXPECT_DOUBLE_EQ(t.ColumnMax(1), 4.5);
}

TEST(DiskTableTest, DistinctSketchPinned) {
  // Disk distinct counts price every label through the cost model, so they
  // are pinned row by row across the sketch's switch from its exact set to
  // HyperLogLog (at the 4097th distinct hash), and a durable reopen, which
  // rebuilds the sketches from the heap, must read the same. id and s go
  // dense at row 4097; k and x stay exact, and one k is the key whose
  // 64-bit hash is 0, the flat set's empty-slot value.
  constexpr int64_t kZeroHashKey = 0x61C8864680B583EB;  // Mix64(key) == 0
  constexpr size_t kExactLimit = 4096;
  struct Reading {
    size_t rows;
    std::array<size_t, 4> distinct;  // id, k, s, x
  };
  const Reading kPinned[] = {{4095, {4095, 3001, 4095, 700}},
                             {4096, {4096, 3001, 4096, 700}},
                             {4097, {3943, 3001, 4290, 700}},
                             {4098, {3943, 3001, 4290, 700}},
                             {10000, {9421, 3001, 5132, 700}},
                             {20000, {20961, 3001, 5132, 700}}};
  TableSchema schema;
  schema.name = "sketch_pin";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"k", ColumnType::kInt64},
                    {"s", ColumnType::kString},
                    {"x", ColumnType::kDouble}};
  const std::string dir = ::testing::TempDir() + "sqlfacil_sketch_pin." +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  TableOptions opts = DiskOptions();
  opts.data_dir = dir;
  opts.durable = true;
  opts.recover = false;
  {
    Table t(schema, opts);
    std::set<int64_t> ids, ks;
    std::set<std::string> ss;
    std::set<double> xs;
    size_t next = 0;
    for (int64_t i = 0; i < 20000; ++i) {
      const int64_t k = i == 1000 ? kZeroHashKey : i % 3000;
      std::string s = "v";
      s += std::to_string(i % 5000);
      const double x = static_cast<double>(i % 700) * 0.25;
      t.AppendRow({Value(i), Value(k), Value(s), Value(x)});
      ids.insert(i);
      ks.insert(k);
      ss.insert(s);
      xs.insert(x);
      if (next == std::size(kPinned) || t.num_rows() != kPinned[next].rows) {
        continue;
      }
      const std::array<size_t, 4> truth = {ids.size(), ks.size(), ss.size(),
                                           xs.size()};
      for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(t.DistinctCount(c), kPinned[next].distinct[c])
            << "after row " << t.num_rows() << ", column " << c;
        if (truth[c] <= kExactLimit) {
          EXPECT_EQ(t.DistinctCount(c), truth[c])
              << "exact column " << c << " after row " << t.num_rows();
        }
      }
      ++next;
    }
    ASSERT_EQ(next, std::size(kPinned));
  }  // clean close: flush and checkpoint
  {
    opts.recover = true;
    Table reopened(schema, opts);
    ASSERT_TRUE(reopened.OpenStorage().ok());
    ASSERT_EQ(reopened.num_rows(), 20000u);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(reopened.DistinctCount(c), kPinned[5].distinct[c])
          << "column " << c << " after reopen";
    }
    // The zero-hash key seen again adds no distinct value.
    reopened.AppendRow({Value(int64_t{20000}), Value(kZeroHashKey),
                        Value(std::string("v0")), Value(0.0)});
    EXPECT_EQ(reopened.DistinctCount(1), 3001u);
  }
  const std::string base = dir + "/sqlfacil_sketch_pin.tbl";
  ::unlink(base.c_str());
  ::unlink((base + ".wal").c_str());
  ::unlink((base + ".wal.tmp").c_str());
  ::rmdir(dir.c_str());
}

TEST(DiskTableTest, BPlusTreeIndexEqualityAndRange) {
  Table t = MakeSmallDiskTable();
  ASSERT_TRUE(t.BuildIndex("id").ok());
  ASSERT_TRUE(t.BuildIndex("name").ok());  // strings only work on disk
  EXPECT_TRUE(t.HasIndex(0));
  EXPECT_TRUE(t.HasOrderedIndex(0));
  EXPECT_TRUE(t.HasOrderedIndex(2));
  EXPECT_GE(t.IndexHeight(0), 1);

  const auto hits = t.IndexLookup(0, 7);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  EXPECT_TRUE(t.IndexLookup(0, 99).empty());

  EXPECT_EQ(t.IndexLookup(2, std::string("even")),
            (std::vector<uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(t.IndexLookup(2, std::string("odd")),
            (std::vector<uint32_t>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(t.IndexLookup(2, std::string("none")).empty());

  const int64_t lo = 3, hi = 6;
  EXPECT_EQ(t.IndexRange(0, &lo, true, &hi, true),
            (std::vector<uint32_t>{3, 4, 5, 6}));
  EXPECT_EQ(t.IndexRange(0, &lo, false, &hi, false),
            (std::vector<uint32_t>{4, 5}));
  EXPECT_EQ(t.IndexRange(0, nullptr, true, &lo, true),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.IndexRange(0, &hi, false, nullptr, true),
            (std::vector<uint32_t>{7, 8, 9}));
}

TEST(DiskTableTest, SpillsBeyondBufferPool) {
  TableSchema schema;
  schema.name = "spill";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"payload", ColumnType::kString}};
  Table t(std::move(schema), DiskOptions(16));  // 64 KiB pool
  const size_t kRows = 20000;
  for (size_t i = 0; i < kRows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(std::string(24 + i % 17, 'a' + i % 26))});
  }
  ASSERT_TRUE(t.FlushStorage().ok());

  const auto st = t.GetStorageStats();
  EXPECT_EQ(st.pool_pages, 16u);
  EXPECT_GT(st.heap_pages, 4 * st.pool_pages);  // dataset >= 4x the pool

  // Random probes across the whole table page correctly through the pool.
  for (size_t i = 0; i < kRows; i += 997) {
    EXPECT_EQ(t.GetValue(i, 0).AsInt(), static_cast<int64_t>(i));
    EXPECT_EQ(t.GetValue(i, 1).AsString(),
              std::string(24 + i % 17, 'a' + i % 26));
  }
  const auto after = t.GetStorageStats();
  EXPECT_GT(after.pool_evictions, 0u);
  EXPECT_GT(after.pages_read, 0u);
}

TEST(DiskTableTest, WriteFaultsLeaveNoTornRows) {
  TableSchema schema;
  schema.name = "faulty";
  schema.columns = {{"id", ColumnType::kInt64}};
  Table t(std::move(schema), DiskOptions(16));
  // A tiny pool forces evictions (and thus disk writes) during load.
  for (int64_t i = 0; i < 40000; ++i) {
    ASSERT_TRUE(t.TryAppendRow({Value(i)}).ok());
  }

  // ~340 rows fit a page, so 4000 appends force ~12 page turnovers whose
  // eviction write-backs hit the failpoint.
  size_t rejected = 0, appended = 0;
  {
    failpoint::ScopedFailpoints fp("disk.write:error@n2");
    for (int64_t i = 40000; i < 44000; ++i) {
      const Status s = t.TryAppendRow({Value(i)});
      if (s.ok()) {
        ++appended;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kIoError);
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(t.num_rows(), 40000 + appended);

  // Everything that was reported appended reads back exactly; rejected
  // rows left no trace. (Values are dense ids until the fault window, so
  // the first 40000 rows are simply their index.)
  for (size_t i = 0; i < 40000; i += 1013) {
    EXPECT_EQ(t.GetValue(i, 0).AsInt(), static_cast<int64_t>(i));
  }
  EXPECT_TRUE(t.FlushStorage().ok());
}

}  // namespace
}  // namespace sqlfacil::engine
