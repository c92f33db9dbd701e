// Differential and statistical acceptance suite for the vectorized batch
// engine behind the SQL layer.
//
// sql_test.cc proves the grammar parses and routes; this file proves the
// engine underneath is *correct*:
//   - differential: CompiledPredicate's batched kernels (dictionary
//     gather, typed numeric loops, mask combination) must agree row for
//     row with a naive boxed reference that re-walks every Predicate
//     tree per row — on a table large enough to cross shard and batch
//     boundaries, with NULLs in every column.
//   - determinism: masks, aggregates, and grouped SQL results must be
//     bit-identical at 1, 2 and 8 threads (the batch size is a constant,
//     never a function of the thread count).
//   - statistical: the new SQL forms (range predicates, boolean trees,
//     GROUP BY) must produce *bias-corrected* estimates — fixed-seed
//     runs land within the reported confidence interval of ground truth,
//     where the uncorrected Direct reading is far outside it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/privateclean.h"

namespace privateclean {
namespace {

// ---------------------------------------------------------------------------
// Fixed-seed table: three columns (string with NULLs, int64, double with
// NULLs), 40000 rows — more than two kRowsPerShard shards, each spanning
// many kVectorBatchRows batches plus a ragged tail batch.
// ---------------------------------------------------------------------------

constexpr size_t kRows = 40000;

Table RandomTable() {
  Schema schema = *Schema::Make(
      {Field::Discrete("city"),
       Field::Numerical("age", ValueType::kInt64),
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder builder(schema);
  Rng rng(20260808);
  const std::vector<std::string> cities = {"Berkeley", "Boston", "Chicago",
                                           "Detroit",  "",       "Austin"};
  for (size_t r = 0; r < kRows; ++r) {
    Value city = rng.Bernoulli(0.05)
                     ? Value::Null()
                     : Value(cities[rng.UniformInt(cities.size())]);
    Value age(rng.UniformIntRange(18, 90));
    Value score = rng.Bernoulli(0.03)
                      ? Value::Null()
                      : Value(rng.UniformRealRange(0.0, 10.0));
    builder.Row({city, age, score});
  }
  return *builder.Finish();
}

const Table& SharedTable() {
  static const Table table = RandomTable();
  return table;
}

// Naive reference over the Predicate tree: AND/OR/NOT re-walked per
// row, each leaf evaluated boxed against the value `value_of` gives for
// its attribute. Leaf semantics are restated here (ComparesTrue, typed
// equality, is_null) rather than taken from Predicate::Matches, which
// builds the kernels' match tables; only a Udf leaf defers to its own
// function.
bool ReferenceMatches(
    const Predicate& pred,
    const std::function<Value(const std::string&)>& value_of) {
  const std::vector<Predicate>& children = pred.children();
  switch (pred.kind()) {
    case Predicate::Kind::kCompare:
      return ComparesTrue(pred.op(), value_of(pred.attribute()),
                          pred.literals().front());
    case Predicate::Kind::kIn: {
      const Value v = value_of(pred.attribute());
      for (const Value& literal : pred.literals()) {
        if (v == literal) return true;
      }
      return false;
    }
    case Predicate::Kind::kIsNull:
      return value_of(pred.attribute()).is_null();
    case Predicate::Kind::kUdf:
      return pred.Matches(value_of(pred.attribute()));
    case Predicate::Kind::kNot:
      return !ReferenceMatches(children.front(), value_of);
    case Predicate::Kind::kAnd:
      for (const Predicate& child : children) {
        if (!ReferenceMatches(child, value_of)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
      for (const Predicate& child : children) {
        if (ReferenceMatches(child, value_of)) return true;
      }
      return false;
  }
  return false;
}

std::vector<uint8_t> ReferenceMask(const Table& table, const Predicate& pred) {
  std::vector<uint8_t> mask(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto value_of = [&](const std::string& attr) {
      return (*table.ColumnByName(attr))->ValueAt(r);
    };
    mask[r] = ReferenceMatches(pred, value_of) ? 1 : 0;
  }
  return mask;
}

// M_pred of a single-attribute tree, by the reference walk.
std::vector<Value> ReferenceMatchingValues(const Predicate& pred,
                                           const Domain& domain) {
  std::vector<Value> out;
  for (size_t i = 0; i < domain.size(); ++i) {
    const Value& v = domain.value(i);
    if (ReferenceMatches(pred, [&](const std::string&) { return v; })) {
      out.push_back(v);
    }
  }
  return out;
}

size_t CountMask(const std::vector<uint8_t>& mask) {
  size_t n = 0;
  for (uint8_t m : mask) n += m;
  return n;
}

// The predicate battery: every kernel the compiler can pick — string
// dictionary match tables (equals/in/null/udf/negate), typed int64 and
// double comparison loops for every operator, membership over numerics,
// and UDF fallback on a numeric column.
std::vector<Predicate> PredicateBattery() {
  std::vector<Predicate> battery;
  battery.push_back(Predicate::Equals("city", Value("Boston")));
  battery.push_back(Predicate::Equals("city", Value("")));
  battery.push_back(Predicate::Equals("city", Value::Null()));
  battery.push_back(Predicate::Equals("city", Value("Nowhere")));
  battery.push_back(
      Predicate::In("city", {Value("Austin"), Value("Chicago"), Value("")}));
  battery.push_back(Predicate::IsNull("city"));
  battery.push_back(Predicate::IsNotNull("score"));
  battery.push_back(
      Predicate::Equals("city", Value("Detroit")).Negate());
  battery.push_back(
      Predicate::Udf("city", [](const Value& v) {
        return !v.is_null() && !v.ToString().empty() &&
               v.ToString()[0] == 'B';
      }));
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    battery.push_back(Predicate::Compare("age", op, Value(int64_t{40})));
    battery.push_back(Predicate::Compare("score", op, Value(5.0)));
  }
  // int64 column against a double bound: promotion path.
  battery.push_back(Predicate::Compare("age", CompareOp::kLt, Value(40.5)));
  battery.push_back(
      Predicate::Compare("age", CompareOp::kGe, Value(40.5)).Negate());
  // String ordering: lexicographic comparison kernel.
  battery.push_back(
      Predicate::Compare("city", CompareOp::kGe, Value("Boston")));
  battery.push_back(
      Predicate::In("age", {Value(int64_t{20}), Value(int64_t{30}),
                            Value(int64_t{77})}));
  battery.push_back(Predicate::Udf("score", [](const Value& v) {
    return !v.is_null() && std::fmod(v.AsDouble(), 1.0) < 0.25;
  }));
  return battery;
}

// WHERE trees, parsed from SQL so the battery also covers the planner's
// retained-tree representation: multi-attribute AND/OR/NOT mask
// combination, ranges, IN, IS NULL.
std::vector<std::string> TreeBattery() {
  return {
      "age >= 30 AND age < 60",
      "city = 'Boston' OR city = 'Austin'",
      "NOT (age < 25 OR age > 80)",
      "city = 'Boston' AND score >= 5.0",
      "(age >= 30 AND age < 60) OR (city = 'Chicago' AND score < 2.5)",
      "NOT (city = 'Detroit' AND age >= 40)",
      "city IS NULL OR score IS NULL",
      "city IS NOT NULL AND city != ''",
      "age IN (20, 30, 40) AND score IS NOT NULL",
      "NOT city = 'Boston' AND NOT city = 'Austin' AND age <= 50",
      "score > 2.5 AND score <= 7.5 AND city >= 'B' AND city < 'D'",
  };
}

Result<Predicate> ParseWhere(const std::string& condition) {
  PCLEAN_ASSIGN_OR_RETURN(
      ParsedSql parsed,
      ParseSql("SELECT count(1) FROM t WHERE " + condition));
  return *parsed.query.predicate;
}

// One tree per compile rule: multi-leaf trees over one string column
// (one match table) and over one int64 column (typed leaves combined
// bytewise), and programmatic trees that mix Udf leaves with parsed
// leaves (boxed numeric kernel, match table, typed leaf).
struct TreeCase {
  std::string label;
  Predicate pred;
};

std::vector<TreeCase> MergedFormBattery() {
  std::vector<TreeCase> battery;
  for (const char* condition :
       {"city = 'Boston' OR city IS NULL OR city IN ('', 'Austin')",
        "NOT (city >= 'C' AND city < 'E') AND city != 'Austin'",
        "city IS NOT NULL AND NOT city IN ('Boston', 'Chicago')",
        "age >= 30 AND age < 60 AND age != 45",
        "age IN (20, 30) OR age > 85 OR age <= 18.5",
        "NOT (age > 40 OR age IS NULL) OR age = 77"}) {
    battery.push_back({condition, *ParseWhere(condition)});
  }
  const Predicate starts_with_b = Predicate::Udf("city", [](const Value& v) {
    return !v.is_null() && !v.AsString().empty() && v.AsString()[0] == 'B';
  });
  const Predicate even_age = Predicate::Udf("age", [](const Value& v) {
    return !v.is_null() && v.AsInt64() % 2 == 0;
  });
  battery.push_back({"UDF(city) OR city = 'Chicago' (one match table)",
                     Predicate::Or({starts_with_b,
                                    *ParseWhere("city = 'Chicago'")})});
  battery.push_back({"UDF(age) AND age < 50 (boxed + typed leaf)",
                     Predicate::And({even_age, *ParseWhere("age < 50")})});
  battery.push_back(
      {"NOT UDF(age) OR (UDF(city) AND score >= 5.0)",
       Predicate::Or({even_age.Negate(),
                      Predicate::And({starts_with_b,
                                      *ParseWhere("score >= 5.0")})})});
  return battery;
}

// ---------------------------------------------------------------------------
// Differential: vectorized vs boxed row loop
// ---------------------------------------------------------------------------

TEST(SqlEngineDifferentialTest, PredicateKernelsMatchBoxedRowLoop) {
  const Table& table = SharedTable();
  size_t index = 0;
  for (const Predicate& pred : PredicateBattery()) {
    SCOPED_TRACE("predicate #" + std::to_string(index++) + " on " +
                 pred.attribute());
    std::vector<uint8_t> expected = ReferenceMask(table, pred);
    auto compiled = CompiledPredicate::Compile(table, pred);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<uint8_t> got = *compiled->EvaluateAll(table.num_rows());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
        << "mask mismatch (" << CountMask(got) << " vs "
        << CountMask(expected) << " matching rows)";
  }
}

TEST(SqlEngineDifferentialTest, WhereTreeMasksMatchRecursiveReference) {
  const Table& table = SharedTable();
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    auto expr = ParseWhere(condition);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    std::vector<uint8_t> expected = ReferenceMask(table, *expr);
    auto compiled = CompiledPredicate::Compile(table, *expr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<uint8_t> got = *compiled->EvaluateAll(table.num_rows());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
        << "mask mismatch (" << CountMask(got) << " vs "
        << CountMask(expected) << " matching rows)";
  }
}

TEST(SqlEngineDifferentialTest, MergedFormTreesMatchOracleAtEveryThreadCount) {
  // Mask, CountMatches and (for single-attribute trees) MatchingValues of
  // each tree agree with the reference walk at 1, 2 and 8 threads.
  const Table& table = SharedTable();
  for (const TreeCase& c : MergedFormBattery()) {
    SCOPED_TRACE(c.label);
    const std::vector<uint8_t> expected = ReferenceMask(table, c.pred);
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExecutionOptions exec;
      exec.num_threads = threads;
      auto mask = c.pred.Evaluate(table, exec);
      ASSERT_TRUE(mask.ok()) << mask.status().ToString();
      EXPECT_EQ(*mask, expected) << "mask mismatch (" << CountMask(*mask)
                                 << " vs " << CountMask(expected) << ")";
      EXPECT_EQ(*c.pred.CountMatches(table, exec), CountMask(expected));
    }
    const std::vector<std::string> attrs = c.pred.Attributes();
    if (attrs.size() == 1) {
      const Domain domain =
          *Domain::FromColumn(table, attrs.front(), /*include_null=*/true);
      EXPECT_EQ(c.pred.MatchingValues(domain),
                ReferenceMatchingValues(c.pred, domain));
    }
  }
}

TEST(SqlEngineDifferentialTest, AggregatesMatchBoxedRowLoop) {
  // COUNT and SUM re-derived from the reference mask and boxed getters;
  // the vectorized count must agree exactly, the sum to within FP merge
  // reassociation (per-shard partials vs one running total).
  const Table& table = SharedTable();
  const Column& score = **table.ColumnByName("score");
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    Predicate expr = *ParseWhere(condition);
    std::vector<uint8_t> mask = ReferenceMask(table, expr);
    double ref_count = static_cast<double>(CountMask(mask));
    double ref_sum = 0.0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (mask[r] && !score.IsNull(r)) ref_sum += score.DoubleAt(r);
    }
    CompiledPredicate compiled = *CompiledPredicate::Compile(table, expr);
    AggregateQuery count_query;
    count_query.agg = AggregateType::kCount;
    EXPECT_EQ(*ExecuteAggregate(table, count_query, compiled), ref_count);
    AggregateQuery sum_query;
    sum_query.agg = AggregateType::kSum;
    sum_query.numeric_attribute = "score";
    EXPECT_NEAR(*ExecuteAggregate(table, sum_query, compiled), ref_sum,
                1e-9 * (1.0 + std::abs(ref_sum)));
  }
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical at 1, 2 and 8 threads
// ---------------------------------------------------------------------------

TEST(SqlEngineDeterminismTest, MasksAreBitIdenticalAcrossThreadCounts) {
  const Table& table = SharedTable();
  for (const std::string& condition : TreeBattery()) {
    SCOPED_TRACE("WHERE " + condition);
    CompiledPredicate compiled =
        *CompiledPredicate::Compile(table, *ParseWhere(condition));
    ExecutionOptions one;
    one.num_threads = 1;
    std::vector<uint8_t> baseline =
        *compiled.EvaluateAll(table.num_rows(), one);
    for (size_t threads : {2u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      std::vector<uint8_t> mask =
          *compiled.EvaluateAll(table.num_rows(), exec);
      EXPECT_EQ(0,
                std::memcmp(mask.data(), baseline.data(), baseline.size()))
          << "thread count " << threads << " changed the mask";
    }
  }
}

TEST(SqlEngineDeterminismTest, AggregatesAreBitIdenticalAcrossThreadCounts) {
  // EXPECT_EQ on doubles, not EXPECT_NEAR: merging per-shard partials in
  // shard index order must make even the floating-point results exact
  // across thread counts (the shard layout depends only on the row count).
  const Table& table = SharedTable();
  CompiledPredicate compiled = *CompiledPredicate::Compile(
      table, *ParseWhere("age >= 30 AND age < 60"));
  for (AggregateType agg :
       {AggregateType::kCount, AggregateType::kSum, AggregateType::kAvg,
        AggregateType::kVar, AggregateType::kStd, AggregateType::kMedian,
        AggregateType::kMin, AggregateType::kMax}) {
    SCOPED_TRACE(AggregateTypeToString(agg));
    AggregateQuery query;
    query.agg = agg;
    query.numeric_attribute = "score";
    ExecutionOptions one;
    one.num_threads = 1;
    double baseline = *ExecuteAggregate(table, query, compiled, one);
    for (size_t threads : {2u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      EXPECT_EQ(*ExecuteAggregate(table, query, compiled, exec), baseline)
          << "thread count " << threads << " changed the result";
    }
  }
}

TEST(SqlEngineDeterminismTest, GroupedSqlResultsAreBitIdentical) {
  // End to end through the private path: same seed, different thread
  // counts, identical grouped rows (keys, estimates, and CIs).
  Rng rng(77);
  Table table = RandomTable();
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.1, 1.0), GrrOptions{}, rng);
  const std::string sql =
      "SELECT count(1) FROM t GROUP BY city ORDER BY count(1) DESC LIMIT 4";
  QueryOptions one;
  one.exec.num_threads = 1;
  SqlResultSet baseline = *ExecuteSqlQuery(pt, sql, one);
  ASSERT_TRUE(baseline.grouped);
  ASSERT_EQ(baseline.rows.size(), 4u);
  for (size_t threads : {2u, 8u}) {
    QueryOptions options;
    options.exec.num_threads = threads;
    SqlResultSet got = *ExecuteSqlQuery(pt, sql, options);
    ASSERT_EQ(got.rows.size(), baseline.rows.size());
    for (size_t i = 0; i < got.rows.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(RenderSqlLiteral(*got.rows[i].group),
                RenderSqlLiteral(*baseline.rows[i].group));
      EXPECT_EQ(got.rows[i].result.estimate, baseline.rows[i].result.estimate);
      EXPECT_EQ(got.rows[i].result.ci.lo, baseline.rows[i].result.ci.lo);
      EXPECT_EQ(got.rows[i].result.ci.hi, baseline.rows[i].result.ci.hi);
    }
  }
}

// ---------------------------------------------------------------------------
// Direct baseline: one compiled mask, one ExecuteAggregate pass
// ---------------------------------------------------------------------------

// The shared table, privatized: Direct reads the nominal private values,
// and the numeric `score` keeps its NULLs (Laplace noise skips them).
const PrivateTable& SharedPrivateTable() {
  static const PrivateTable table = [] {
    Rng rng(20260809);
    return *PrivateTable::Create(SharedTable(), GrrParams::Uniform(0.2, 1.0),
                                 GrrOptions{}, rng);
  }();
  return table;
}

Result<QueryResult> DirectScalar(const std::string& sql) {
  PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs,
                          ExecuteSqlQueryDirect(SharedPrivateTable(), sql));
  return std::move(rs.rows.front().result);
}

TEST(SqlEngineDirectTest, EquivalentWhereSpellingsGiveIdenticalBits) {
  // Each group spells one selection several ways: no WHERE, a
  // single-attribute tautology, a two-attribute conjunction whose second
  // conjunct keeps every row (age is 18..90). Direct must compile each
  // to the same mask and answer with the same bits, NULL scores
  // included.
  struct Case {
    const char* aggregate;
    std::vector<std::string> spellings;
  } cases[] = {
      {"avg(score)",
       {"", " WHERE city IS NULL OR city IS NOT NULL",
        " WHERE (city IS NULL OR city IS NOT NULL) AND age >= 0"}},
      {"sum(score)",
       {"", " WHERE city IS NULL OR city IS NOT NULL",
        " WHERE (city IS NULL OR city IS NOT NULL) AND age >= 0"}},
      {"avg(score)",
       {" WHERE city = 'Boston'", " WHERE city IN ('Boston')",
        " WHERE city = 'Boston' AND age IS NOT NULL"}},
      {"sum(score)",
       {" WHERE city = 'Boston'", " WHERE city IN ('Boston')",
        " WHERE city = 'Boston' AND age IS NOT NULL"}},
  };
  for (const Case& c : cases) {
    const std::string base =
        std::string("SELECT ") + c.aggregate + " FROM t";
    auto first = DirectScalar(base + c.spellings.front());
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    for (const std::string& where : c.spellings) {
      SCOPED_TRACE(base + where);
      auto got = DirectScalar(base + where);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->estimate, first->estimate);
    }
  }
}

TEST(SqlEngineDirectTest, AllNullNumericSelectionIsTypedNotZero) {
  // Every selected score is NULL: a 0 would be silently biased, so
  // Direct reports what ExecuteAggregate reports.
  for (const char* sql : {"SELECT avg(score) FROM t WHERE score IS NULL",
                          "SELECT sum(score) FROM t WHERE score IS NULL"}) {
    SCOPED_TRACE(sql);
    auto r = DirectScalar(sql);
    ASSERT_FALSE(r.ok()) << "answered " << r->estimate;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SqlEngineDirectTest, CountDistinctHonoursWhere) {
  auto r = DirectScalar("SELECT count(DISTINCT city) FROM t WHERE city = "
                        "'Boston'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->estimate, 1.0);
  SqlResultSet rows = *ExecuteSqlQueryDirect(
      SharedPrivateTable(), "SELECT DISTINCT city FROM t WHERE city = "
                            "'Boston'");
  EXPECT_EQ(rows.rows.size(), 1u);
}

// The boxed group-count oracle: a serial std::map over every row the
// mask keeps, so a NULL group is its own key, distinct from ''.
std::map<Value, size_t> ReferenceGroupCounts(const Table& table,
                                             const std::string& attribute,
                                             const std::vector<uint8_t>& mask) {
  const Column& col = **table.ColumnByName(attribute);
  std::map<Value, size_t> counts;
  for (size_t r = 0; r < col.size(); ++r) {
    if (mask[r]) counts[col.ValueAt(r)]++;
  }
  return counts;
}

TEST(SqlEngineDifferentialTest, DirectGroupedFormsMatchBoxedOracle) {
  // The one group-count kernel (string-code pass, boxed pass for
  // numerics) behind Direct GROUP BY, SELECT DISTINCT and
  // COUNT(DISTINCT), with and without a WHERE mask, at every thread
  // count: rows in Value order, present keys only, counts exact.
  const PrivateTable& pt = SharedPrivateTable();
  const Table& relation = pt.relation();
  const std::vector<std::string> wheres = {
      "", "city IN ('Boston', '') OR city IS NULL",
      "age >= 40 AND score < 5"};
  for (const char* attribute : {"city", "age", "score"}) {
    for (const std::string& where : wheres) {
      const std::string where_sql = where.empty() ? "" : " WHERE " + where;
      SCOPED_TRACE(std::string(attribute) + where_sql);
      std::vector<uint8_t> mask(relation.num_rows(), 1);
      CompiledPredicate compiled = CompiledPredicate::True();
      if (!where.empty()) {
        Predicate pred = *ParseWhere(where);
        mask = ReferenceMask(relation, pred);
        compiled = *CompiledPredicate::Compile(relation, pred);
      }
      const std::map<Value, size_t> expected =
          ReferenceGroupCounts(relation, attribute, mask);
      ASSERT_FALSE(expected.empty());
      if (where.empty() && std::string(attribute) == "city") {
        // The string column really holds both NULL and ''.
        ASSERT_EQ(expected.count(Value::Null()), 1u);
        ASSERT_EQ(expected.count(Value("")), 1u);
      }
      for (size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ExecutionOptions exec;
        exec.num_threads = threads;
        EXPECT_EQ(*GroupByCount(relation, attribute, compiled, exec),
                  expected);
        for (const std::string& sql :
             {"SELECT count(1) FROM t" + where_sql + " GROUP BY " + attribute,
              "SELECT DISTINCT " + std::string(attribute) + " FROM t" +
                  where_sql}) {
          SCOPED_TRACE(sql);
          SqlResultSet rs = *ExecuteSqlQueryDirect(pt, sql, exec);
          ASSERT_TRUE(rs.grouped);
          ASSERT_EQ(rs.rows.size(), expected.size());
          size_t i = 0;
          for (const auto& [key, n] : expected) {
            EXPECT_EQ(*rs.rows[i].group, key);
            EXPECT_EQ(rs.rows[i].result.estimate, static_cast<double>(n));
            ++i;
          }
        }
        SqlResultSet distinct = *ExecuteSqlQueryDirect(
            pt,
            "SELECT count(DISTINCT " + std::string(attribute) + ") FROM t" +
                where_sql,
            exec);
        EXPECT_EQ(distinct.rows.front().result.estimate,
                  static_cast<double>(expected.size()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Statistical: new SQL forms produce bias-corrected estimates
// ---------------------------------------------------------------------------

// Skewed categories so the GRR bias is large enough to separate the
// corrected estimator from the uncorrected Direct reading.
Table SkewedCategoryTable() {
  const std::vector<size_t> counts = {6000, 4000, 2500, 1500, 800, 200};
  Schema schema = *Schema::Make({Field::Discrete("category")});
  TableBuilder builder(schema);
  for (size_t j = 0; j < counts.size(); ++j) {
    for (size_t k = 0; k < counts[j]; ++k) {
      builder.Row({Value(std::string("c").append(std::to_string(j)))});
    }
  }
  return *builder.Finish();
}

TEST(SqlEngineStatisticalTest, RangeCountIsBiasCorrected) {
  // SELECT count(1) WHERE category >= 'c4' selects the two rarest
  // categories (1000 of 15000 rows). Uniform redraws inflate the nominal
  // count towards S·|M_pred|/N; the corrected estimate must land inside
  // its own CI around ground truth while Direct stays far outside.
  Table table = SkewedCategoryTable();
  double truth = *ExecuteAggregate(
      table, AggregateQuery::Count(
                 Predicate::Compare("category", CompareOp::kGe, Value("c4"))));
  ASSERT_EQ(truth, 1000.0);

  Rng rng(42);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  const std::string sql =
      "SELECT count(1) FROM t WHERE category >= 'c4'";
  SqlResultSet result = *ExecuteSqlQuery(pt, sql);
  ASSERT_FALSE(result.grouped);
  const QueryResult& estimate = result.rows[0].result;
  EXPECT_LE(estimate.ci.lo, truth);
  EXPECT_GE(estimate.ci.hi, truth);
  EXPECT_NEAR(estimate.estimate, truth, 0.15 * truth);

  // Direct reads the inflated nominal count: p·S·l/N = 0.5·15000·2/6 =
  // 2500 expected redraw mass alone puts it far above 1000.
  double direct =
      ExecuteSqlQueryDirect(pt, sql)->rows.front().result.estimate;
  EXPECT_GT(direct, 1.8 * truth);
  // And the SQL route must agree exactly with the native Predicate route:
  // same estimator, same scan, same correction.
  EXPECT_EQ(estimate.estimate,
            pt.Execute(AggregateQuery::Count(Predicate::Compare(
                           "category", CompareOp::kGe, Value("c4"))))
                ->estimate);
}

TEST(SqlEngineStatisticalTest, BooleanTreeCountIsBiasCorrected) {
  // A NOT(... AND ...) tree over one attribute is the corrected
  // predicate as is; the correction applies because the estimators only
  // need M_pred.
  Table table = SkewedCategoryTable();
  double truth = *ExecuteAggregate(
      table,
      AggregateQuery::Count(Predicate::In(
          "category", {Value("c0"), Value("c5")})));
  ASSERT_EQ(truth, 6200.0);

  Rng rng(7);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  SqlResultSet result = *ExecuteSqlQuery(
      pt,
      "SELECT count(1) FROM t WHERE NOT (category > 'c0' AND category < "
      "'c5')");
  const QueryResult& estimate = result.rows[0].result;
  EXPECT_LE(estimate.ci.lo, truth);
  EXPECT_GE(estimate.ci.hi, truth);
  EXPECT_NEAR(estimate.estimate, truth, 0.15 * truth);
}

TEST(SqlEngineStatisticalTest, GroupByCountsAreBiasCorrectedPerGroup) {
  // Every group's corrected estimate must be closer to its true count
  // than the uncorrected Direct group count, summed over groups.
  Table table = SkewedCategoryTable();
  auto truth = *GroupByCount(table, "category");

  Rng rng(11);
  PrivateTable pt = *PrivateTable::Create(
      table, GrrParams::Uniform(0.5, 1.0), GrrOptions{}, rng);
  const std::string sql = "SELECT count(1) FROM t GROUP BY category";
  SqlResultSet corrected = *ExecuteSqlQuery(pt, sql);
  SqlResultSet direct = *ExecuteSqlQueryDirect(pt, sql);
  ASSERT_EQ(corrected.rows.size(), truth.size());
  ASSERT_EQ(direct.rows.size(), truth.size());

  // The two paths may order groups differently; key by group value.
  std::map<Value, double> corrected_by_group, direct_by_group;
  for (const SqlRow& row : corrected.rows) {
    corrected_by_group[*row.group] = row.result.estimate;
  }
  for (const SqlRow& row : direct.rows) {
    direct_by_group[*row.group] = row.result.estimate;
  }

  double corrected_error = 0.0, direct_error = 0.0;
  for (const auto& [group, count] : truth) {
    SCOPED_TRACE("group " + RenderSqlLiteral(group));
    ASSERT_EQ(corrected_by_group.count(group), 1u);
    ASSERT_EQ(direct_by_group.count(group), 1u);
    double true_count = static_cast<double>(count);
    corrected_error += std::abs(corrected_by_group[group] - true_count);
    direct_error += std::abs(direct_by_group[group] - true_count);
  }
  EXPECT_LT(corrected_error, direct_error);
  EXPECT_LT(corrected_error, 0.10 * static_cast<double>(table.num_rows()));
}

}  // namespace
}  // namespace privateclean
