#include "query/predicate.h"

#include <gtest/gtest.h>

#include "table/table_builder.h"

namespace privateclean {
namespace {

Table CountriesTable() {
  Schema s = *Schema::Make({Field::Discrete("country")});
  TableBuilder b(s);
  b.Row({Value("US")})
      .Row({Value("FR")})
      .Row({Value("DE")})
      .Row({Value("US")})
      .Row({Value::Null()})
      .Row({Value("JP")});
  return *b.Finish();
}

TEST(PredicateTest, Equals) {
  Predicate p = Predicate::Equals("country", "US");
  EXPECT_TRUE(p.Matches(Value("US")));
  EXPECT_FALSE(p.Matches(Value("FR")));
  EXPECT_FALSE(p.Matches(Value::Null()));
  EXPECT_EQ(*p.CountMatches(CountriesTable()), 2u);
}

TEST(PredicateTest, In) {
  Predicate p = Predicate::In("country", {Value("FR"), Value("DE")});
  EXPECT_EQ(*p.CountMatches(CountriesTable()), 2u);
  EXPECT_TRUE(p.Matches(Value("DE")));
  EXPECT_FALSE(p.Matches(Value("US")));
}

TEST(PredicateTest, IsNullAndIsNotNull) {
  EXPECT_EQ(*Predicate::IsNull("country").CountMatches(CountriesTable()),
            1u);
  EXPECT_EQ(
      *Predicate::IsNotNull("country").CountMatches(CountriesTable()), 5u);
}

TEST(PredicateTest, Udf) {
  Predicate p = Predicate::Udf("country", [](const Value& v) {
    return !v.is_null() && v.AsString().size() == 2 &&
           (v.AsString() == "FR" || v.AsString() == "DE");
  });
  EXPECT_EQ(*p.CountMatches(CountriesTable()), 2u);
}

TEST(PredicateTest, NegationInvolutes) {
  Predicate p = Predicate::Equals("country", "US");
  Predicate np = p.Negate();
  EXPECT_EQ(*np.CountMatches(CountriesTable()), 4u);
  Predicate nnp = np.Negate();
  EXPECT_EQ(*nnp.CountMatches(CountriesTable()), 2u);
  EXPECT_EQ(p.kind(), Predicate::Kind::kCompare);
  EXPECT_EQ(np.kind(), Predicate::Kind::kNot);
}

TEST(PredicateTest, NegatedMatchesNull) {
  Predicate p = Predicate::Equals("country", "US").Negate();
  EXPECT_TRUE(p.Matches(Value::Null()));
}

TEST(PredicateTest, EvaluateProducesMask) {
  Predicate p = Predicate::Equals("country", "US");
  auto mask = *p.Evaluate(CountriesTable());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 0, 0, 1, 0, 0}));
}

TEST(PredicateTest, EvaluateMissingAttributeFails) {
  Predicate p = Predicate::Equals("nope", "US");
  EXPECT_FALSE(p.Evaluate(CountriesTable()).ok());
}

TEST(PredicateTest, MatchingValues) {
  Table t = CountriesTable();
  Domain d = *Domain::FromColumn(t, "country");
  Predicate p = Predicate::In("country", {Value("US"), Value("JP"),
                                          Value("Absent")});
  auto matching = p.MatchingValues(d);
  EXPECT_EQ(matching.size(), 2u);  // "Absent" not in the domain.
}

TEST(PredicateTest, MatchingValuesOfNegation) {
  Table t = CountriesTable();
  Domain d = *Domain::FromColumn(t, "country");
  Predicate p = Predicate::IsNotNull("country");
  EXPECT_EQ(p.MatchingValues(d).size(), d.size() - 1);
}

TEST(PredicateTest, AttributeAccessor) {
  EXPECT_EQ(Predicate::Equals("country", "US").attribute(), "country");
}

TEST(PredicateTest, UdfEvaluatedPerDistinctValue) {
  // The UDF must be called once per distinct value, not once per row.
  int calls = 0;
  Predicate p = Predicate::Udf("country", [&calls](const Value& v) {
    ++calls;
    return !v.is_null();
  });
  (void)*p.Evaluate(CountriesTable());
  EXPECT_EQ(calls, 5);  // 5 distinct values (US, FR, DE, null, JP).
}

TEST(PredicateTest, IntegerDomainPredicate) {
  Schema s = *Schema::Make(
      {Field{"section", ValueType::kInt64, AttributeKind::kDiscrete}});
  TableBuilder b(s);
  b.Row({Value(1)}).Row({Value(2)}).Row({Value(1)}).Row({Value(3)});
  Table t = *b.Finish();
  EXPECT_EQ(*Predicate::Equals("section", Value(1)).CountMatches(t), 2u);
  EXPECT_EQ(*Predicate::In("section", {Value(2), Value(3)}).CountMatches(t),
            2u);
}

}  // namespace
}  // namespace privateclean
