#ifndef PRIVATECLEAN_QUERY_PREDICATE_H_
#define PRIVATECLEAN_QUERY_PREDICATE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/domain.h"
#include "table/table.h"

namespace privateclean {

/// Comparison operator of a compare leaf: "=", "!=", "<", "<=", ">",
/// ">=".
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// SQL spelling: "=", "!=", "<", "<=", ">", ">=".
const char* CompareOpToString(CompareOp op);

/// Whether `v op bound` holds. The ordering operators compare numerics
/// with int64→double promotion and strings lexicographically; NULL and
/// mixed string/numeric operands satisfy no ordering operator. kEq/kNe
/// use Value's typed structural equality (so Value(3) != Value(3.0)), and
/// `= NULL` matches NULL.
bool ComparesTrue(CompareOp op, const Value& v, const Value& bound);

/// The one predicate form: a boolean tree whose leaves each condition one
/// attribute — the SQL WHERE clause and the programmatic API build the
/// same value.
///
/// Leaves: compare (`d op literal`), IN (`d IN (literals)`), IS NULL, and
/// a programmatic Udf. Inner nodes: AND, OR (flattened on construction,
/// so `(a AND b) AND c` and `a AND b AND c` build the same tree) and NOT.
/// Logic is two-valued: NULL satisfies only `= NULL`, IS NULL, and the
/// complements (!=, NOT, IS NOT NULL) of conditions it fails; ordering
/// comparisons are never satisfied by NULL.
///
/// A tree over a single discrete attribute is the paper's `cond(d)`
/// (Section 3.2.2). Every deterministic predicate is then membership in a
/// subset of the attribute's distinct values, which is exactly how the
/// bias analysis uses it: `MatchingValues(domain)` yields M_pred, whose
/// size is the distinct-value selectivity l'.
///
/// Construction:
///   Predicate::Equals("major", "EECS")
///   Predicate::In("country", {"FR", "DE", "IT"})
///   Predicate::IsNotNull("sensor_id")
///   Predicate::Udf("country", [](const Value& v) { return IsEurope(v); })
///   Predicate::And({Predicate::Compare("age", CompareOp::kGe, 30),
///                   Predicate::Compare("age", CompareOp::kLt, 60)})
/// plus `Negate()` for complements (used by the SUM estimator, §5.5).
class Predicate {
 public:
  enum class Kind { kCompare, kIn, kIsNull, kUdf, kAnd, kOr, kNot };

  /// d = value. A null `value` matches null entries.
  static Predicate Equals(std::string attribute, Value value);

  /// d ∈ values.
  static Predicate In(std::string attribute, std::vector<Value> values);

  /// d is null / d is not null (the NOT of IsNull).
  static Predicate IsNull(std::string attribute);
  static Predicate IsNotNull(std::string attribute);

  /// d op bound, e.g. SQL `score >= 3`.
  static Predicate Compare(std::string attribute, CompareOp op, Value bound);

  /// Arbitrary deterministic condition. The function must be pure: it is
  /// evaluated at most once per distinct value per batch, not once per
  /// row, and may be called concurrently from evaluation shards.
  static Predicate Udf(std::string attribute,
                       std::function<bool(const Value&)> fn);

  /// Conjunction / disjunction of one or more children; a single child
  /// is returned as is.
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);

  /// Logical complement: a NOT node over this predicate.
  Predicate Negate() const;

  Kind kind() const { return kind_; }

  /// The attribute of a leaf; for an inner node, that of its first leaf.
  /// The one attribute a single-attribute tree conditions on.
  const std::string& attribute() const { return attribute_; }

  /// Distinct attributes the tree reads, in first-appearance order.
  std::vector<std::string> Attributes() const;

  /// kCompare: the operator; literals() holds its one bound.
  CompareOp op() const { return op_; }
  /// kCompare: exactly one bound; kIn: one or more values.
  const std::vector<Value>& literals() const { return literals_; }
  /// kAnd/kOr: two or more children; kNot: one.
  const std::vector<Predicate>& children() const { return children_; }

  /// Whether a single value satisfies the predicate. Meaningful for
  /// single-attribute trees: every leaf is tested against `v`.
  bool Matches(const Value& v) const;

  /// Row mask over `table` (1 = predicate true), compiled per column
  /// (query/vectorized.h). Rows are sharded per `exec`; the mask is
  /// identical at every thread count.
  Result<std::vector<uint8_t>> Evaluate(const Table& table,
                                        const ExecutionOptions& exec = {}) const;

  /// The subset of `domain` that satisfies the predicate (paper's M_pred).
  /// Single-attribute trees only, like Matches.
  std::vector<Value> MatchingValues(const Domain& domain) const;

  /// Number of rows in `table` satisfying the predicate.
  Result<size_t> CountMatches(const Table& table,
                              const ExecutionOptions& exec = {}) const;

 private:
  Predicate(Kind kind, std::string attribute)
      : kind_(kind), attribute_(std::move(attribute)) {}

  static Predicate Nary(Kind kind, std::vector<Predicate> children);

  Kind kind_;
  std::string attribute_;
  CompareOp op_ = CompareOp::kEq;
  std::vector<Value> literals_;
  std::function<bool(const Value&)> fn_;
  std::vector<Predicate> children_;
};

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_PREDICATE_H_
