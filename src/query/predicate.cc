#include "query/predicate.h"

#include <algorithm>

#include "common/check.h"
#include "query/vectorized.h"

namespace privateclean {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool ComparesTrue(CompareOp op, const Value& v, const Value& bound) {
  if (op == CompareOp::kEq) return v == bound;
  if (op == CompareOp::kNe) return v != bound;
  const ValueType vt = v.type();
  const ValueType bt = bound.type();
  const bool v_numeric = vt == ValueType::kInt64 || vt == ValueType::kDouble;
  const bool b_numeric = bt == ValueType::kInt64 || bt == ValueType::kDouble;
  int cmp = 0;
  if (v_numeric && b_numeric) {
    if (vt == ValueType::kInt64 && bt == ValueType::kInt64) {
      int64_t a = v.AsInt64();
      int64_t b = bound.AsInt64();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      double a = vt == ValueType::kInt64 ? static_cast<double>(v.AsInt64())
                                         : v.AsDouble();
      double b = bt == ValueType::kInt64 ? static_cast<double>(bound.AsInt64())
                                         : bound.AsDouble();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    }
  } else if (vt == ValueType::kString && bt == ValueType::kString) {
    int c = v.AsString().compare(bound.AsString());
    cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    // NULL or mixed string/numeric operands: no defined order.
    return false;
  }
  switch (op) {
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    default:
      return false;  // kEq/kNe handled above.
  }
}

Predicate Predicate::Equals(std::string attribute, Value value) {
  return Compare(std::move(attribute), CompareOp::kEq, std::move(value));
}

Predicate Predicate::In(std::string attribute, std::vector<Value> values) {
  Predicate p(Kind::kIn, std::move(attribute));
  p.literals_ = std::move(values);
  return p;
}

Predicate Predicate::IsNull(std::string attribute) {
  return Predicate(Kind::kIsNull, std::move(attribute));
}

Predicate Predicate::IsNotNull(std::string attribute) {
  return IsNull(std::move(attribute)).Negate();
}

Predicate Predicate::Compare(std::string attribute, CompareOp op, Value bound) {
  Predicate p(Kind::kCompare, std::move(attribute));
  p.op_ = op;
  p.literals_.push_back(std::move(bound));
  return p;
}

Predicate Predicate::Udf(std::string attribute,
                         std::function<bool(const Value&)> fn) {
  Predicate p(Kind::kUdf, std::move(attribute));
  p.fn_ = std::move(fn);
  return p;
}

Predicate Predicate::Nary(Kind kind, std::vector<Predicate> children) {
  PCLEAN_CHECK(!children.empty());
  if (children.size() == 1) return std::move(children.front());
  Predicate p(kind, children.front().attribute_);
  for (Predicate& child : children) {
    if (child.kind_ == kind) {
      // Splice same-kind children so associativity never shows in the
      // tree shape: (a AND b) AND c == a AND b AND c.
      for (Predicate& grandchild : child.children_) {
        p.children_.push_back(std::move(grandchild));
      }
    } else {
      p.children_.push_back(std::move(child));
    }
  }
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  return Nary(Kind::kAnd, std::move(children));
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  return Nary(Kind::kOr, std::move(children));
}

Predicate Predicate::Negate() const {
  Predicate p(Kind::kNot, attribute_);
  p.children_.push_back(*this);
  return p;
}

namespace {

void CollectAttributes(const Predicate& p, std::vector<std::string>* out) {
  if (p.children().empty()) {
    if (std::find(out->begin(), out->end(), p.attribute()) == out->end()) {
      out->push_back(p.attribute());
    }
    return;
  }
  for (const Predicate& child : p.children()) CollectAttributes(child, out);
}

}  // namespace

std::vector<std::string> Predicate::Attributes() const {
  std::vector<std::string> out;
  CollectAttributes(*this, &out);
  return out;
}

bool Predicate::Matches(const Value& v) const {
  switch (kind_) {
    case Kind::kCompare:
      return ComparesTrue(op_, v, literals_.front());
    case Kind::kIn:
      return std::find(literals_.begin(), literals_.end(), v) !=
             literals_.end();
    case Kind::kIsNull:
      return v.is_null();
    case Kind::kUdf:
      return fn_(v);
    case Kind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const Predicate& c) { return c.Matches(v); });
    case Kind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const Predicate& c) { return c.Matches(v); });
    case Kind::kNot:
      return !children_.front().Matches(v);
  }
  return false;
}

Result<std::vector<uint8_t>> Predicate::Evaluate(
    const Table& table, const ExecutionOptions& exec) const {
  // One engine for every mask: compile (string columns get the
  // dictionary match-table gather, numeric columns typed kernels or a
  // memoized boxed loop) and run batched through the deterministic
  // shards. See query/vectorized.h.
  PCLEAN_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                          CompiledPredicate::Compile(table, *this));
  return compiled.EvaluateAll(table.num_rows(), exec);
}

std::vector<Value> Predicate::MatchingValues(const Domain& domain) const {
  std::vector<Value> out;
  for (size_t i = 0; i < domain.size(); ++i) {
    if (Matches(domain.value(i))) out.push_back(domain.value(i));
  }
  return out;
}

Result<size_t> Predicate::CountMatches(const Table& table,
                                       const ExecutionOptions& exec) const {
  PCLEAN_ASSIGN_OR_RETURN(auto mask, Evaluate(table, exec));
  size_t n = 0;
  for (uint8_t m : mask) n += m;
  return n;
}

}  // namespace privateclean
