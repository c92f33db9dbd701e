#include "query/sql.h"

#include <array>
#include <cctype>
#include <vector>

#include "common/string_util.h"

namespace privateclean {

namespace {

enum class TokenKind {
  kIdentifier,  ///< Bare or double-quoted identifier / keyword.
  kString,      ///< Single-quoted string literal.
  kNumber,
  kSymbol,  ///< One of ( ) , * = != < <= > >=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;   ///< Identifier/symbol text or decoded literal.
  size_t position;    ///< Byte offset in the input, for error messages.
  bool is_float = false;  ///< For kNumber: contains '.' or exponent.
  /// For kIdentifier: came from double quotes. A quoted name is always a
  /// plain identifier — it never matches a keyword or the NULL literal.
  bool quoted = false;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < input_.size()) {
      char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '\'') {
        PCLEAN_ASSIGN_OR_RETURN(Token t, LexString(&i));
        tokens.push_back(std::move(t));
      } else if (c == '"') {
        PCLEAN_ASSIGN_OR_RETURN(Token t, LexQuotedIdentifier(&i));
        tokens.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 ((c == '-' || c == '+') && i + 1 < input_.size() &&
                  (std::isdigit(static_cast<unsigned char>(input_[i + 1])) ||
                   input_[i + 1] == '.')) ||
                 (c == '.' && i + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        tokens.push_back(LexNumber(&i));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdentifier(&i));
      } else if (c == '!') {
        size_t start = i;
        if (i + 1 < input_.size() && input_[i + 1] == '=') {
          i += 2;
          tokens.push_back(Token{TokenKind::kSymbol, "!=", start});
        } else {
          return Err(start, "unexpected character '!'");
        }
      } else if (c == '<') {
        size_t start = i;
        if (i + 1 < input_.size() && input_[i + 1] == '>') {
          i += 2;
          // <> is the alternate not-equals spelling; normalize to !=.
          tokens.push_back(Token{TokenKind::kSymbol, "!=", start});
        } else if (i + 1 < input_.size() && input_[i + 1] == '=') {
          i += 2;
          tokens.push_back(Token{TokenKind::kSymbol, "<=", start});
        } else {
          ++i;
          tokens.push_back(Token{TokenKind::kSymbol, "<", start});
        }
      } else if (c == '>') {
        size_t start = i;
        if (i + 1 < input_.size() && input_[i + 1] == '=') {
          i += 2;
          tokens.push_back(Token{TokenKind::kSymbol, ">=", start});
        } else {
          ++i;
          tokens.push_back(Token{TokenKind::kSymbol, ">", start});
        }
      } else if (c == '(' || c == ')' || c == ',' || c == '=' || c == '*') {
        tokens.push_back(
            Token{TokenKind::kSymbol, std::string(1, c), i});
        ++i;
      } else {
        return Err(i, "unexpected character '" + std::string(1, c) + "'");
      }
    }
    tokens.push_back(Token{TokenKind::kEnd, "", input_.size()});
    return tokens;
  }

 private:
  Status Err(size_t pos, const std::string& msg) {
    return Status::InvalidArgument("SQL error at position " +
                                   std::to_string(pos) + ": " + msg);
  }

  Result<Token> LexString(size_t* i) {
    size_t start = *i;
    ++*i;  // Opening quote.
    std::string out;
    while (*i < input_.size()) {
      char c = input_[*i];
      if (c == '\'') {
        if (*i + 1 < input_.size() && input_[*i + 1] == '\'') {
          out.push_back('\'');
          *i += 2;
        } else {
          ++*i;
          return Token{TokenKind::kString, std::move(out), start};
        }
      } else {
        out.push_back(c);
        ++*i;
      }
    }
    return Err(start, "unterminated string literal");
  }

  Result<Token> LexQuotedIdentifier(size_t* i) {
    size_t start = *i;
    ++*i;
    std::string out;
    while (*i < input_.size()) {
      char c = input_[*i];
      if (c == '"') {
        if (*i + 1 < input_.size() && input_[*i + 1] == '"') {
          out.push_back('"');
          *i += 2;
        } else {
          ++*i;
          if (out.empty()) {
            return Err(start, "empty quoted identifier");
          }
          Token t{TokenKind::kIdentifier, std::move(out), start};
          t.quoted = true;
          return t;
        }
      } else {
        out.push_back(c);
        ++*i;
      }
    }
    return Err(start, "unterminated quoted identifier");
  }

  Token LexNumber(size_t* i) {
    size_t start = *i;
    bool is_float = false;
    // A leading '+' is accepted by the grammar but dropped from the
    // token text: the numeric parsers (std::from_chars) reject it, and
    // `+5` must mean the same literal as `5`.
    if (input_[*i] == '+') {
      ++*i;
      start = *i;
    } else if (input_[*i] == '-') {
      ++*i;
    }
    while (*i < input_.size()) {
      char c = input_[*i];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++*i;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_float = true;
        ++*i;
        if (*i < input_.size() &&
            (input_[*i] == '-' || input_[*i] == '+') &&
            (input_[*i - 1] == 'e' || input_[*i - 1] == 'E')) {
          ++*i;
        }
      } else {
        break;
      }
    }
    Token t{TokenKind::kNumber, input_.substr(start, *i - start), start};
    t.is_float = is_float;
    return t;
  }

  Token LexIdentifier(size_t* i) {
    size_t start = *i;
    while (*i < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[*i])) ||
            input_[*i] == '_')) {
      ++*i;
    }
    return Token{TokenKind::kIdentifier, input_.substr(start, *i - start),
                 start};
  }

  const std::string& input_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedSql> Parse() {
    PCLEAN_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    ParsedSql out;
    if (TryKeyword("DISTINCT")) {
      out.select_distinct = true;
      PCLEAN_ASSIGN_OR_RETURN(out.distinct_attribute,
                              ExpectIdentifier("attribute"));
    } else {
      PCLEAN_RETURN_NOT_OK(ParseAggregate(&out));
    }
    PCLEAN_RETURN_NOT_OK(ExpectKeyword("FROM"));
    PCLEAN_ASSIGN_OR_RETURN(out.table_name, ExpectIdentifier("table name"));
    if (TryKeyword("WHERE")) {
      PCLEAN_ASSIGN_OR_RETURN(out.query.predicate, ParseOrExpr());
    }
    size_t clause_pos = 0;
    if (TryKeywordAt("GROUP", &clause_pos)) {
      PCLEAN_RETURN_NOT_OK(ExpectKeyword("BY"));
      if (out.select_distinct) {
        return ErrAt(clause_pos, "SELECT DISTINCT does not take GROUP BY");
      }
      PCLEAN_ASSIGN_OR_RETURN(out.group_by,
                              ExpectIdentifier("grouping attribute"));
    }
    if (TryKeywordAt("ORDER", &clause_pos)) {
      PCLEAN_RETURN_NOT_OK(ExpectKeyword("BY"));
      if (out.group_by.empty() && !out.select_distinct) {
        return ErrAt(clause_pos,
                     "ORDER BY requires GROUP BY or SELECT DISTINCT");
      }
      PCLEAN_RETURN_NOT_OK(ParseOrderKey(&out));
      SqlOrderBy& order = *out.order_by;
      if (TryKeyword("DESC")) {
        order.descending = true;
      } else {
        TryKeyword("ASC");
      }
    }
    if (TryKeywordAt("LIMIT", &clause_pos)) {
      if (out.group_by.empty() && !out.select_distinct) {
        return ErrAt(clause_pos,
                     "LIMIT requires GROUP BY or SELECT DISTINCT");
      }
      if (Peek().kind != TokenKind::kNumber) {
        return Err("LIMIT expects a non-negative integer");
      }
      Token num = Advance();
      if (num.is_float) {
        return ErrAt(num.position, "LIMIT expects an integer, got '" +
                                       num.text + "'");
      }
      auto v = ParseInt64(num.text);
      if (!v.ok()) return NumberErr(num);
      if (v.ValueOrDie() < 0) {
        return ErrAt(num.position, "LIMIT must be non-negative, got '" +
                                       num.text + "'");
      }
      out.limit = static_cast<uint64_t>(v.ValueOrDie());
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input '" + Peek().text + "'");
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t at = pos_ + ahead;
    return tokens_[at < tokens_.size() ? at : tokens_.size() - 1];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Err(const std::string& msg) const {
    return ErrAt(Peek().position, msg);
  }

  Status ErrAt(size_t pos, const std::string& msg) const {
    return Status::InvalidArgument("SQL error at position " +
                                   std::to_string(pos) + ": " + msg);
  }

  /// Positioned error for a numeric token the lexer accepted but the
  /// numeric grammar rejects (e.g. '1.2.3', '1e', an out-of-range int).
  Status NumberErr(const Token& num) const {
    return ErrAt(num.position,
                 "malformed numeric literal '" + num.text + "'");
  }

  bool TryKeyword(const std::string& upper) {
    if (Peek().kind == TokenKind::kIdentifier && !Peek().quoted &&
        ToLowerAscii(Peek().text) == ToLowerAscii(upper)) {
      Advance();
      return true;
    }
    return false;
  }

  bool TryKeywordAt(const std::string& upper, size_t* pos) {
    size_t at = Peek().position;
    if (TryKeyword(upper)) {
      *pos = at;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& upper) {
    if (!TryKeyword(upper)) {
      return Err("expected " + upper);
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Err("expected " + what);
    }
    return Advance().text;
  }

  bool TrySymbol(const std::string& symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& symbol) {
    if (!TrySymbol(symbol)) {
      return Err("expected '" + symbol + "'");
    }
    return Status::OK();
  }

  /// COUNT's argument: * or any literal spelling of the number one
  /// (1, 01, +1, 1.0 — compared by value, not token text).
  Status ParseCountArgument() {
    if (TrySymbol("*")) return Status::OK();
    if (Peek().kind != TokenKind::kNumber) {
      return Err("COUNT takes 1 or * (predicates go in WHERE)");
    }
    Token num = Advance();
    double value = 0.0;
    if (num.is_float) {
      auto v = ParseDouble(num.text);
      if (!v.ok()) return NumberErr(num);
      value = v.ValueOrDie();
    } else {
      auto v = ParseInt64(num.text);
      if (!v.ok()) return NumberErr(num);
      value = static_cast<double>(v.ValueOrDie());
    }
    if (value != 1.0) {
      return ErrAt(num.position, "COUNT takes 1 or * (got '" + num.text +
                                     "'; predicates go in WHERE)");
    }
    return Status::OK();
  }

  Status ParseAggregate(ParsedSql* out) {
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdentifier) {
      return Err("expected aggregate function");
    }
    if (t.quoted) {
      return ErrAt(t.position, "quoted identifier \"" + t.text +
                                   "\" cannot name an aggregate function");
    }
    AggregateQuery* query = &out->query;
    std::string lower = ToLowerAscii(t.text);
    if (lower == "count") {
      query->agg = AggregateType::kCount;
    } else if (lower == "sum") {
      query->agg = AggregateType::kSum;
    } else if (lower == "avg") {
      query->agg = AggregateType::kAvg;
    } else if (lower == "min") {
      query->agg = AggregateType::kMin;
    } else if (lower == "max") {
      query->agg = AggregateType::kMax;
    } else if (lower == "median") {
      query->agg = AggregateType::kMedian;
    } else if (lower == "var") {
      query->agg = AggregateType::kVar;
    } else if (lower == "std") {
      query->agg = AggregateType::kStd;
    } else if (lower == "percentile") {
      query->agg = AggregateType::kPercentile;
    } else {
      return Err("unknown aggregate '" + t.text + "'");
    }
    Advance();
    PCLEAN_RETURN_NOT_OK(ExpectSymbol("("));
    if (query->agg == AggregateType::kCount) {
      if (TryKeyword("DISTINCT")) {
        out->count_distinct = true;
        PCLEAN_ASSIGN_OR_RETURN(out->distinct_attribute,
                                ExpectIdentifier("attribute"));
      } else {
        PCLEAN_RETURN_NOT_OK(ParseCountArgument());
      }
    } else {
      PCLEAN_ASSIGN_OR_RETURN(query->numeric_attribute,
                              ExpectIdentifier("numeric attribute"));
      if (query->agg == AggregateType::kPercentile) {
        // PERCENTILE(attr, p) with p in [0, 100].
        PCLEAN_RETURN_NOT_OK(ExpectSymbol(","));
        if (Peek().kind != TokenKind::kNumber) {
          return Err("PERCENTILE expects a numeric rank, e.g. "
                     "percentile(score, 90)");
        }
        const Token& rank = Advance();
        auto parsed_rank = ParseDouble(rank.text);
        if (!parsed_rank.ok()) return NumberErr(rank);
        query->percentile = parsed_rank.ValueOrDie();
        if (query->percentile < 0.0 || query->percentile > 100.0) {
          return Err("percentile rank must be in [0, 100]");
        }
      }
    }
    return ExpectSymbol(")");
  }

  /// ORDER BY key: the grouping attribute, or COUNT(1|*) for
  /// by-estimate ordering of a GROUP BY result.
  Status ParseOrderKey(ParsedSql* out) {
    out->order_by = SqlOrderBy{};
    if (Peek().kind == TokenKind::kIdentifier && !Peek().quoted &&
        ToLowerAscii(Peek().text) == "count" &&
        Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
      size_t at = Peek().position;
      if (out->select_distinct) {
        return ErrAt(at, "ORDER BY COUNT(1) requires GROUP BY");
      }
      Advance();
      PCLEAN_RETURN_NOT_OK(ExpectSymbol("("));
      PCLEAN_RETURN_NOT_OK(ParseCountArgument());
      PCLEAN_RETURN_NOT_OK(ExpectSymbol(")"));
      out->order_by->by_estimate = true;
      return Status::OK();
    }
    size_t at = Peek().position;
    PCLEAN_ASSIGN_OR_RETURN(std::string key,
                            ExpectIdentifier("ORDER BY key"));
    const std::string& expected = out->select_distinct
                                      ? out->distinct_attribute
                                      : out->group_by;
    if (key != expected) {
      return ErrAt(at, "ORDER BY key '" + key +
                           "' must be the grouping attribute '" + expected +
                           "' or COUNT(1)");
    }
    out->order_by->by_estimate = false;
    return Status::OK();
  }

  Result<Value> ParseLiteral() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kString: {
        std::string text = Advance().text;
        return Value(std::move(text));
      }
      case TokenKind::kNumber: {
        Token num = Advance();
        if (num.is_float) {
          auto v = ParseDouble(num.text);
          if (!v.ok()) return NumberErr(num);
          return Value(v.ValueOrDie());
        }
        auto v = ParseInt64(num.text);
        if (!v.ok()) return NumberErr(num);
        return Value(v.ValueOrDie());
      }
      case TokenKind::kIdentifier:
        if (t.quoted) {
          return ErrAt(t.position,
                       "quoted name \"" + t.text +
                           "\" is an identifier, not a literal "
                           "(string literals use single quotes)");
        }
        if (ToLowerAscii(t.text) == "null") {
          Advance();
          return Value::Null();
        }
        return Err("expected a literal (strings use single quotes)");
      default:
        return Err("expected a literal");
    }
  }

  Result<Predicate> ParseCondition() {
    PCLEAN_ASSIGN_OR_RETURN(std::string attribute,
                            ExpectIdentifier("attribute"));
    const Token& t = Peek();
    if (t.kind == TokenKind::kSymbol) {
      std::optional<CompareOp> op;
      if (t.text == "=") op = CompareOp::kEq;
      else if (t.text == "!=") op = CompareOp::kNe;
      else if (t.text == "<") op = CompareOp::kLt;
      else if (t.text == "<=") op = CompareOp::kLe;
      else if (t.text == ">") op = CompareOp::kGt;
      else if (t.text == ">=") op = CompareOp::kGe;
      if (op.has_value()) {
        Advance();
        PCLEAN_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
        return Predicate::Compare(std::move(attribute), *op,
                                  std::move(literal));
      }
    }
    if (TryKeyword("IN")) {
      PCLEAN_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> literals;
      for (;;) {
        PCLEAN_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
        literals.push_back(std::move(literal));
        if (TrySymbol(",")) continue;
        break;
      }
      PCLEAN_RETURN_NOT_OK(ExpectSymbol(")"));
      return Predicate::In(std::move(attribute), std::move(literals));
    }
    if (TryKeyword("IS")) {
      const bool not_null = TryKeyword("NOT");
      if (!TryKeyword("NULL")) {
        return Err("expected NULL after IS [NOT]");
      }
      return not_null ? Predicate::IsNotNull(std::move(attribute))
                      : Predicate::IsNull(std::move(attribute));
    }
    return Err("expected =, !=, <>, <, <=, >, >=, IN, or IS after "
               "attribute '" + attribute + "'");
  }

  // Predicate expression grammar, loosest-binding first:
  //   or    := and (OR and)*
  //   and   := unary (AND unary)*
  //   unary := NOT unary | ( or ) | condition
  Result<Predicate> ParseOrExpr() {
    PCLEAN_ASSIGN_OR_RETURN(Predicate first, ParseAndExpr());
    if (!TryKeyword("OR")) return first;
    std::vector<Predicate> children;
    children.push_back(std::move(first));
    do {
      PCLEAN_ASSIGN_OR_RETURN(Predicate next, ParseAndExpr());
      children.push_back(std::move(next));
    } while (TryKeyword("OR"));
    return Predicate::Or(std::move(children));
  }

  Result<Predicate> ParseAndExpr() {
    PCLEAN_ASSIGN_OR_RETURN(Predicate first, ParseUnaryExpr());
    if (!TryKeyword("AND")) return first;
    std::vector<Predicate> children;
    children.push_back(std::move(first));
    do {
      PCLEAN_ASSIGN_OR_RETURN(Predicate next, ParseUnaryExpr());
      children.push_back(std::move(next));
    } while (TryKeyword("AND"));
    return Predicate::And(std::move(children));
  }

  Result<Predicate> ParseUnaryExpr() {
    if (TryKeyword("NOT")) {
      PCLEAN_ASSIGN_OR_RETURN(Predicate inner, ParseUnaryExpr());
      return inner.Negate();
    }
    if (TrySymbol("(")) {
      PCLEAN_ASSIGN_OR_RETURN(Predicate inner, ParseOrExpr());
      PCLEAN_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    return ParseCondition();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedSql> ParseSql(const std::string& sql) {
  Lexer lexer(sql);
  PCLEAN_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

namespace {

/// Keywords the renderer must quote when they appear as identifiers.
bool IsKeywordLower(const std::string& lower) {
  static const std::array<const char*, 17> kKeywords = {
      "select", "distinct", "from", "where", "and",  "or",
      "not",    "in",       "is",   "null",  "group", "order",
      "by",     "asc",      "desc", "limit", "count"};
  for (const char* kw : kKeywords) {
    if (lower == kw) return true;
  }
  return false;
}

std::string RenderIdentifier(const std::string& name) {
  bool bare = !name.empty() &&
              (std::isalpha(static_cast<unsigned char>(name[0])) ||
               name[0] == '_') &&
              !IsKeywordLower(ToLowerAscii(name));
  if (bare) {
    for (char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        bare = false;
        break;
      }
    }
  }
  if (bare) return name;
  std::string out = "\"";
  for (char c : name) {
    out.push_back(c);
    if (c == '"') out.push_back('"');
  }
  out.push_back('"');
  return out;
}

bool IsNotNullLeaf(const Predicate& p) {
  return p.kind() == Predicate::Kind::kNot &&
         p.children().front().kind() == Predicate::Kind::kIsNull;
}

/// Binding strength: OR < AND < NOT < condition. A NOT over IS NULL
/// renders as the IS NOT NULL condition.
int Precedence(const Predicate& p) {
  switch (p.kind()) {
    case Predicate::Kind::kOr:
      return 1;
    case Predicate::Kind::kAnd:
      return 2;
    case Predicate::Kind::kNot:
      return IsNotNullLeaf(p) ? 4 : 3;
    default:
      return 4;
  }
}

std::string RenderPredicate(const Predicate& p);

std::string RenderChild(const Predicate& child, int parent_precedence) {
  std::string s = RenderPredicate(child);
  if (Precedence(child) < parent_precedence) return "(" + s + ")";
  return s;
}

std::string RenderPredicate(const Predicate& p) {
  const std::string attr = RenderIdentifier(p.attribute());
  switch (p.kind()) {
    case Predicate::Kind::kCompare:
      return attr + " " + CompareOpToString(p.op()) + " " +
             RenderSqlLiteral(p.literals().front());
    case Predicate::Kind::kIn: {
      std::string out = attr + " IN (";
      for (size_t i = 0; i < p.literals().size(); ++i) {
        if (i > 0) out += ", ";
        out += RenderSqlLiteral(p.literals()[i]);
      }
      return out + ")";
    }
    case Predicate::Kind::kIsNull:
      return attr + " IS NULL";
    case Predicate::Kind::kUdf:
      return "UDF(" + attr + ")";
    case Predicate::Kind::kNot:
      if (IsNotNullLeaf(p)) return attr + " IS NOT NULL";
      return "NOT " + RenderChild(p.children().front(), 3);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      const bool is_and = p.kind() == Predicate::Kind::kAnd;
      std::string out;
      for (size_t i = 0; i < p.children().size(); ++i) {
        if (i > 0) out += is_and ? " AND " : " OR ";
        out += RenderChild(p.children()[i], is_and ? 2 : 1);
      }
      return out;
    }
  }
  return "";
}

}  // namespace

std::string RenderSqlLiteral(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(value.AsInt64());
    case ValueType::kDouble: {
      std::string s = FormatDouble(value.AsDouble());
      // Keep the literal re-parsing as a double: an integral double must
      // not collapse to integer syntax (Value(3.0) != Value(3)).
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find('E') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueType::kString: {
      std::string out = "'";
      for (char c : value.AsString()) {
        out.push_back(c);
        if (c == '\'') out.push_back('\'');
      }
      out.push_back('\'');
      return out;
    }
  }
  return "NULL";
}

std::string RenderSql(const ParsedSql& parsed) {
  std::string out = "SELECT ";
  if (parsed.select_distinct) {
    out += "DISTINCT " + RenderIdentifier(parsed.distinct_attribute);
  } else if (parsed.count_distinct) {
    out += "COUNT(DISTINCT " + RenderIdentifier(parsed.distinct_attribute) +
           ")";
  } else if (parsed.query.agg == AggregateType::kCount) {
    out += "COUNT(1)";
  } else if (parsed.query.agg == AggregateType::kPercentile) {
    out += "PERCENTILE(" + RenderIdentifier(parsed.query.numeric_attribute) +
           ", " + FormatDouble(parsed.query.percentile) + ")";
  } else {
    out += ToUpperAscii(AggregateTypeToString(parsed.query.agg)) + "(" +
           RenderIdentifier(parsed.query.numeric_attribute) + ")";
  }
  out += " FROM " + RenderIdentifier(parsed.table_name);
  if (parsed.query.predicate.has_value()) {
    out += " WHERE " + RenderPredicate(*parsed.query.predicate);
  }
  if (!parsed.group_by.empty()) {
    out += " GROUP BY " + RenderIdentifier(parsed.group_by);
  }
  if (parsed.order_by.has_value()) {
    out += " ORDER BY ";
    if (parsed.order_by->by_estimate) {
      out += "COUNT(1)";
    } else {
      out += RenderIdentifier(parsed.select_distinct
                                  ? parsed.distinct_attribute
                                  : parsed.group_by);
    }
    if (parsed.order_by->descending) out += " DESC";
  }
  if (parsed.limit.has_value()) {
    out += " LIMIT " + std::to_string(*parsed.limit);
  }
  return out;
}

}  // namespace privateclean
