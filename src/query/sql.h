#ifndef PRIVATECLEAN_QUERY_SQL_H_
#define PRIVATECLEAN_QUERY_SQL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "query/aggregate.h"
#include "query/predicate.h"

namespace privateclean {

/// Result shaping of a grouped query (GROUP BY / SELECT DISTINCT).
struct SqlOrderBy {
  /// true: ORDER BY COUNT(1) — sort groups by their estimate.
  /// false: ORDER BY <grouping attribute> — sort by group key.
  bool by_estimate = false;
  bool descending = false;
};

/// A parsed PrivateClean query.
///
///   SELECT <select> FROM <table>
///     [WHERE <expr>] [GROUP BY <attr>]
///     [ORDER BY <attr> | COUNT(1|*) [ASC|DESC]] [LIMIT <n>]
///
///   <select>  := COUNT(1) | COUNT(*) | COUNT(DISTINCT <attr>)
///              | SUM(<attr>) | AVG(<attr>) | MIN(<attr>) | MAX(<attr>)
///              | MEDIAN(<attr>) | VAR(<attr>) | STD(<attr>)
///              | PERCENTILE(<attr>, <rank 0-100>)
///              | DISTINCT <attr>
///   <expr>    := <or>
///   <or>      := <and> (OR <and>)*
///   <and>     := <unary> (AND <unary>)*
///   <unary>   := NOT <unary> | ( <expr> ) | <condition>
///   <condition> := <attr> ( = | != | <> | < | <= | > | >= ) <literal>
///              | <attr> IN ( <literal> [, <literal>]... )
///              | <attr> IS [NOT] NULL
///   <literal> := 'string' (doubled '' escapes a quote)
///              | integer | floating point | NULL
///
/// Keywords are case-insensitive; identifiers are case-sensitive and may
/// be double-quoted (doubled "" escapes a quote) to include spaces or
/// collide with keywords — a quoted name is always an identifier, never
/// a keyword or literal. ORDER BY/LIMIT are only accepted on grouped
/// queries (GROUP BY or SELECT DISTINCT), where they shape the
/// per-group result rows after estimation.
///
/// ParseSql is syntax only. Which route answers a parsed query — and
/// whether it is *privately answerable* at all — is decided by
/// PlanQuery (core/sql_execution.h), which rejects forms without a
/// bias-corrected estimator with a typed FailedPrecondition naming the
/// offending form.
struct ParsedSql {
  std::string table_name;
  /// Aggregate, argument and WHERE: the WHERE tree is parsed straight
  /// into `query.predicate` (set iff the query has WHERE), the same
  /// Predicate value a programmatic caller builds.
  AggregateQuery query;

  /// SELECT DISTINCT <attr> / COUNT(DISTINCT <attr>).
  bool select_distinct = false;
  bool count_distinct = false;
  std::string distinct_attribute;

  std::string group_by;  ///< Grouping attribute; empty = no GROUP BY.
  std::optional<SqlOrderBy> order_by;
  std::optional<uint64_t> limit;
};

/// Parses `sql` into a ParsedSql. Returns InvalidArgument with a
/// position-annotated message on syntax errors.
Result<ParsedSql> ParseSql(const std::string& sql);

/// Renders `value` as a SQL literal: NULL (unquoted keyword), bare
/// numbers (doubles keep a decimal point or exponent so the type
/// round-trips), and single-quoted strings with '' doubling. The
/// canonical way to print group keys unambiguously: NULL and '' render
/// differently.
std::string RenderSqlLiteral(const Value& value);

/// Renders `parsed` back to canonical SQL text. Canonical form:
/// upper-case keywords, COUNT(1) for both count spellings, `!=` for
/// `<>`, `x IS NOT NULL` for `NOT x IS NULL`, minimal parentheses, no
/// ASC. ParseSql(RenderSql(p)) re-parses to an equivalent query, and
/// rendering is a fixed point — the round-trip property the sql test
/// suite checks for every grammar production. A programmatic Udf leaf
/// has no SQL spelling: it renders as `UDF(<attr>)`, which does not
/// re-parse.
std::string RenderSql(const ParsedSql& parsed);

}  // namespace privateclean

#endif  // PRIVATECLEAN_QUERY_SQL_H_
