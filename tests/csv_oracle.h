#ifndef PRIVATECLEAN_TESTS_CSV_ORACLE_H_
#define PRIVATECLEAN_TESTS_CSV_ORACLE_H_

// Reference CSV reader: the single-pass serial record parser, boxed
// row-by-row cell typing through Table::AppendRow, and column-by-column
// schema inference over the parsed records. Each step is the plainest
// statement of the reader's semantics; the differential suites hold
// SplitCsvRecords, CsvToTable and InferCsvSchema byte-identical to it
// (records, line numbers, tables, dictionary code order, schemas, and
// every error's code and message).

#include <string>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "table/csv.h"
#include "table/table.h"

namespace privateclean {
namespace csv_oracle {

/// Source-location prefix for parse errors: "<context>:<line>: ".
inline std::string Loc(const CsvOptions& options, size_t line) {
  return (options.error_context.empty() ? "<csv>" : options.error_context) +
         ":" + std::to_string(line) + ": ";
}

/// A blank input line parses as a record with one unquoted empty field.
inline bool IsBlankRecord(const CsvRawRecord& record) {
  return record.fields.size() == 1 && !record.fields[0].quoted &&
         record.fields[0].text.empty();
}

/// Splits CSV text into records of fields, honoring quoting, in one pass.
/// With `options.require_trailing_newline`, input whose last record lacks
/// a newline terminator (or whose quoting is still open) is DataLoss.
inline Result<std::vector<CsvRawRecord>> ParseRecordsSerial(
    const std::string& text, const CsvOptions& options) {
  std::vector<CsvRawRecord> out;
  CsvRawRecord record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_content = false;
  size_t line = 1;

  auto end_field = [&]() {
    record.fields.push_back(CsvRawField{
        field_was_quoted ? field : std::string(TrimWhitespace(field)),
        field_was_quoted});
    field.clear();
    field_was_quoted = false;
  };
  auto end_record = [&]() {
    end_field();
    out.push_back(std::move(record));
    record = CsvRawRecord{};
    any_content = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      field_was_quoted = true;
      any_content = true;
    } else if (c == options.delimiter) {
      end_field();
      any_content = true;
    } else if (c == '\n') {
      // Every newline terminates a record; blank lines become records
      // with a single unquoted empty field (a NULL row for one-column
      // relations; schema-aware callers skip them otherwise).
      end_record();
      ++line;
      record.line = line;
    } else if (c == '\r') {
      // Swallow; '\n' terminates the record.
    } else {
      field.push_back(c);
      any_content = true;
    }
  }
  if (in_quotes) {
    return Status::DataLoss(
        Loc(options, record.line) +
        "unterminated quoted field at end of input (truncated file?)");
  }
  if (any_content || !field.empty() || !record.fields.empty()) {
    if (options.require_trailing_newline) {
      return Status::DataLoss(
          Loc(options, record.line) +
          "truncated final record: missing newline at end of file");
    }
    end_record();
  }
  return out;
}

/// One cell boxed per its field's type; quoted fields are never NULL.
inline Result<Value> ParseCell(const CsvRawField& cell, const Field& field,
                               const CsvOptions& options) {
  if (!cell.quoted &&
      (cell.text.empty() || cell.text == options.null_literal)) {
    return Value::Null();
  }
  switch (field.type) {
    case ValueType::kInt64: {
      PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(cell.text));
      return Value(v);
    }
    case ValueType::kDouble: {
      PCLEAN_ASSIGN_OR_RETURN(double v, ParseDouble(cell.text));
      return Value(v);
    }
    case ValueType::kString:
      return Value(cell.text);
    case ValueType::kNull:
      break;
  }
  return Status::Internal("field with null type");
}

/// CsvToTable by boxed rows: every record typed cell by cell and appended
/// through Table::AppendRow, so string codes are interned in row order.
inline Result<Table> CsvToTable(const std::string& text, const Schema& schema,
                                const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(auto records, ParseRecordsSerial(text, options));
  size_t first_data = 0;
  if (options.header) {
    if (records.empty()) {
      return Status::IOError(Loc(options, 1) + "CSV input missing header row");
    }
    const auto& header = records[0].fields;
    if (header.size() != schema.num_fields()) {
      return Status::IOError(
          Loc(options, records[0].line) + "CSV header has " +
          std::to_string(header.size()) + " fields, schema expects " +
          std::to_string(schema.num_fields()));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c].text != schema.field(c).name) {
        return Status::IOError(Loc(options, records[0].line) +
                               "CSV header field '" + header[c].text +
                               "' does not match schema field '" +
                               schema.field(c).name + "'");
      }
    }
    first_data = 1;
  }
  PCLEAN_ASSIGN_OR_RETURN(Table table, Table::MakeEmpty(schema));
  for (size_t r = first_data; r < records.size(); ++r) {
    const CsvRawRecord& record = records[r];
    if (schema.num_fields() != 1 && IsBlankRecord(record)) continue;
    if (record.fields.size() != schema.num_fields()) {
      return Status::IOError(Loc(options, record.line) + "CSV record has " +
                             std::to_string(record.fields.size()) +
                             " fields, expected " +
                             std::to_string(schema.num_fields()));
    }
    std::vector<Value> row;
    row.reserve(record.fields.size());
    for (size_t c = 0; c < record.fields.size(); ++c) {
      auto cell = ParseCell(record.fields[c], schema.field(c), options);
      if (!cell.ok()) {
        return Status::WithCode(
            cell.status().code(),
            Loc(options, record.line) + "column '" + schema.field(c).name +
                "': " + cell.status().message());
      }
      row.push_back(std::move(cell).ValueOrDie());
    }
    PCLEAN_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

/// InferCsvSchema column by column over the records: int64 when every
/// non-NULL cell parses as one, else double, else string. Blank lines (in
/// wide schemas) and fields a ragged record lacks are skipped.
inline Result<Schema> InferCsvSchema(const std::string& text,
                                     const CsvOptions& options) {
  if (!options.header) {
    return Status::InvalidArgument(
        "schema inference requires a header row for field names");
  }
  PCLEAN_ASSIGN_OR_RETURN(auto records, ParseRecordsSerial(text, options));
  if (records.empty()) return Status::IOError("empty CSV input");
  const auto& header = records[0].fields;
  std::vector<Field> fields;
  for (size_t c = 0; c < header.size(); ++c) {
    bool all_int = true;
    bool all_double = true;
    bool any_value = false;
    for (size_t r = 1; r < records.size(); ++r) {
      if (header.size() != 1 && IsBlankRecord(records[r])) continue;
      if (c >= records[r].fields.size()) continue;
      const CsvRawField& cell = records[r].fields[c];
      if (!cell.quoted &&
          (cell.text.empty() || cell.text == options.null_literal)) {
        continue;
      }
      any_value = true;
      if (all_int && !ParseInt64(cell.text).ok()) all_int = false;
      if (all_double && !ParseDouble(cell.text).ok()) all_double = false;
      if (!all_int && !all_double) break;
    }
    if (any_value && all_int) {
      fields.push_back(Field::Numerical(header[c].text, ValueType::kInt64));
    } else if (any_value && all_double) {
      fields.push_back(Field::Numerical(header[c].text, ValueType::kDouble));
    } else {
      fields.push_back(Field::Discrete(header[c].text, ValueType::kString));
    }
  }
  return Schema::Make(std::move(fields));
}

}  // namespace csv_oracle
}  // namespace privateclean

#endif  // PRIVATECLEAN_TESTS_CSV_ORACLE_H_
