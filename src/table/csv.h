#ifndef PRIVATECLEAN_TABLE_CSV_H_
#define PRIVATECLEAN_TABLE_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/table.h"

namespace privateclean {

/// How the reader frames CSV text into records before tokenizing.
enum class CsvSplitMode {
  /// Speculative split when it can pay off: more than one effective
  /// thread and at least `split_min_bytes` of input; serial otherwise.
  kAuto,
  /// Always one framing scan over the whole text.
  kSerial,
  /// Always the chunked speculative split, even single-threaded. The
  /// differential fuzz suite forces this (with tiny chunk sizes) to prove
  /// byte-identical behavior against kSerial and the reference parser.
  kSpeculative,
};

/// CSV parsing/serialization options (RFC-4180 quoting).
struct CsvOptions {
  char delimiter = ',';
  /// Whether the first record is a header row. On read with an explicit
  /// schema the header names must match the schema names.
  bool header = true;
  /// String that encodes NULL (in addition to the empty field).
  std::string null_literal = "";
  /// Threading (common/thread_pool.h). Tokenizing, inference and cell
  /// typing on read and row rendering on write are sharded, with
  /// per-shard output merged in shard index order. Record framing —
  /// where quote state carries across bytes — is sharded too via the
  /// speculative split (see `split`), which resolves per-chunk quote
  /// parities sequentially and is byte-identical to one serial scan at
  /// every thread count.
  ExecutionOptions exec;
  /// Record-splitting strategy. kAuto falls back to serial for inputs
  /// under `split_min_bytes` or when only one thread is effective.
  CsvSplitMode split = CsvSplitMode::kAuto;
  /// kAuto threshold: inputs smaller than this parse serially (chunk
  /// bookkeeping costs more than it saves).
  size_t split_min_bytes = 64 * 1024;
  /// Chunk granularity for the speculative splitter; 0 picks
  /// kBytesPerSplitChunk. Tests shrink it to force record and quote
  /// state across chunk boundaries on small inputs. Chunk layout is a
  /// function of the input bytes alone, never the thread count.
  size_t split_chunk_bytes = 0;
  /// Source name used in parse-error messages ("<name>:<line>: ...").
  /// ReadCsvFile fills it with the file path when empty; inline text
  /// defaults to "<csv>". Line numbers are 1-based input lines (a quoted
  /// field spanning lines reports the line its record starts on).
  std::string error_context;
  /// Treat a final record that is not newline-terminated (or a quoted
  /// field still open at end of input) as a truncated file and fail with
  /// DataLoss. The release reader sets this — release files always end
  /// with '\n' — so a torn tail can't silently drop the last row's
  /// terminator and parse as a complete record.
  bool require_trailing_newline = false;
};

/// Serializes a table to CSV text. Null cells render as
/// `options.null_literal`; fields containing the delimiter, quotes or
/// newlines are quoted with doubled inner quotes.
std::string TableToCsv(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Parses CSV text into a table with a caller-provided schema. Every
/// record must have exactly one field per schema column; numeric fields
/// are parsed strictly. Unquoted empty fields (or `null_literal`) become
/// NULL. String codes follow first occurrence in row order. The table
/// owns its bytes: it never views `text`.
Result<Table> CsvToTable(const std::string& text, const Schema& schema,
                         const CsvOptions& options = {});

/// Reads a CSV file into a table with a caller-provided schema.
Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options = {});

/// One raw field as produced by the record splitter, before cell typing:
/// the field text (quoted fields unescaped, unquoted fields trimmed) and
/// whether it was quoted (quoted fields are never NULL).
struct CsvRawField {
  std::string text;
  bool quoted = false;
};

/// One raw record: its fields and the 1-based input line it starts on
/// (quoted fields may span lines; the record keeps its starting line).
struct CsvRawRecord {
  std::vector<CsvRawField> fields;
  size_t line = 1;
};

/// Splits CSV text into raw records per `options.split` without typing
/// cells: the framing and tokenizer CsvToTable and InferCsvSchema run,
/// with every field copied out, so the differential fuzz suite can
/// compare both split modes with a reference parser field-for-field (and
/// error-for-error) on arbitrary inputs.
Result<std::vector<CsvRawRecord>> SplitCsvRecords(
    const std::string& text, const CsvOptions& options = {});

/// Infers a schema from CSV text: a column whose non-NULL cells all parse
/// as int64 becomes a numerical int64 field; else all as double, a
/// numerical double field; otherwise (or with no non-NULL cell) a
/// discrete string field. Reads the whole text. Requires a header row.
Result<Schema> InferCsvSchema(const std::string& text,
                              const CsvOptions& options = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_TABLE_CSV_H_
