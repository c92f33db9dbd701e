#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "csv_oracle.h"
#include "parallel_harness.h"
#include "table/csv.h"

// Differential fuzzing of the CSV reader against the single-pass serial
// reference parser (csv_oracle.h). The reader frames records with
// per-chunk quote-parity scans (transfer functions, boundary adjustment
// around escaped quotes, newline prefix sums for line tracking) and then
// tokenizes each record's bytes in place, so the proof here is brute
// force: on thousands of randomized inputs — quoted fields, multiline
// quoted fields, escaped quotes, CRLF, \N nulls, blank lines, and torn
// (truncated-anywhere) variants — SplitCsvRecords in both split modes
// must agree with the oracle byte-for-byte on every record, every
// field's quoted flag, every record's line number, and on malformed
// input must return the same status code with the same
// file:line-prefixed message. Each comparison runs the speculative split
// at 1, 2, and 8 threads with adversarially tiny chunk sizes so chunk
// boundaries land inside quoted fields, escaped-quote pairs, and CRLF
// sequences even on short inputs.
//
// The columnar typing stage gets the same treatment: CsvToTable and
// InferCsvSchema must reproduce the oracle's boxed row-by-row typing and
// row-based inference — cells, dictionary code order, schemas and errors.

namespace privateclean {
namespace {

/// Serializes a split result — success or error — into comparable bytes.
/// Tag-prefixed so an error can never collide with a record list.
std::string SplitImage(const Result<std::vector<CsvRawRecord>>& result) {
  ByteSink sink;
  if (!result.ok()) {
    sink.AppendU64(0xE0E0E0E0);
    sink.AppendU64(static_cast<uint64_t>(result.status().code()));
    sink.AppendString(result.status().message());
    return std::move(sink).Finish();
  }
  const std::vector<CsvRawRecord>& records = result.ValueOrDie();
  sink.AppendU64(records.size());
  for (const CsvRawRecord& record : records) {
    sink.AppendU64(record.line);
    sink.AppendU64(record.fields.size());
    for (const CsvRawField& field : record.fields) {
      sink.AppendString(field.text);
      sink.AppendU64(field.quoted ? 1 : 0);
    }
  }
  return std::move(sink).Finish();
}

/// The byte image of a parsed table — every cell, then each string
/// column's dictionary code order — or of its error.
std::string TableImage(const Result<Table>& result) {
  ByteSink sink;
  if (!result.ok()) {
    sink.AppendU64(0xE0E0E0E0);
    sink.AppendU64(static_cast<uint64_t>(result.status().code()));
    sink.AppendString(result.status().message());
  } else {
    sink.AppendTable(result.ValueOrDie());
    sink.AppendDictionaryCodes(result.ValueOrDie());
  }
  return std::move(sink).Finish();
}

/// The byte image of an inferred schema or of its error.
std::string SchemaImage(const Result<Schema>& result) {
  ByteSink sink;
  if (!result.ok()) {
    sink.AppendU64(0xE0E0E0E0);
    sink.AppendU64(static_cast<uint64_t>(result.status().code()));
    sink.AppendString(result.status().message());
    return std::move(sink).Finish();
  }
  const Schema& schema = result.ValueOrDie();
  sink.AppendU64(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    sink.AppendString(schema.field(c).name);
    sink.AppendU64(static_cast<uint64_t>(schema.field(c).type));
    sink.AppendU64(static_cast<uint64_t>(schema.field(c).kind));
  }
  return std::move(sink).Finish();
}

/// Asserts oracle == serial == speculative on `text` for every thread
/// count and a few chunk sizes. `require_trailing_newline` exercises the
/// truncated-final-record DataLoss path on torn inputs.
void ExpectParsersAgree(const std::string& text, Rng& rng,
                        bool require_trailing_newline) {
  CsvOptions serial;
  serial.split = CsvSplitMode::kSerial;
  serial.error_context = "fuzz.csv";
  serial.require_trailing_newline = require_trailing_newline;
  const std::string want =
      SplitImage(csv_oracle::ParseRecordsSerial(text, serial));
  EXPECT_EQ(SplitImage(SplitCsvRecords(text, serial)), want)
      << "text=[" << text << "]";

  CsvOptions spec = serial;
  spec.split = CsvSplitMode::kSpeculative;
  // Tiny chunks force record and quote state across chunk boundaries;
  // chunk size 1 makes *every* byte a boundary candidate.
  const size_t chunk_sizes[] = {1, 1 + rng.UniformInt(7),
                                8 + rng.UniformInt(24), 0};
  for (size_t chunk_bytes : chunk_sizes) {
    spec.split_chunk_bytes = chunk_bytes;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk_bytes) +
                   " threads=" + std::to_string(threads) + " text=[" + text +
                   "]");
      spec.exec.num_threads = threads;
      EXPECT_EQ(SplitImage(SplitCsvRecords(text, spec)), want);
    }
  }
}

/// One random CSV-ish fragment drawn from generators that cover the
/// grammar's hard corners. Deliberately includes malformed shapes
/// (unterminated quotes, bare quotes mid-field) — the parsers must agree
/// on errors too.
std::string RandomFragment(Rng& rng) {
  switch (rng.UniformInt(12)) {
    case 0:
      return "plain" + std::to_string(rng.UniformInt(1000));
    case 1:
      return "\"quoted,with delimiter\"";
    case 2:
      return "\"multi\nline\nfield\"";
    case 3:
      return "\"escaped \"\" quote\"";
    case 4: {
      // A run of quotes of random length — the adversarial case for the
      // chunk-boundary adjustment.
      std::string quotes(1 + rng.UniformInt(6), '"');
      return quotes;
    }
    case 5:
      return "\\N";
    case 6:
      return "";  // Empty field.
    case 7:
      return "  padded  ";
    case 8:
      return "\"\"";  // Quoted empty string (non-NULL).
    case 9:
      return "\"crlf\r\ninside\"";
    case 10:
      return std::to_string(rng.UniformReal());
    case 11:
      return "tail\rcarriage";
  }
  return "";
}

/// A random record: fragments joined by delimiters, randomly terminated
/// by '\n', "\r\n", or nothing (torn tail).
std::string RandomRecord(Rng& rng) {
  std::string record;
  const size_t fields = 1 + rng.UniformInt(4);
  for (size_t f = 0; f < fields; ++f) {
    if (f > 0) record.push_back(',');
    record += RandomFragment(rng);
  }
  switch (rng.UniformInt(8)) {
    case 0:
      record += "\r\n";
      break;
    case 1:
      break;  // Torn: no terminator.
    default:
      record.push_back('\n');
      break;
  }
  return record;
}

TEST(CsvSplitFuzzTest, RandomizedInputsAgreeByteForByte) {
  Rng rng(0xC5F5F17ULL);
  for (int trial = 0; trial < 400; ++trial) {
    std::string text;
    const size_t records = rng.UniformInt(8);
    for (size_t r = 0; r < records; ++r) text += RandomRecord(rng);
    ExpectParsersAgree(text, rng, rng.Bernoulli(0.5));
  }
}

TEST(CsvSplitFuzzTest, TornInputsAgreeIncludingErrors) {
  Rng rng(0xDEADBEEFCAFEULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    for (size_t r = 0; r < 4; ++r) text += RandomRecord(rng);
    // Tear the input at a random byte: quoted fields become unterminated
    // and final records lose their newline, so both error branches get
    // exercised with both require_trailing_newline settings.
    if (!text.empty()) text.resize(rng.UniformInt(text.size() + 1));
    ExpectParsersAgree(text, rng, false);
    ExpectParsersAgree(text, rng, true);
  }
}

TEST(CsvSplitFuzzTest, CellTypingPipelineAgreesOnTables) {
  // End-to-end CsvToTable comparison: render random tables, parse them
  // back under both split modes at 1/2/8 threads, and require the byte
  // image of the parsed table — cells and dictionary code order — (and of
  // any error) to match the oracle's boxed parse, proving the splitter
  // composes with sharded cell typing.
  Rng rng(0x5EED5EED5EEDULL);
  Schema schema = *Schema::Make({Field::Discrete("name", ValueType::kString),
                                 Field::Numerical("score", ValueType::kDouble),
                                 Field::Numerical("count", ValueType::kInt64)});
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = "name,score,count\n";
    const size_t rows = rng.UniformInt(60);
    for (size_t r = 0; r < rows; ++r) {
      text += RandomFragment(rng) + "," +
              std::to_string(rng.UniformRealRange(-10, 10)) + "," +
              std::to_string(rng.UniformIntRange(-5, 5)) + "\n";
    }
    CsvOptions serial;
    serial.split = CsvSplitMode::kSerial;
    serial.null_literal = "\\N";
    serial.error_context = "pipeline.csv";

    const std::string want =
        TableImage(csv_oracle::CsvToTable(text, schema, serial));
    EXPECT_EQ(TableImage(CsvToTable(text, schema, serial)), want);

    CsvOptions spec = serial;
    spec.split = CsvSplitMode::kSpeculative;
    spec.split_chunk_bytes = 1 + rng.UniformInt(32);
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      spec.exec.num_threads = threads;
      EXPECT_EQ(TableImage(CsvToTable(text, schema, spec)), want);
    }
  }
}

TEST(CsvSplitFuzzTest, ErrorMessagesCarryIdenticalFileLineContext) {
  // Malformed inputs with the error several (possibly quoted) lines in:
  // the speculative parser must reproduce the serial parser's
  // "<context>:<line>: " prefix exactly, including lines advanced inside
  // quoted fields.
  const char* inputs[] = {
      "a,b\nc,d\n\"open",              // Unterminated quote on line 3.
      "\"x\ny\nz\"\nnext,\"",          // Quoted newlines, then line 4 opens.
      "one\ntwo\nthree",               // Truncated final record, line 3.
      "\"a\nb\"\r\n\"c",               // CRLF after a multiline field.
      "h1,h2\n\"v\n\n\n",              // Quote swallowing blank lines.
  };
  Rng rng(0xABCDEF);
  for (const char* input : inputs) {
    for (bool require_newline : {false, true}) {
      ExpectParsersAgree(input, rng, require_newline);
    }
  }
}

TEST(CsvSplitFuzzTest, AutoModeMatchesSerialAcrossThreadCounts) {
  // kAuto on a large input flips to the speculative path once more than
  // one thread is effective; the parallel-harness contract (identical
  // bytes at 1/2/8 threads) must hold across that flip.
  std::string text = "name,score\n";
  Rng rng(77);
  for (int r = 0; r < 4000; ++r) {
    text += RandomFragment(rng) + "," + std::to_string(rng.UniformReal()) +
            "\n";
  }
  CsvOptions options;
  options.split_min_bytes = 1024;  // Well under the text size.
  ExpectIdenticalAcrossThreadCounts([&](const ExecutionOptions& exec) {
    CsvOptions run = options;
    run.exec = exec;
    return SplitImage(SplitCsvRecords(text, run));
  });
}

// --- Columnar typing and inference vs the boxed oracle ----------------------

/// Asserts InferCsvSchema, and CsvToTable under an all-string schema and
/// under the oracle's inferred schema, match the oracle on `text` in both
/// split modes at 1/2/8 threads, the speculative split at each of
/// `chunk_sizes` (0 = the default chunk).
void ExpectColumnarMatchesOracle(
    const std::string& text, const CsvOptions& base,
    std::initializer_list<size_t> chunk_sizes = {1, 5, 0}) {
  CsvOptions oracle = base;
  oracle.split = CsvSplitMode::kSerial;
  const Result<Schema> inferred = csv_oracle::InferCsvSchema(text, oracle);
  const std::string want_schema = SchemaImage(inferred);
  std::vector<Schema> schemas;
  if (inferred.ok()) {
    std::vector<Field> strings;
    for (const Field& field : inferred.ValueOrDie().fields()) {
      strings.push_back(Field::Discrete(field.name, ValueType::kString));
    }
    schemas.push_back(*Schema::Make(std::move(strings)));
    schemas.push_back(inferred.ValueOrDie());
  } else {
    schemas.push_back(*Schema::Make({Field::Discrete("a")}));
  }
  std::vector<std::string> want_tables;
  for (const Schema& schema : schemas) {
    want_tables.push_back(
        TableImage(csv_oracle::CsvToTable(text, schema, oracle)));
  }

  struct Run {
    CsvSplitMode mode;
    size_t chunk_bytes;
  };
  std::vector<Run> runs = {Run{CsvSplitMode::kSerial, 0}};
  for (size_t chunk_bytes : chunk_sizes) {
    runs.push_back(Run{CsvSplitMode::kSpeculative, chunk_bytes});
  }
  for (const Run& run : runs) {
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("speculative=" +
                   std::to_string(run.mode == CsvSplitMode::kSpeculative) +
                   " chunk_bytes=" + std::to_string(run.chunk_bytes) +
                   " threads=" + std::to_string(threads));
      CsvOptions options = base;
      options.split = run.mode;
      options.split_chunk_bytes = run.chunk_bytes;
      options.exec.num_threads = threads;
      EXPECT_EQ(SchemaImage(InferCsvSchema(text, options)), want_schema);
      for (size_t i = 0; i < schemas.size(); ++i) {
        EXPECT_EQ(TableImage(CsvToTable(text, schemas[i], options)),
                  want_tables[i])
            << "schema " << i;
      }
    }
  }
}

TEST(CsvColumnarDifferentialTest, CellFormsMatchBoxedOracle) {
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"null vs quoted empty, one column", "s\n\n\"\"\nx\n\n"},
      {"null vs quoted empty, wide", "s,t\n,\n\"\",\"\"\n\"\",\nx,y\n"},
      {"null literal", "s,i,d\n\\N,\\N,\\N\n\"\\N\",1,2.5\nNA,NA,NA\n"},
      {"quoted null literal in int column", "i\n\"\\N\"\n1\n"},
      {"quoted numerics", "i,d\n\"1\",\"2.5\"\n\" 3 \",\" 4.5 \"\n5,6\n"},
      {"quoted empty numeric", "i,d\n1,2.5\n\"\",\"  \"\n"},
      {"padded numerics", "i,d\n  1 ,  2.5 \n\t3\t,4\n"},
      {"crlf", "s,i\r\nx,1\r\ny,2\r\n\r\n"},
      {"multiline quoted", "s,i\n\"a\nb\",1\n\"c\r\nd\",2\n"},
      {"escaped quotes", "s,i\n\"a\"\"b\",1\n\"\"\"\",2\nplain,3\n"},
      {"partly quoted field", "s,i\nab\"c,d\"ef,1\n  \"x\"  ,2\n"},
      {"blank lines, one column", "s\nx\n\n\ny\n"},
      {"blank lines, wide", "s,i\nx,1\n\n\ny,2\n\n"},
      {"whitespace-only line, wide", "s,i\nx,1\n   \n\r\ny,2\n"},
      {"ragged records", "s,i\nx,1\ny\nz,2,3\n"},
      {"all-NULL columns", "s,i\n,\n\\N,\n,\n"},
      {"int demoted to double", "a,b\n1,1\n2,2.5\n3,4\n"},
      {"int demoted to double then string", "a\n1\n2.5\nx\n3\n"},
      {"int64 overflow", "a\n9223372036854775807\n9223372036854775808\n"},
      {"header only", "s,i\n"},
      {"empty input", ""},
      {"duplicate header", "s,s\n1,2\n"},
      {"unterminated quote", "s,i\nx,1\n\"y,2\n"},
      {"missing final newline", "s,i\nx,1\ny,2"},
  };
  for (const Case& c : cases) {
    for (const char* null_literal : {"", "\\N", "NA"}) {
      for (bool require_newline : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + " null_literal=[" + null_literal +
                     "] require_newline=" + std::to_string(require_newline));
        CsvOptions options;
        options.null_literal = null_literal;
        options.require_trailing_newline = require_newline;
        options.error_context = "cells.csv";
        ExpectColumnarMatchesOracle(c.text, options);
      }
    }
  }
}

TEST(CsvColumnarDifferentialTest, PathologicalDelimitersMatchOracle) {
  // A quote delimiter never splits (the quote opens a field first); a
  // newline delimiter makes the whole text one record.
  for (char delimiter : {'"', '\n', '\r', ';'}) {
    for (const char* text :
         {"a;b\n1;2\n", "a\"b\n1\"2\n\"x\"\"y\"\n", "a\nb\n1\n", "a\r\nb\r\n",
          "\"a\nb\"\n\"c\"\n", "a;b\n\"x\n"}) {
      SCOPED_TRACE(std::string("delimiter=") + delimiter + " text=[" + text +
                   "]");
      CsvOptions options;
      options.delimiter = delimiter;
      ExpectColumnarMatchesOracle(text, options);
      Rng rng(static_cast<uint64_t>(delimiter));
      CsvOptions serial = options;
      serial.split = CsvSplitMode::kSerial;
      EXPECT_EQ(SplitImage(SplitCsvRecords(text, serial)),
                SplitImage(csv_oracle::ParseRecordsSerial(text, serial)));
    }
  }
}

/// A text of `rows` data records over several typing shards. String
/// values first appear throughout the text, some quoted or escaped (the
/// tokenizer's scratch path), with unquoted and quoted NULL forms mixed
/// in. Column `mixed` is int64 for the first shard, then double, and a
/// single string cell in the last row demotes it to string.
std::string MultiShardText(size_t rows) {
  std::string text = "name,count,score,mixed\n";
  for (size_t r = 0; r < rows; ++r) {
    const size_t k = r % (1 + r / 700);
    if (r % 17 == 3) {
      text += ",";
    } else if (r % 19 == 5) {
      text += "\"\",";
    } else if (r % 13 == 1) {
      text += "\"q\"\"" + std::to_string(k) + "\",";
    } else if (r % 23 == 7) {
      text += "\"multi\nline " + std::to_string(k % 5) + "\",";
    } else {
      text += "n" + std::to_string(k) + ",";
    }
    text += (r % 29 == 0 ? std::string("\\N")
                         : " " + std::to_string(int(r % 1000) - 500) + " ");
    text += "," + std::to_string(static_cast<double>(r) / 8.0) + ",";
    if (r + 1 == rows) {
      text += "late string";
    } else if (r < kRowsPerShard) {
      text += std::to_string(r);
    } else {
      text += std::to_string(static_cast<double>(r) + 0.5);
    }
    text += r % 11 == 0 ? "\r\n" : "\n";
    if (r % 5000 == 4999) text += "\n";  // A blank line to skip.
  }
  return text;
}

TEST(CsvColumnarDifferentialTest, MultiShardDictionaryMergeMatchesOracle) {
  const size_t rows = 2 * kRowsPerShard + 777;
  const std::string text = MultiShardText(rows);
  CsvOptions options;
  options.null_literal = "\\N";
  options.error_context = "shards.csv";
  // Chunks of a few dozen bytes still cut most records and quoted fields.
  ExpectColumnarMatchesOracle(text, options, {37, 0});
  // The inferred schema demotes `mixed` to string only for its last cell.
  const Schema schema = *InferCsvSchema(text, options);
  EXPECT_EQ(schema.field(1).type, ValueType::kInt64);
  EXPECT_EQ(schema.field(2).type, ValueType::kDouble);
  EXPECT_EQ(schema.field(3).type, ValueType::kString);
  EXPECT_EQ(CsvToTable(text, schema, options)->num_rows(), rows);
}

TEST(CsvColumnarDifferentialTest, LowestFailingRecordIsReported) {
  // Two bad records, in the second and third typing shards: every mode
  // and thread count reports the earlier one, as the oracle does.
  const size_t rows = 2 * kRowsPerShard + 777;
  std::string text = MultiShardText(rows);
  const Schema schema = *Schema::Make(
      {Field::Discrete("name"), Field::Numerical("count", ValueType::kInt64),
       Field::Numerical("score", ValueType::kDouble),
       Field::Discrete("mixed")});
  const std::string bad_late = "late,1,not a double,x\n";
  const std::string bad_early = "early,1,2.0\n";
  const size_t third = text.size() - 2000;
  const size_t second = text.size() / 2;
  text.insert(text.find('\n', third) + 1, bad_late);
  text.insert(text.find('\n', second) + 1, bad_early);
  CsvOptions options;
  options.null_literal = "\\N";
  options.error_context = "shards.csv";
  CsvOptions serial = options;
  serial.split = CsvSplitMode::kSerial;
  const Result<Table> want = csv_oracle::CsvToTable(text, schema, serial);
  ASSERT_FALSE(want.ok());
  EXPECT_NE(want.status().message().find("3 fields, expected 4"),
            std::string::npos)
      << want.status().message();
  for (CsvSplitMode mode : {CsvSplitMode::kSerial, CsvSplitMode::kSpeculative}) {
    for (size_t threads : {1u, 2u, 8u}) {
      CsvOptions run = options;
      run.split = mode;
      run.exec.num_threads = threads;
      EXPECT_EQ(TableImage(CsvToTable(text, schema, run)), TableImage(want));
    }
  }
}

TEST(CsvColumnarDifferentialTest, RandomTextsMatchOracle) {
  // Random cells drawn per column from int, double, padded, quoted,
  // NULL-form and string fragments, with blank lines, CRLF and ragged
  // records: inference demotes at random points and typing fails at
  // random records, and both must agree with the oracle.
  Rng rng(0xC01A7EULL);
  const char* cells[] = {"1",     "-7",   " 42 ",   "\"3\"",  "2.5",
                         "1e3",   "\\N",  "",       "\"\"",   "x",
                         "\"a,b\"", "\"q\"\"q\"", "\"m\nl\"", "NA",
                         "9223372036854775808"};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t columns = 1 + rng.UniformInt(3);
    std::string text;
    for (size_t c = 0; c < columns; ++c) {
      text += (c > 0 ? "," : "") + std::string("c") + std::to_string(c);
    }
    text += "\n";
    // Each column draws mostly from one "home" fragment class so some
    // columns stay numeric for a while before demoting.
    std::vector<size_t> home(columns);
    for (size_t& h : home) h = rng.UniformInt(6);
    const size_t rows = rng.UniformInt(40);
    for (size_t r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.05)) {
        text += "\n";
        continue;
      }
      size_t fields = columns;
      if (rng.Bernoulli(0.03)) fields = 1 + rng.UniformInt(columns + 1);
      for (size_t c = 0; c < fields; ++c) {
        if (c > 0) text += ",";
        const size_t h = c < columns ? home[c] : 0;
        text += cells[rng.Bernoulli(0.8) ? h : rng.UniformInt(15)];
      }
      text += rng.Bernoulli(0.2) ? "\r\n" : "\n";
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " text=[" + text + "]");
    CsvOptions options;
    options.null_literal = rng.Bernoulli(0.5) ? "\\N" : "";
    options.error_context = "random.csv";
    ExpectColumnarMatchesOracle(text, options);
  }
}

TEST(CsvColumnarTest, TableOutlivesItsText) {
  // String cells must not view the input text or the reader's scratch
  // copies: scribble over the text, free it, then read every cell. Under
  // ASan a dangling view is a use-after-free.
  const size_t rows = kRowsPerShard + 500;
  auto text = std::make_unique<std::string>(MultiShardText(rows));
  CsvOptions options;
  options.null_literal = "\\N";
  options.exec.num_threads = 4;
  const Schema schema = *InferCsvSchema(*text, options);
  const Table table = *CsvToTable(*text, schema, options);
  const Table oracle = *csv_oracle::CsvToTable(*text, schema, options);
  std::fill(text->begin(), text->end(), '#');
  text.reset();
  ASSERT_EQ(table.num_rows(), rows);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    if (column.type() != ValueType::kString) continue;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ASSERT_EQ(column.IsNull(r), oracle.column(c).IsNull(r)) << r;
      if (column.IsNull(r)) continue;
      ASSERT_EQ(column.StringAt(r), oracle.column(c).StringAt(r)) << r;
    }
    for (std::string_view value : column.dictionary().values()) {
      EXPECT_EQ(value.find('#'), std::string_view::npos);
    }
  }
}

}  // namespace
}  // namespace privateclean
