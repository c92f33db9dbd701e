#include "table/csv.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>

#include "common/io_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace privateclean {

namespace {

bool NeedsQuoting(std::string_view field, const CsvOptions& options) {
  // Real values that would read back as NULL must be quoted: quoted
  // fields are never NULL (see IsNullCell), which keeps the empty string
  // and a literal null marker distinguishable from actual nulls.
  if (field.empty() || field == options.null_literal) return true;
  // Leading/trailing whitespace must be quoted: the reader trims
  // unquoted fields.
  if (std::isspace(static_cast<unsigned char>(field.front())) ||
      std::isspace(static_cast<unsigned char>(field.back()))) {
    return true;
  }
  for (char c : field) {
    if (c == options.delimiter || c == '"' || c == '\n' || c == '\r') {
      return true;
    }
  }
  return false;
}

/// Appends a non-null field, quoting when necessary.
void AppendField(std::string* out, std::string_view field,
                 const CsvOptions& options) {
  if (!NeedsQuoting(field, options)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Source-location prefix for parse errors: "<context>:<line>: ".
std::string Loc(const CsvOptions& options, size_t line) {
  return (options.error_context.empty() ? "<csv>" : options.error_context) +
         ":" + std::to_string(line) + ": ";
}

// --- Record framing ---------------------------------------------------------
//
// Framing cuts the text into record byte ranges without looking at fields.
// The quote automaton has exactly two states (inside / outside a quoted
// field), so a chunk of bytes can be scanned under *both* possible
// starting parities in parallel; each chunk's scan doubles as its parity
// transfer function (start parity -> end parity). A cheap sequential pass
// then chains the transfer functions from chunk 0 (which provably starts
// outside quotes) and prefix-sums the chosen scans' counts, and a second
// parallel scan writes every record terminator (an unquoted '\n') into
// its global slot. A record's line is 1 + the count of '\n' bytes before
// it, quoted ones included, so the newline prefix sums give every record
// its input line. The serial mode is the same scan over a single chunk.
//
// The reference semantics is the single-pass record parser the tests
// keep as an oracle (tests/csv_oracle.h); the differential fuzz suite
// holds framing plus tokenizing byte-identical to it.

/// An unquoted '\n' and the input line of the record that follows it.
/// Left uninitialized on allocation: the fill scan writes every slot.
struct Terminator {
  size_t offset;
  size_t line_after;
};

/// Counts of one chunk scanned under one starting parity.
struct ChunkScan {
  /// Every '\n' byte in the chunk, quoted ones included (parity-free).
  size_t newlines = 0;
  /// Unquoted '\n' bytes: the record terminators.
  size_t terminators = 0;
  /// Quote parity after the chunk's last byte.
  bool end_in_quotes = false;
};

/// 0x80 in each byte of `word` equal to `c` and 0 in every other byte.
/// Exact: no byte's test borrows from its neighbour.
uint64_t ByteMask(uint64_t word, char c) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const uint64_t x = word ^ (0x0101010101010101ULL * static_cast<uint8_t>(c));
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Scans text[begin, end) from quote parity `start_in_quotes`. Tracks
/// only '"' and '\n': delimiters, '\r' and field bytes do not move record
/// framing (a '\n' delimiter makes no '\n' a terminator). With `out`, the
/// i-th terminator is written to out[i], its successor line counted from
/// `newline_base` '\n' bytes before the chunk.
ChunkScan ScanChunk(const std::string& text, size_t begin, size_t end,
                    bool start_in_quotes, const CsvOptions& options,
                    size_t newline_base, Terminator* out) {
  const bool newline_terminates = options.delimiter != '\n';
  const char* p = text.data();
  ChunkScan scan;
  bool in_quotes = start_in_quotes;
  auto newline = [&](size_t i) {
    ++scan.newlines;
    if (!in_quotes && newline_terminates) {
      if (out != nullptr) {
        out[scan.terminators] = Terminator{i, 1 + newline_base + scan.newlines};
      }
      ++scan.terminators;
    }
  };
  size_t i = begin;
  while (i < end) {
    // Eight bytes at a time while they hold no quote: then only their
    // '\n' bytes matter, and the parity cannot change inside them.
    if (std::endian::native == std::endian::little && end - i >= 8) {
      uint64_t word;
      std::memcpy(&word, p + i, sizeof word);
      if (ByteMask(word, '"') == 0) {
        for (uint64_t nl = ByteMask(word, '\n'); nl != 0; nl &= nl - 1) {
          newline(i + static_cast<size_t>(std::countr_zero(nl) / 8));
        }
        i += 8;
        continue;
      }
    }
    const char c = p[i];
    if (c == '"') {
      if (in_quotes && i + 1 < text.size() && p[i + 1] == '"') {
        ++i;  // Escaped quote; SplitPoints keeps the pair chunk-local.
      } else {
        in_quotes = !in_quotes;
      }
    } else if (c == '\n') {
      newline(i);
    }
    ++i;
  }
  scan.end_in_quotes = in_quotes;
  return scan;
}

/// Chunk boundaries for the speculative split: balanced byte ranges
/// (ShardBounds), nudged forward so no boundary falls between two
/// adjacent '"' bytes. An escaped-quote pair (`""`) is then always
/// chunk-local, so a chunk scan's one-byte lookahead never pairs a quote
/// with a byte another chunk already consumed — under either parity,
/// since the adjustment is purely syntactic. A pure function of the text
/// and chunk size: thread count never moves a boundary.
std::vector<size_t> SplitPoints(const std::string& text, size_t chunk_bytes) {
  const size_t chunks = ChunkCountForBytes(text.size(), chunk_bytes);
  std::vector<size_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  for (size_t c = 1; c < chunks; ++c) {
    size_t b = ShardBounds(text.size(), chunks, c).begin;
    while (b > 0 && b < text.size() && text[b] == '"' && text[b - 1] == '"') {
      ++b;
    }
    // Adjustment only moves boundaries forward; keep them monotone (an
    // empty chunk is fine — it scans as the identity transfer function).
    bounds.push_back(std::max(b, bounds.back()));
  }
  bounds.push_back(text.size());
  return bounds;
}

/// Whether framing splits the text into several chunks: always for
/// kSpeculative, never for kSerial; kAuto requires real parallelism and
/// enough bytes to amortize the chunk bookkeeping.
bool UseSpeculativeSplit(const std::string& text, const CsvOptions& options) {
  switch (options.split) {
    case CsvSplitMode::kSerial:
      return false;
    case CsvSplitMode::kSpeculative:
      return true;
    case CsvSplitMode::kAuto:
      break;
  }
  return options.exec.EffectiveThreads() > 1 &&
         text.size() >= options.split_min_bytes;
}

/// One record's bytes (its terminating '\n' excluded) and the 1-based
/// input line it starts on.
struct RecordSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t line = 1;
};

/// The records of a text: record r spans the bytes between terminators
/// r-1 and r; a final record without a terminator ends at the text's end.
struct Framing {
  std::unique_ptr<Terminator[]> terminators;
  size_t num_terminators = 0;
  size_t text_size = 0;
  bool has_tail = false;

  size_t num_records() const { return num_terminators + (has_tail ? 1 : 0); }

  RecordSpan record(size_t r) const {
    RecordSpan span;
    span.begin = r == 0 ? 0 : terminators[r - 1].offset + 1;
    span.end = r < num_terminators ? terminators[r].offset : text_size;
    span.line = r == 0 ? 1 : terminators[r - 1].line_after;
    return span;
  }
};

/// Frames `text` into records. An open quote at the end of input is
/// DataLoss; so, with `options.require_trailing_newline`, is a final
/// record that lacks its '\n'.
Result<Framing> FrameRecords(const std::string& text,
                             const CsvOptions& options) {
  Framing framing;
  framing.text_size = text.size();
  if (text.empty()) return framing;

  const std::vector<size_t> bounds =
      UseSpeculativeSplit(text, options)
          ? SplitPoints(text, options.split_chunk_bytes)
          : std::vector<size_t>{0, text.size()};
  const size_t chunks = bounds.size() - 1;

  // Phase 1 (parallel): count every chunk under both starting parities
  // (chunk 0 only outside quotes). Chunks are coarse items — each is a
  // full pass over its bytes — so they shard under the coarse cap.
  std::vector<ChunkScan> scans[2];
  scans[0].resize(chunks);
  scans[1].resize(chunks);
  Status count_status = ParallelFor(
      chunks, ShardCountForCoarseItems(chunks), options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          for (bool parity : {false, true}) {
            if (parity && c == 0) continue;
            scans[parity][c] = ScanChunk(text, bounds[c], bounds[c + 1],
                                         parity, options, 0, nullptr);
          }
        }
        return Status::OK();
      });
  (void)count_status;

  // Phase 2 (sequential, O(chunks)): chain each chunk's end parity into
  // the next chunk's start parity and prefix-sum the chosen scans'
  // newline and terminator counts.
  std::vector<uint8_t> start_parity(chunks);
  std::vector<size_t> newline_base(chunks);
  std::vector<size_t> terminator_base(chunks);
  bool parity = false;
  size_t total_newlines = 0;
  size_t total_terminators = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const ChunkScan& scan = scans[parity][c];
    start_parity[c] = parity;
    newline_base[c] = total_newlines;
    terminator_base[c] = total_terminators;
    total_newlines += scan.newlines;
    total_terminators += scan.terminators;
    parity = scan.end_in_quotes;
  }
  const bool final_in_quotes = parity;

  // Phase 3 (parallel): rescan each chunk from its resolved parity,
  // writing its terminators into their global slots.
  framing.terminators =
      std::make_unique_for_overwrite<Terminator[]>(total_terminators);
  framing.num_terminators = total_terminators;
  Status fill_status = ParallelFor(
      chunks, ShardCountForCoarseItems(chunks), options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          ScanChunk(text, bounds[c], bounds[c + 1], start_parity[c] != 0,
                    options, newline_base[c],
                    framing.terminators.get() + terminator_base[c]);
        }
        return Status::OK();
      });
  (void)fill_status;

  // Tail = bytes after the last terminator. The open-quote error comes
  // first, then truncation; a record still open at EOF starts on the last
  // terminator's successor line (a quoted '\n' in the tail never moves a
  // record's starting line).
  const RecordSpan tail = framing.record(total_terminators);
  if (final_in_quotes) {
    return Status::DataLoss(
        Loc(options, tail.line) +
        "unterminated quoted field at end of input (truncated file?)");
  }
  // The tail forms a final record exactly when it holds any byte other
  // than '\r' (a lone '\r' is swallowed, never content).
  framing.has_tail = std::any_of(text.begin() + tail.begin, text.end(),
                                 [](char c) { return c != '\r'; });
  if (framing.has_tail && options.require_trailing_newline) {
    return Status::DataLoss(
        Loc(options, tail.line) +
        "truncated final record: missing newline at end of file");
  }
  return framing;
}

// --- Field tokenizer --------------------------------------------------------

/// One field of a record: its text (quoted fields unescaped, unquoted
/// fields trimmed) and whether it was quoted (quoted fields are never
/// NULL).
struct FieldSpan {
  std::string_view text;
  bool quoted = false;
};

/// Splits one record into FieldSpans. A record with no '"' and no '\r'
/// splits on the delimiter in place, so its fields view the input text.
/// Any other record is unescaped into a scratch buffer the fields then
/// view. Either way the views stay valid until the next Tokenize call.
class RecordTokenizer {
 public:
  RecordTokenizer(const std::string& text, char delimiter)
      : text_(text), delimiter_(delimiter) {}

  void Tokenize(const RecordSpan& record) {
    fields_.clear();
    in_scratch_ = !SplitInPlace(record.begin, record.end);
    if (in_scratch_) Unescape(record.begin, record.end);
  }

  const std::vector<FieldSpan>& fields() const { return fields_; }

  /// Whether the fields view the scratch buffer rather than the text.
  bool in_scratch() const { return in_scratch_; }

  /// A blank input line tokenizes as one unquoted empty field. For a
  /// one-column schema that is a NULL row; wider schemas skip it.
  bool blank() const {
    return fields_.size() == 1 && !fields_[0].quoted &&
           fields_[0].text.empty();
  }

 private:
  /// The plain-record fast path. Returns false, leaving fields_ to be
  /// rebuilt, on the first '"' or '\r' (checked before the delimiter: a
  /// quote opens a field even when it is the delimiter).
  bool SplitInPlace(size_t begin, size_t end) {
    const char* p = text_.data();
    size_t field_begin = begin;
    for (size_t i = begin; i < end; ++i) {
      const char c = p[i];
      if (c == '"' || c == '\r') return false;
      if (c == delimiter_) {
        fields_.push_back(FieldSpan{
            TrimWhitespace(std::string_view(p + field_begin, i - field_begin)),
            false});
        field_begin = i + 1;
      }
    }
    fields_.push_back(FieldSpan{
        TrimWhitespace(std::string_view(p + field_begin, end - field_begin)),
        false});
    return true;
  }

  /// The full field grammar: quoted fields (with `""` escapes and quoted
  /// delimiters, '\r' and '\n'), and '\r' swallowed outside quotes.
  void Unescape(size_t begin, size_t end) {
    fields_.clear();
    scratch_.clear();
    pending_.clear();
    size_t field_begin = 0;
    bool in_quotes = false;
    bool field_was_quoted = false;
    auto end_field = [&]() {
      pending_.push_back(Pending{field_begin, scratch_.size(),
                                 field_was_quoted});
      field_begin = scratch_.size();
      field_was_quoted = false;
    };
    for (size_t i = begin; i < end; ++i) {
      const char c = text_[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < text_.size() && text_[i + 1] == '"') {
            scratch_.push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          scratch_.push_back(c);
        }
        continue;
      }
      if (c == '"') {
        in_quotes = true;
        field_was_quoted = true;
      } else if (c == delimiter_) {
        end_field();
      } else if (c != '\r') {
        scratch_.push_back(c);
      }
    }
    end_field();
    for (const Pending& field : pending_) {
      std::string_view text(scratch_.data() + field.begin,
                            field.end - field.begin);
      fields_.push_back(
          FieldSpan{field.quoted ? text : TrimWhitespace(text), field.quoted});
    }
  }

  /// A field's byte range in scratch_, fixed up once scratch_ stops
  /// growing.
  struct Pending {
    size_t begin = 0;
    size_t end = 0;
    bool quoted = false;
  };

  const std::string& text_;
  const char delimiter_;
  std::vector<FieldSpan> fields_;
  std::string scratch_;
  std::vector<Pending> pending_;
  bool in_scratch_ = false;
};

// --- Cell typing ------------------------------------------------------------

/// Unquoted empty fields and the null literal are NULL; quoted fields
/// never are.
bool IsNullCell(const FieldSpan& cell, const CsvOptions& options) {
  return !cell.quoted &&
         (cell.text.empty() || cell.text == options.null_literal);
}

/// ParseInt64's acceptance, without building its error text: the trimmed
/// field must be one complete in-range integer.
bool AcceptInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// ParseDouble's acceptance, without building its error text.
bool AcceptDouble(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// A string dictionary under construction: values in first-intern order,
/// found through an open-addressing table of codes. A value views the
/// input text, or a copy the builder owns when it came from the
/// tokenizer's scratch buffer.
class DictionaryBuilder {
 public:
  uint32_t Intern(std::string_view value, bool transient) {
    if (2 * values_.size() >= slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(value) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        if (transient) value = owned_.emplace_back(value);
        values_.push_back(value);
        slots_[i] = static_cast<uint32_t>(values_.size());
        return slots_[i] - 1;
      }
      if (values_[slot - 1] == value) return slot - 1;
    }
  }

  const std::vector<std::string_view>& values() const { return values_; }

 private:
  static size_t Hash(std::string_view value) {
    return std::hash<std::string_view>{}(value);
  }

  /// Doubles the table (at least 16 slots) and re-slots every code.
  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t code = 0; code < values_.size(); ++code) {
      size_t i = Hash(values_[code]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(code + 1);
    }
  }

  std::vector<uint32_t> slots_;  // code + 1; 0 marks an empty slot
  std::vector<std::string_view> values_;
  std::deque<std::string> owned_;
};

/// One typing shard's rows, column by column.
struct ShardColumns {
  std::vector<ColumnStorage> columns;
  std::vector<DictionaryBuilder> dictionaries;
  size_t rows = 0;
};

/// Types `cell` onto the end of `out` per `field`. A numeric cell that
/// does not parse fails with ParseInt64/ParseDouble's status, pinned to
/// the record's file and line.
Status AppendCell(const FieldSpan& cell, bool transient, const Field& field,
                  size_t line, const CsvOptions& options, ColumnStorage* out,
                  DictionaryBuilder* dictionary) {
  const bool null = IsNullCell(cell, options);
  out->validity.push_back(null ? 0 : 1);
  Status bad;
  switch (field.type) {
    case ValueType::kInt64: {
      int64_t v = 0;
      if (!null && !AcceptInt64(cell.text, &v)) {
        bad = ParseInt64(cell.text).status();
      }
      out->ints.push_back(v);
      break;
    }
    case ValueType::kDouble: {
      double v = 0.0;
      if (!null && !AcceptDouble(cell.text, &v)) {
        bad = ParseDouble(cell.text).status();
      }
      out->doubles.push_back(v);
      break;
    }
    case ValueType::kString:
      out->codes.push_back(null ? kNullCode
                                : dictionary->Intern(cell.text, transient));
      break;
    case ValueType::kNull:
      return Status::Internal("field with null type");
  }
  if (bad.ok()) return Status::OK();
  // Keep the underlying code (strict numeric parses are InvalidArgument)
  // but pin the failure to file and line.
  return Status::WithCode(bad.code(), Loc(options, line) + "column '" +
                                          field.name + "': " + bad.message());
}

/// Concatenates the shards' columns in shard order into one ColumnStorage
/// per column. Each string column's shard dictionaries merge in shard
/// order, so a value's code is its first occurrence in row order — the
/// order interning the rows one by one would assign — and the shards'
/// codes are remapped in parallel.
std::vector<ColumnStorage> MergeShards(std::vector<ShardColumns>& shards,
                                       const Schema& schema,
                                       const ExecutionOptions& exec) {
  const size_t num_columns = schema.num_fields();
  if (shards.size() == 1) {
    // A lone shard's dictionaries are already in first-occurrence order.
    ShardColumns& only = shards[0];
    for (size_t c = 0; c < num_columns; ++c) {
      only.columns[c].dictionary = only.dictionaries[c].values();
    }
    return std::move(only.columns);
  }

  std::vector<size_t> row_base(shards.size() + 1, 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    row_base[s + 1] = row_base[s] + shards[s].rows;
  }
  const size_t rows = row_base.back();

  std::vector<ColumnStorage> merged(num_columns);
  // remap[c][s][shard code] = merged code, for string columns.
  std::vector<std::vector<std::vector<uint32_t>>> remap(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStorage& out = merged[c];
    out.validity.resize(rows);
    switch (schema.field(c).type) {
      case ValueType::kInt64:
        out.ints.resize(rows);
        break;
      case ValueType::kDouble:
        out.doubles.resize(rows);
        break;
      default: {
        out.codes.resize(rows);
        DictionaryBuilder dictionary;
        remap[c].resize(shards.size());
        for (size_t s = 0; s < shards.size(); ++s) {
          for (std::string_view value : shards[s].dictionaries[c].values()) {
            remap[c][s].push_back(dictionary.Intern(value, false));
          }
        }
        out.dictionary = dictionary.values();
      }
    }
  }

  Status copy_status = ParallelFor(
      shards.size(), shards.size(), exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t s = begin; s < end; ++s) {
          const size_t base = row_base[s];
          for (size_t c = 0; c < num_columns; ++c) {
            const ColumnStorage& in = shards[s].columns[c];
            ColumnStorage& out = merged[c];
            std::copy(in.validity.begin(), in.validity.end(),
                      out.validity.begin() + base);
            std::copy(in.ints.begin(), in.ints.end(), out.ints.begin() + base);
            std::copy(in.doubles.begin(), in.doubles.end(),
                      out.doubles.begin() + base);
            for (size_t r = 0; r < in.codes.size(); ++r) {
              const uint32_t code = in.codes[r];
              out.codes[base + r] =
                  code == kNullCode ? kNullCode : remap[c][s][code];
            }
          }
        }
        return Status::OK();
      });
  (void)copy_status;
  return merged;
}

}  // namespace

Result<std::vector<CsvRawRecord>> SplitCsvRecords(const std::string& text,
                                                  const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(Framing framing, FrameRecords(text, options));
  const size_t num_records = framing.num_records();
  std::vector<CsvRawRecord> out(num_records);
  Status st = ParallelFor(
      num_records, ShardCountForRows(num_records), options.exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        RecordTokenizer tokenizer(text, options.delimiter);
        for (size_t r = begin; r < end; ++r) {
          const RecordSpan span = framing.record(r);
          tokenizer.Tokenize(span);
          out[r].line = span.line;
          for (const FieldSpan& field : tokenizer.fields()) {
            out[r].fields.push_back(
                CsvRawField{std::string(field.text), field.quoted});
          }
        }
        return Status::OK();
      });
  (void)st;
  return out;
}

std::string TableToCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  if (options.header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      AppendField(&out, table.schema().field(c).name, options);
    }
    out.push_back('\n');
  }
  // Row rendering is sharded; concatenating the per-shard chunks in
  // shard index order yields the exact serial byte stream.
  const size_t rows = table.num_rows();
  const size_t shards = ShardCountForRows(rows);
  std::vector<std::string> chunks(shards);
  // Shard bodies never fail, so the status is always OK.
  Status st = ParallelFor(
      rows, shards, options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        std::string& chunk = chunks[shard];
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < table.num_columns(); ++c) {
            if (c > 0) chunk.push_back(options.delimiter);
            const Column& col = table.column(c);
            if (col.IsNull(r)) {
              // NULL is encoded as the *unquoted* null literal; AppendField
              // would quote it, which marks a real value (quoted fields are
              // never NULL).
              chunk.append(options.null_literal);
            } else if (col.type() == ValueType::kString) {
              // Render straight from the dictionary bytes — no Value
              // boxing, no per-cell string copy.
              AppendField(&chunk, col.StringAt(r), options);
            } else {
              AppendField(&chunk, col.ValueAt(r).ToString(), options);
            }
          }
          chunk.push_back('\n');
        }
        return Status::OK();
      });
  (void)st;
  for (const std::string& chunk : chunks) out.append(chunk);
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  return io::WriteFileDurable(path, TableToCsv(table, options));
}

Result<Table> CsvToTable(const std::string& text, const Schema& schema,
                         const CsvOptions& options) {
  PCLEAN_ASSIGN_OR_RETURN(Framing framing, FrameRecords(text, options));
  const size_t num_columns = schema.num_fields();
  size_t first_data = 0;
  if (options.header) {
    if (framing.num_records() == 0) {
      return Status::IOError(Loc(options, 1) + "CSV input missing header row");
    }
    const RecordSpan span = framing.record(0);
    RecordTokenizer tokenizer(text, options.delimiter);
    tokenizer.Tokenize(span);
    const std::vector<FieldSpan>& header = tokenizer.fields();
    if (header.size() != num_columns) {
      return Status::IOError(
          Loc(options, span.line) + "CSV header has " +
          std::to_string(header.size()) + " fields, schema expects " +
          std::to_string(num_columns));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c].text != schema.field(c).name) {
        return Status::IOError(Loc(options, span.line) + "CSV header field '" +
                               std::string(header[c].text) +
                               "' does not match schema field '" +
                               schema.field(c).name + "'");
      }
    }
    first_data = 1;
  }
  // Cell typing is sharded over the data records; each shard types its
  // records straight into per-column storage, and MergeShards
  // concatenates the shards in index order, which reproduces the serial
  // row order and dictionary code order exactly. Shards are claimed in
  // increasing index order, so on malformed input the error reported is
  // the serial one (lowest failing record).
  const size_t num_data = framing.num_records() - first_data;
  std::vector<ShardColumns> shards(ShardCountForRows(num_data));
  for (ShardColumns& shard : shards) {
    shard.columns.resize(num_columns);
    shard.dictionaries.resize(num_columns);
  }
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      num_data, shards.size(), options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        ShardColumns& local = shards[shard];
        for (size_t c = 0; c < num_columns; ++c) {
          ColumnStorage& column = local.columns[c];
          column.validity.reserve(end - begin);
          switch (schema.field(c).type) {
            case ValueType::kInt64:
              column.ints.reserve(end - begin);
              break;
            case ValueType::kDouble:
              column.doubles.reserve(end - begin);
              break;
            default:
              column.codes.reserve(end - begin);
          }
        }
        RecordTokenizer tokenizer(text, options.delimiter);
        for (size_t i = begin; i < end; ++i) {
          const RecordSpan span = framing.record(first_data + i);
          tokenizer.Tokenize(span);
          if (num_columns != 1 && tokenizer.blank()) continue;
          const std::vector<FieldSpan>& fields = tokenizer.fields();
          if (fields.size() != num_columns) {
            return Status::IOError(
                Loc(options, span.line) + "CSV record has " +
                std::to_string(fields.size()) + " fields, expected " +
                std::to_string(num_columns));
          }
          for (size_t c = 0; c < num_columns; ++c) {
            PCLEAN_RETURN_NOT_OK(AppendCell(
                fields[c], tokenizer.in_scratch(), schema.field(c), span.line,
                options, &local.columns[c], &local.dictionaries[c]));
          }
          ++local.rows;
        }
        return Status::OK();
      }));
  std::vector<ColumnStorage> storage =
      MergeShards(shards, schema, options.exec);
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    // Adopt copies the dictionary bytes into the column's arena, so the
    // table never views `text` or the shards' scratch copies.
    PCLEAN_ASSIGN_OR_RETURN(
        Column column,
        Column::Adopt(schema.field(c).type, std::move(storage[c])));
    columns.push_back(std::move(column));
  }
  return Table::Make(schema, std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options) {
  // Transient read errors are retried with bounded backoff; a missing
  // file is NotFound immediately.
  PCLEAN_ASSIGN_OR_RETURN(std::string text, io::ReadFileWithRetry(path));
  if (options.error_context.empty()) {
    CsvOptions located = options;
    located.error_context = path;
    return CsvToTable(text, schema, located);
  }
  return CsvToTable(text, schema, options);
}

Result<Schema> InferCsvSchema(const std::string& text,
                              const CsvOptions& options) {
  if (!options.header) {
    return Status::InvalidArgument(
        "schema inference requires a header row for field names");
  }
  PCLEAN_ASSIGN_OR_RETURN(Framing framing, FrameRecords(text, options));
  if (framing.num_records() == 0) return Status::IOError("empty CSV input");
  std::vector<std::string> names;
  {
    RecordTokenizer tokenizer(text, options.delimiter);
    tokenizer.Tokenize(framing.record(0));
    for (const FieldSpan& field : tokenizer.fields()) {
      names.emplace_back(field.text);
    }
  }
  const size_t num_columns = names.size();

  // What a column's non-NULL cells admit. Shards gather it over their
  // records and the shards combine with OR / AND, so the whole file is
  // read and the outcome is the serial one at any thread count. Blank
  // lines (in wide schemas) are skipped, and so are the fields a ragged
  // record lacks; a record's extra fields are ignored.
  struct Evidence {
    bool any_value = false;
    bool all_int = true;
    bool all_double = true;
  };
  const size_t num_data = framing.num_records() - 1;
  const size_t shards = ShardCountForRows(num_data);
  std::vector<std::vector<Evidence>> evidence(
      shards, std::vector<Evidence>(num_columns));
  Status st = ParallelFor(
      num_data, shards, options.exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        std::vector<Evidence>& local = evidence[shard];
        RecordTokenizer tokenizer(text, options.delimiter);
        for (size_t i = begin; i < end; ++i) {
          tokenizer.Tokenize(framing.record(1 + i));
          if (num_columns != 1 && tokenizer.blank()) continue;
          const std::vector<FieldSpan>& fields = tokenizer.fields();
          const size_t n = std::min(fields.size(), num_columns);
          for (size_t c = 0; c < n; ++c) {
            if (IsNullCell(fields[c], options)) continue;
            Evidence& e = local[c];
            e.any_value = true;
            int64_t as_int = 0;
            double as_double = 0.0;
            if (e.all_int && !AcceptInt64(fields[c].text, &as_int)) {
              e.all_int = false;
            }
            if (e.all_double && !AcceptDouble(fields[c].text, &as_double)) {
              e.all_double = false;
            }
          }
        }
        return Status::OK();
      });
  (void)st;

  std::vector<Field> fields;
  for (size_t c = 0; c < num_columns; ++c) {
    Evidence column;
    for (const std::vector<Evidence>& local : evidence) {
      column.any_value = column.any_value || local[c].any_value;
      column.all_int = column.all_int && local[c].all_int;
      column.all_double = column.all_double && local[c].all_double;
    }
    if (column.any_value && column.all_int) {
      fields.push_back(Field::Numerical(names[c], ValueType::kInt64));
    } else if (column.any_value && column.all_double) {
      fields.push_back(Field::Numerical(names[c], ValueType::kDouble));
    } else {
      fields.push_back(Field::Discrete(names[c], ValueType::kString));
    }
  }
  return Schema::Make(std::move(fields));
}

}  // namespace privateclean
