#include "core/release.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "table/csv.h"
#include "table/dictionary.h"
#include "table/table_builder.h"

namespace privateclean {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestFile[] = "MANIFEST";
/// The relation as CSV: format v2 only. Format v3 stores one binary
/// segment per column instead (SegmentFileName).
constexpr char kDataFile[] = "data.csv";
constexpr char kMetaFile[] = "meta.csv";
/// First line of every MANIFEST; anything else is not a release manifest.
constexpr char kManifestMagic[] = "%PCLEAN-RELEASE";
/// The writer always produces format 3; readers also accept format 2.
constexpr int kFormatVersion = 3;
constexpr int kCsvFormatVersion = 2;
/// All CSV release files encode NULL distinctly from the empty string.
/// v2 data.csv historically used the writer's default (empty unquoted
/// field), which conflated a NULL string entry with "" on read; both
/// sides now pass the same literal. Reads stay backward compatible:
/// unquoted empty fields still parse as NULL under any null literal.
constexpr char kNullLiteral[] = "\\N";

CsvOptions ReleaseCsvOptions(const ExecutionOptions& exec = {}) {
  CsvOptions options;
  options.null_literal = kNullLiteral;
  options.exec = exec;
  return options;
}

/// Read-side options: pin parse errors to the file inside the release
/// and treat a missing final newline as truncation (every release file
/// ends with '\n' as written, so a torn tail is always detectable even
/// without the MANIFEST).
CsvOptions ReleaseReadOptions(CsvOptions base, const std::string& dir,
                              const std::string& name) {
  base.error_context = dir + "/" + name;
  base.require_trailing_newline = true;
  return base;
}

/// Fault-injection hook that leaves cleanup to the caller (the
/// PCLEAN_FAILPOINT macro returns directly, which would skip rollback).
Status HitSite(const char* site, const std::string& detail) {
#if defined(PCLEAN_FAILPOINTS_ENABLED)
  return failpoint::Hit(site, detail);
#else
  (void)site;
  (void)detail;
  return Status::OK();
#endif
}

Result<Schema> MetaSchema() {
  return Schema::Make(
      {Field::Discrete("attribute"), Field::Discrete("kind"),
       Field::Discrete("type"),
       Field::Numerical("param", ValueType::kDouble),
       Field::Numerical("sensitivity", ValueType::kDouble),
       Field::Numerical("domain_size", ValueType::kInt64)});
}

std::string DomainFileName(size_t index) {
  return "domain_" + std::to_string(index) + ".csv";
}

/// Dictionary file for the i-th discrete attribute (same counter as
/// DomainFileName): the writer's interned string values in code order.
/// Required in format v3, where segment codes index it directly. In v2
/// it is optional: releases written before dictionary files simply lack
/// the entries, and readers keep the CSV parse order.
std::string DictFileName(size_t index) {
  return "dict_" + std::to_string(index) + ".csv";
}

/// Format-v3 segment of the i-th column in schema order.
std::string SegmentFileName(size_t index) {
  return "column_" + std::to_string(index) + ".bin";
}

// --- Column segments (format v3) -------------------------------------------
//
// A segment is the column's dense payload followed by its validity
// bitmap, both little-endian:
//
//   rows x value   uint32_t dictionary codes (string), int64_t, or double
//   bitmap         ceil(rows / 8) bytes, bit r%8 of byte r/8 set iff row
//                  r is valid (LSB first); padding bits are zero
//
// A null row's value is canonical: kNullCode for strings, all-zero bytes
// for numbers. The decoder rejects any other encoding, so a relation
// has exactly one segment form and release bytes never depend on how
// the column was built.

/// Bytes per value in a segment.
size_t SegmentValueWidth(ValueType type) {
  return type == ValueType::kString ? sizeof(uint32_t) : sizeof(uint64_t);
}

/// Same-width unsigned integer carrying a value's bytes.
template <typename T>
using BitsOf = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;

template <typename T>
void StoreLittleEndian(char* dst, T value) {
  BitsOf<T> bits;
  std::memcpy(&bits, &value, sizeof bits);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &bits, sizeof bits);
  } else {
    for (size_t b = 0; b < sizeof bits; ++b) {
      dst[b] = static_cast<char>(bits >> (8 * b));
    }
  }
}

/// Decodes `values.size()` little-endian values from `src`.
template <typename T>
void LoadLittleEndian(const char* src, std::vector<T>* values) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values->data(), src, values->size() * sizeof(T));
  } else {
    for (size_t r = 0; r < values->size(); ++r) {
      BitsOf<T> bits = 0;
      for (size_t b = 0; b < sizeof bits; ++b) {
        bits |= static_cast<BitsOf<T>>(
                    static_cast<unsigned char>(src[r * sizeof(T) + b]))
                << (8 * b);
      }
      std::memcpy(&(*values)[r], &bits, sizeof bits);
    }
  }
}

/// Writes the payload of `values`, with `null_value` on null rows, and
/// sets the validity bits.
template <typename T>
void EncodeValues(const Column& column, const std::vector<T>& values,
                  T null_value, char* payload, char* bitmap) {
  for (size_t r = 0; r < values.size(); ++r) {
    const bool valid = !column.IsNull(r);
    StoreLittleEndian(payload + r * sizeof(T), valid ? values[r] : null_value);
    if (valid) bitmap[r >> 3] |= static_cast<char>(1u << (r & 7));
  }
}

std::string EncodeSegment(const Column& column) {
  const size_t rows = column.size();
  std::string out(rows * SegmentValueWidth(column.type()) + (rows + 7) / 8,
                  '\0');
  char* payload = out.data();
  char* bitmap = payload + rows * SegmentValueWidth(column.type());
  switch (column.type()) {
    case ValueType::kString:
      EncodeValues<uint32_t>(column, column.codes(), kNullCode, payload,
                             bitmap);
      break;
    case ValueType::kInt64:
      EncodeValues<int64_t>(column, column.ints(), 0, payload, bitmap);
      break;
    case ValueType::kDouble:
      EncodeValues<double>(column, column.doubles(), 0.0, payload, bitmap);
      break;
    case ValueType::kNull:
      break;  // Schema::Make rejects null-typed fields.
  }
  return out;
}

/// Decodes one checksum-verified segment and checks every constraint of
/// the format before adopting it. Each violation is DataLoss naming
/// `path` and the offending byte offset. `dictionary` (string columns
/// only) comes from `dict_path`, in code order.
Result<Column> DecodeSegment(const std::string& path, std::string_view bytes,
                             ValueType type, uint64_t rows,
                             std::vector<std::string_view> dictionary,
                             const std::string& dict_path) {
  const size_t width = SegmentValueWidth(type);
  // Every row takes at least `width` bytes, so rows > size() is already
  // a mismatch — and keeps rows * width from overflowing.
  const uint64_t expected =
      rows > bytes.size() ? UINT64_MAX : rows * width + (rows + 7) / 8;
  if (bytes.size() != expected) {
    return Status::DataLoss(
        "'" + path + "' is " + std::to_string(bytes.size()) +
        " bytes but " + std::to_string(rows) + " rows of " +
        ValueTypeToString(type) + " need " +
        (expected == UINT64_MAX ? std::string("more")
                                : std::to_string(expected)) +
        " (content diverges at byte " +
        std::to_string(std::min<uint64_t>(bytes.size(), expected)) + ")");
  }
  const size_t n = static_cast<size_t>(rows);
  const char* payload = bytes.data();
  const unsigned char* bitmap =
      reinterpret_cast<const unsigned char*>(payload + n * width);
  const size_t bitmap_offset = n * width;
  if (n % 8 != 0 && (bitmap[n / 8] >> (n % 8)) != 0) {
    return Status::DataLoss("'" + path + "' byte " +
                            std::to_string(bitmap_offset + n / 8) +
                            ": validity bitmap padding bits are not zero");
  }
  auto at_byte = [&](size_t r) {
    return "'" + path + "' byte " + std::to_string(r * width) + ": row " +
           std::to_string(r);
  };
  ColumnStorage storage;
  storage.validity.resize(n);
  for (size_t r = 0; r < n; ++r) {
    storage.validity[r] = (bitmap[r >> 3] >> (r & 7)) & 1;
  }
  const std::vector<uint8_t>& valid = storage.validity;
  if (type == ValueType::kString) {
    storage.codes.resize(n);
    LoadLittleEndian(payload, &storage.codes);
    const uint32_t dict_size = static_cast<uint32_t>(dictionary.size());
    for (size_t r = 0; r < n; ++r) {
      const uint32_t code = storage.codes[r];
      if (valid[r] == 0 && code != kNullCode) {
        return Status::DataLoss(at_byte(r) + " is null but holds code " +
                                std::to_string(code) +
                                " instead of the null code");
      }
      if (valid[r] != 0 && code == kNullCode) {
        return Status::DataLoss(at_byte(r) +
                                " holds the null code but its validity bit "
                                "is set");
      }
      if (valid[r] != 0 && code >= dict_size) {
        return Status::DataLoss(at_byte(r) + " has code " +
                                std::to_string(code) + " but '" + dict_path +
                                "' holds " + std::to_string(dict_size) +
                                " entries");
      }
    }
  } else {
    auto check_null_rows = [&](const auto& values) -> Status {
      for (size_t r = 0; r < n; ++r) {
        uint64_t value_bits;
        std::memcpy(&value_bits, &values[r], sizeof value_bits);
        if (valid[r] == 0 && value_bits != 0) {
          return Status::DataLoss(at_byte(r) +
                                  " is null but its value bytes are not "
                                  "zero");
        }
      }
      return Status::OK();
    };
    if (type == ValueType::kInt64) {
      storage.ints.resize(n);
      LoadLittleEndian(payload, &storage.ints);
      PCLEAN_RETURN_NOT_OK(check_null_rows(storage.ints));
    } else {
      storage.doubles.resize(n);
      LoadLittleEndian(payload, &storage.doubles);
      PCLEAN_RETURN_NOT_OK(check_null_rows(storage.doubles));
    }
  }
  storage.dictionary = std::move(dictionary);
  auto column = Column::Adopt(type, std::move(storage));
  if (!column.ok()) {
    return Status::DataLoss("'" + (dict_path.empty() ? path : dict_path) +
                            "': " + column.status().message());
  }
  return column;
}

std::string TypeName(ValueType type) { return ValueTypeToString(type); }

Result<ValueType> TypeFromName(const std::string& name) {
  if (name == "int64") return ValueType::kInt64;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::IOError("unknown type '" + name + "' in release metadata");
}

/// An ordered list of (file name, rendered bytes) — the entire release
/// payload held in memory, so validation failures never touch disk and
/// the MANIFEST can checksum exactly what will be written.
using RenderedFiles = std::vector<std::pair<std::string, std::string>>;

/// Renders every payload file of the release (everything except the
/// MANIFEST itself). Pure validation + serialization; no I/O. `exec`
/// encodes the column segments in parallel, one column per shard.
Result<RenderedFiles> RenderReleaseFiles(
    const Table& private_relation, const PrivateRelationMetadata& metadata,
    const ExecutionOptions& exec) {
  const size_t num_columns = private_relation.num_columns();
  std::vector<std::string> segments(num_columns);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      num_columns, num_columns, exec,
      [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          segments[i] = EncodeSegment(private_relation.column(i));
        }
        return Status::OK();
      }));
  RenderedFiles files;
  for (size_t i = 0; i < num_columns; ++i) {
    files.emplace_back(SegmentFileName(i), std::move(segments[i]));
  }

  // meta.csv: one row per attribute, in schema order so the analyst can
  // reconstruct the schema exactly.
  PCLEAN_ASSIGN_OR_RETURN(Schema meta_schema, MetaSchema());
  TableBuilder meta(meta_schema);
  const Schema& schema = private_relation.schema();
  size_t domain_index = 0;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    if (field.kind == AttributeKind::kDiscrete) {
      auto it = metadata.discrete.find(field.name);
      if (it == metadata.discrete.end()) {
        return Status::InvalidArgument(
            "metadata missing discrete attribute '" + field.name + "'");
      }
      meta.Row({Value(field.name), Value("discrete"),
                Value(TypeName(field.type)), Value(it->second.p),
                Value::Null(),
                Value(static_cast<int64_t>(it->second.domain.size()))});
      // Domain file: one typed column with the attribute's name.
      PCLEAN_ASSIGN_OR_RETURN(
          Schema domain_schema,
          Schema::Make({Field::Discrete(field.name, field.type)}));
      TableBuilder domain_table(domain_schema);
      for (const Value& v : it->second.domain.values()) {
        domain_table.Row({v});
      }
      PCLEAN_ASSIGN_OR_RETURN(Table dt, domain_table.Finish());
      files.emplace_back(DomainFileName(domain_index),
                         TableToCsv(dt, ReleaseCsvOptions()));
      // Dictionary file: the column's interned values in code order, so
      // a reader reconstructs the writer's exact code assignment (and
      // with it, byte-identical downstream query behavior).
      if (field.type == ValueType::kString) {
        const StringDictionary& dict = private_relation.column(i).dictionary();
        PCLEAN_ASSIGN_OR_RETURN(
            Schema dict_schema,
            Schema::Make({Field::Discrete(field.name, ValueType::kString)}));
        TableBuilder dict_table(dict_schema);
        for (uint32_t code = 0; code < dict.size(); ++code) {
          dict_table.Row({Value(std::string(dict.At(code)))});
        }
        PCLEAN_ASSIGN_OR_RETURN(Table dict_t, dict_table.Finish());
        files.emplace_back(DictFileName(domain_index),
                           TableToCsv(dict_t, ReleaseCsvOptions()));
      }
      ++domain_index;
    } else {
      auto it = metadata.numeric.find(field.name);
      if (it == metadata.numeric.end()) {
        return Status::InvalidArgument(
            "metadata missing numerical attribute '" + field.name + "'");
      }
      meta.Row({Value(field.name), Value("numeric"),
                Value(TypeName(field.type)), Value(it->second.b),
                Value(it->second.sensitivity), Value::Null()});
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(Table meta_table, meta.Finish());
  // meta.csv keeps the default CSV options (its nulls render as empty
  // fields), so its bytes are the same in every format version.
  files.emplace_back(kMetaFile, TableToCsv(meta_table, CsvOptions{}));
  return files;
}

/// Names in the MANIFEST's relation/column lines are free text in a
/// line-oriented format, so line-breaking bytes are backslash-escaped
/// ("\n", "\r", "\\"); everything else (spaces, commas, quotes) passes
/// through untouched.
std::string EscapeManifestName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeManifestName(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) {
      return Status::DataLoss("dangling escape in manifest name '" + text +
                              "'");
    }
    switch (text[++i]) {
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case '\\':
        out += '\\';
        break;
      default:
        return Status::DataLoss("unknown escape '\\" +
                                std::string(1, text[i]) +
                                "' in manifest name '" + text + "'");
    }
  }
  return out;
}

/// Renders the MANIFEST: magic, version, relation size, the mechanism
/// the relation was randomized under, the SQL relation name, the schema
/// ("column: <kind> <type> <name>" in schema order), one line per
/// payload file ("file: <crc32c> <bytes> <name>"), and a trailing
/// self-checksum over everything above it.
std::string RenderManifest(uint64_t rows, const MechanismSpec& mechanism,
                           const std::string& relation_name,
                           const Schema& schema, const RenderedFiles& files) {
  std::string out = kManifestMagic;
  out += "\nversion: ";
  out += std::to_string(kFormatVersion);
  out += "\nrows: ";
  out += std::to_string(rows);
  out += "\nmechanism: ";
  out += RenderMechanismSpec(mechanism);
  out += "\nrelation: ";
  out += EscapeManifestName(relation_name);
  out += '\n';
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    out += "column: ";
    out += field.kind == AttributeKind::kDiscrete ? "discrete" : "numeric";
    out += ' ';
    out += TypeName(field.type);
    out += ' ';
    out += EscapeManifestName(field.name);  // last: names may have spaces
    out += '\n';
  }
  for (const auto& [name, content] : files) {
    out += "file: ";
    out += io::Crc32cToHex(io::Crc32c(content));
    out += ' ';
    out += std::to_string(content.size());
    out += ' ';
    out += name;
    out += '\n';
  }
  // Self-checksum covers every byte above the trailer line.
  const uint32_t self_crc = io::Crc32c(out);
  out += "manifest_crc: ";
  out += io::Crc32cToHex(self_crc);
  out += '\n';
  return out;
}

struct ManifestEntry {
  std::string name;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// One `column:` schema line: the writer's view of a relation column,
/// cross-checked against meta.csv before the rows are decoded.
struct ManifestColumn {
  std::string kind;  ///< "discrete" | "numeric"
  std::string type;  ///< TypeName() spelling
  std::string name;
};

struct Manifest {
  /// 2 (relation in data.csv) or 3 (one segment per column).
  int version = kFormatVersion;
  uint64_t rows = 0;
  /// Defaults to the paper's GRR: a v2 manifest written before the
  /// mechanism zoo has no `mechanism:` line, and every such release was
  /// randomized by the only mechanism that existed then.
  MechanismSpec mechanism;
  /// The SQL name this release answers to in FROM clauses. Manifests
  /// written before the `relation:` line default to "r", the paper's
  /// private view R — the name every such release was queried under.
  std::string relation_name = "r";
  /// Schema carried by `column:` lines; empty for manifests written
  /// before the section existed (the legacy path skips the check).
  std::vector<ManifestColumn> columns;
  std::vector<ManifestEntry> files;
};

/// Parses and self-verifies a MANIFEST. Any structural damage —
/// including a failed self-checksum — is DataLoss naming `path`; a
/// version this reader does not know is FailedPrecondition.
Result<Manifest> ParseManifest(const std::string& text,
                               const std::string& path) {
  const std::string magic_line = std::string(kManifestMagic) + "\n";
  if (text.compare(0, magic_line.size(), magic_line) != 0) {
    return Status::DataLoss("'" + path +
                            "' is not a release manifest (bad magic)");
  }
  // The self-checksum line must be the LAST line, so nothing after it
  // escapes coverage.
  const std::string trailer_key = "manifest_crc: ";
  size_t trailer = text.rfind("\n" + trailer_key);
  if (trailer == std::string::npos) {
    return Status::DataLoss("'" + path +
                            "': missing manifest_crc trailer line");
  }
  trailer += 1;  // start of the trailer line
  const size_t hex_begin = trailer + trailer_key.size();
  const size_t hex_end = text.find('\n', hex_begin);
  if (hex_end == std::string::npos || hex_end + 1 != text.size()) {
    return Status::DataLoss(
        "'" + path + "': manifest_crc trailer is not the final line");
  }
  auto stored = io::Crc32cFromHex(
      std::string_view(text).substr(hex_begin, hex_end - hex_begin));
  if (!stored.ok()) {
    return Status::DataLoss("'" + path + "': " + stored.status().message());
  }
  const uint32_t computed = io::Crc32c(std::string_view(text).substr(0, trailer));
  if (computed != stored.ValueOrDie()) {
    return Status::DataLoss(
        "'" + path + "': manifest checksum mismatch (stored " +
        io::Crc32cToHex(stored.ValueOrDie()) + ", computed " +
        io::Crc32cToHex(computed) + ") — the manifest itself is corrupt");
  }

  // Body lines between the magic and the trailer.
  Manifest manifest;
  bool saw_version = false;
  bool saw_rows = false;
  size_t pos = magic_line.size();
  size_t line_no = 2;  // 1-based; the magic was line 1
  while (pos < trailer) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol > trailer) eol = trailer;
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    auto loc = [&] { return "'" + path + "' line " + std::to_string(line_no); };
    ++line_no;
    if (line.rfind("version: ", 0) == 0) {
      PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(line.substr(9)));
      if (v != kCsvFormatVersion && v != kFormatVersion) {
        return Status::FailedPrecondition(
            "'" + path + "' declares release format version " +
            std::to_string(v) + "; this reader supports versions " +
            std::to_string(kCsvFormatVersion) + " and " +
            std::to_string(kFormatVersion));
      }
      manifest.version = static_cast<int>(v);
      saw_version = true;
    } else if (line.rfind("rows: ", 0) == 0) {
      PCLEAN_ASSIGN_OR_RETURN(int64_t v, ParseInt64(line.substr(6)));
      if (v < 0) return Status::DataLoss(loc() + ": negative row count");
      manifest.rows = static_cast<uint64_t>(v);
      saw_rows = true;
    } else if (line.rfind("mechanism: ", 0) == 0) {
      PCLEAN_FAILPOINT("release.mechanism.parse", path);
      auto spec = ParseMechanismSpec(line.substr(11));
      if (!spec.ok()) {
        return Status::DataLoss(loc() + ": corrupt mechanism entry: " +
                                spec.status().message());
      }
      Status valid = ValidateMechanismSpec(spec.ValueOrDie());
      if (!valid.ok()) {
        // Unknown mechanism *name* is a capability gap of this reader
        // (FailedPrecondition, like an unknown format version); anything
        // else — bad parameters under a known name — is a damaged
        // manifest.
        if (valid.IsFailedPrecondition()) return valid;
        return Status::DataLoss(loc() + ": " + valid.message());
      }
      manifest.mechanism = std::move(spec).ValueOrDie();
    } else if (line.rfind("relation: ", 0) == 0) {
      auto name = UnescapeManifestName(line.substr(10));
      if (!name.ok()) {
        return Status::DataLoss(loc() + ": " + name.status().message());
      }
      manifest.relation_name = std::move(name).ValueOrDie();
      if (manifest.relation_name.empty()) {
        return Status::DataLoss(loc() + ": empty relation name");
      }
    } else if (line.rfind("column: ", 0) == 0) {
      // "column: <kind> <type> <name>" — name last, may contain spaces.
      const std::string body = line.substr(8);
      const size_t sp1 = body.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? std::string::npos : body.find(' ', sp1 + 1);
      if (sp2 == std::string::npos || sp2 + 1 >= body.size()) {
        return Status::DataLoss(loc() + ": malformed column entry '" + line +
                                "'");
      }
      ManifestColumn column;
      column.kind = body.substr(0, sp1);
      column.type = body.substr(sp1 + 1, sp2 - sp1 - 1);
      auto name = UnescapeManifestName(body.substr(sp2 + 1));
      if (!name.ok()) {
        return Status::DataLoss(loc() + ": " + name.status().message());
      }
      column.name = std::move(name).ValueOrDie();
      if (column.kind != "discrete" && column.kind != "numeric") {
        return Status::DataLoss(loc() + ": unknown column kind '" +
                                column.kind + "'");
      }
      manifest.columns.push_back(std::move(column));
    } else if (line.rfind("file: ", 0) == 0) {
      // "file: <crc8hex> <bytes> <name>"
      const std::string body = line.substr(6);
      const size_t sp1 = body.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? std::string::npos : body.find(' ', sp1 + 1);
      if (sp2 == std::string::npos || sp2 + 1 >= body.size()) {
        return Status::DataLoss(loc() + ": malformed file entry '" + line +
                                "'");
      }
      ManifestEntry entry;
      auto crc = io::Crc32cFromHex(std::string_view(body).substr(0, sp1));
      if (!crc.ok()) {
        return Status::DataLoss(loc() + ": " + crc.status().message());
      }
      entry.crc = crc.ValueOrDie();
      auto bytes = ParseInt64(body.substr(sp1 + 1, sp2 - sp1 - 1));
      if (!bytes.ok() || bytes.ValueOrDie() < 0) {
        return Status::DataLoss(loc() + ": malformed byte length in '" +
                                line + "'");
      }
      entry.bytes = static_cast<uint64_t>(bytes.ValueOrDie());
      entry.name = body.substr(sp2 + 1);
      if (entry.name.empty() || entry.name.find('/') != std::string::npos ||
          entry.name == "..") {
        return Status::DataLoss(loc() + ": invalid file name '" + entry.name +
                                "'");
      }
      manifest.files.push_back(std::move(entry));
    } else {
      return Status::DataLoss(loc() + ": unrecognized manifest line '" + line +
                              "'");
    }
  }
  if (!saw_version || !saw_rows || manifest.files.empty()) {
    return Status::DataLoss("'" + path +
                            "': manifest is missing version, rows, or file "
                            "entries");
  }
  return manifest;
}

/// Reads one MANIFEST-listed file and verifies its length and CRC32C.
/// On success `*content` holds the verified bytes.
Status FetchAndCheck(const std::string& dir, const ManifestEntry& entry,
                     std::string* content) {
  const std::string path = dir + "/" + entry.name;
  auto read = io::ReadFileWithRetry(path);
  if (!read.ok()) {
    if (read.status().IsNotFound()) {
      return Status::DataLoss("'" + path +
                              "' is listed in the MANIFEST but missing");
    }
    return read.status();
  }
  std::string bytes = std::move(read).ValueOrDie();
  if (bytes.size() != entry.bytes) {
    return Status::DataLoss(
        "'" + path + "' is " + std::to_string(bytes.size()) +
        " bytes but the MANIFEST records " + std::to_string(entry.bytes) +
        " (content diverges at byte " +
        std::to_string(std::min<uint64_t>(bytes.size(), entry.bytes)) +
        "; truncated or torn write)");
  }
  const uint32_t crc = io::Crc32c(bytes);
  if (crc != entry.crc) {
    return Status::DataLoss("'" + path + "': checksum mismatch (stored " +
                            io::Crc32cToHex(entry.crc) + ", computed " +
                            io::Crc32cToHex(crc) + ") over " +
                            std::to_string(bytes.size()) +
                            " bytes — file content is corrupt");
  }
  *content = std::move(bytes);
  return Status::OK();
}

/// A parsed MANIFEST and the checksum-verified bytes of its payload
/// files: the single input of the decode step. ReadRelease and
/// VerifyRelease fill it with one read+CRC pass over each file.
struct VerifiedRelease {
  std::string dir;
  Manifest manifest;
  std::map<std::string, std::string> files;

  bool Has(const std::string& name) const { return files.count(name) > 0; }

  /// Moves a file's verified bytes out (each file is decoded once, and
  /// its buffer is freed as soon as that is done).
  Result<std::string> Take(const std::string& name) {
    auto it = files.find(name);
    if (it == files.end()) {
      return Status::DataLoss("'" + dir + "/" + name +
                              "' is referenced by the release but not "
                              "listed in the MANIFEST");
    }
    std::string bytes = std::move(it->second);
    files.erase(it);
    return bytes;
  }
};

/// Everything meta.csv and the domain files describe: the relation's
/// schema and mechanism metadata, but not its rows.
struct ReleaseLayout {
  Schema schema;
  PrivateRelationMetadata metadata;
  /// dict_<i>.csv name per schema column; empty for non-string columns.
  std::vector<std::string> dict_files;
};

/// Decodes meta.csv and the domain files. Every discrete attribute's
/// meta.csv `param` is bound through the MANIFEST's mechanism family,
/// so a parameter the family rejects surfaces as DataLoss naming
/// meta.csv. The MANIFEST `column:` lines, when present, must agree
/// with the resulting schema.
Result<ReleaseLayout> DecodeLayout(VerifiedRelease& release,
                                   const ExecutionOptions& exec) {
  const std::string& dir = release.dir;
  const MechanismSpec& mechanism = release.manifest.mechanism;
  PCLEAN_ASSIGN_OR_RETURN(Schema meta_schema, MetaSchema());
  PCLEAN_ASSIGN_OR_RETURN(std::string meta_text, release.Take(kMetaFile));
  PCLEAN_ASSIGN_OR_RETURN(
      Table meta, CsvToTable(meta_text, meta_schema,
                             ReleaseReadOptions(CsvOptions{}, dir, kMetaFile)));
  if (meta.num_rows() == 0) {
    return Status::DataLoss("'" + dir + "/" + kMetaFile +
                            "': release metadata is empty");
  }

  // Reconstruct the data schema and the metadata maps.
  std::vector<Field> fields;
  ReleaseLayout layout;
  size_t domain_index = 0;
  for (size_t r = 0; r < meta.num_rows(); ++r) {
    std::string name(meta.column(0).StringAt(r));
    std::string kind(meta.column(1).StringAt(r));
    PCLEAN_ASSIGN_OR_RETURN(
        ValueType type,
        TypeFromName(std::string(meta.column(2).StringAt(r))));
    if (meta.column(3).IsNull(r)) {
      return Status::IOError("attribute '" + name +
                             "' missing its mechanism parameter");
    }
    double param = meta.column(3).DoubleAt(r);
    if (kind == "discrete") {
      fields.push_back(Field{name, type, AttributeKind::kDiscrete});
      layout.dict_files.push_back(
          type == ValueType::kString ? DictFileName(domain_index) : "");
      PCLEAN_ASSIGN_OR_RETURN(
          Schema domain_schema,
          Schema::Make({Field::Discrete(name, type)}));
      const std::string domain_file = DomainFileName(domain_index);
      PCLEAN_ASSIGN_OR_RETURN(std::string domain_text,
                              release.Take(domain_file));
      PCLEAN_ASSIGN_OR_RETURN(
          Table domain_table,
          CsvToTable(domain_text, domain_schema,
                     ReleaseReadOptions(ReleaseCsvOptions(exec), dir,
                                        domain_file)));
      ++domain_index;
      std::vector<Value> values;
      values.reserve(domain_table.num_rows());
      for (size_t i = 0; i < domain_table.num_rows(); ++i) {
        values.push_back(domain_table.column(0).ValueAt(i));
      }
      Domain domain = Domain::FromValues(values);
      if (!meta.column(5).IsNull(r) &&
          domain.size() !=
              static_cast<size_t>(meta.column(5).Int64At(r))) {
        return Status::DataLoss(
            "'" + dir + "/" + domain_file + "' holds " +
            std::to_string(domain.size()) + " values but '" + name +
            "' records a domain of " +
            std::to_string(meta.column(5).Int64At(r)));
      }
      auto bound = MakeMechanism(mechanism, param);
      if (!bound.ok()) {
        return Status::DataLoss("'" + dir + "/" + kMetaFile +
                                "': attribute '" + name + "': " +
                                bound.status().message());
      }
      layout.metadata.discrete.emplace(
          name, DiscreteAttributeMeta{param, std::move(domain),
                                      std::move(bound).ValueOrDie()});
    } else if (kind == "numeric") {
      if (type == ValueType::kString) {
        return Status::IOError("numeric attribute '" + name +
                               "' cannot be string-typed");
      }
      fields.push_back(Field{name, type, AttributeKind::kNumerical});
      layout.dict_files.push_back("");
      double sensitivity =
          meta.column(4).IsNull(r) ? 0.0 : meta.column(4).DoubleAt(r);
      layout.metadata.numeric.emplace(
          name, NumericAttributeMeta{param, sensitivity});
    } else {
      return Status::IOError("unknown attribute kind '" + kind + "'");
    }
  }
  PCLEAN_ASSIGN_OR_RETURN(layout.schema, Schema::Make(std::move(fields)));
  // Cross-check the MANIFEST-carried schema against meta.csv BEFORE the
  // rows are decoded: a writer/reader disagreement about what the
  // relation holds must fail with the offending column named, not as a
  // downstream decode error on some row.
  const std::vector<ManifestColumn>& expected = release.manifest.columns;
  const Schema& schema = layout.schema;
  if (!expected.empty()) {
    if (expected.size() != schema.num_fields()) {
      return Status::FailedPrecondition(
          "'" + dir + "': MANIFEST declares " +
          std::to_string(expected.size()) + " columns but meta.csv yields " +
          std::to_string(schema.num_fields()));
    }
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      const Field& field = schema.field(i);
      const ManifestColumn& want = expected[i];
      const std::string got_kind =
          field.kind == AttributeKind::kDiscrete ? "discrete" : "numeric";
      if (field.name != want.name || got_kind != want.kind ||
          TypeName(field.type) != want.type) {
        return Status::FailedPrecondition(
            "'" + dir + "': column " + std::to_string(i) +
            " mismatch between MANIFEST and meta.csv: MANIFEST declares '" +
            want.name + "' (" + want.kind + " " + want.type +
            ") but meta.csv yields '" + field.name + "' (" + got_kind + " " +
            TypeName(field.type) + ")");
      }
    }
  }
  return layout;
}

/// Parses a dict_<i>.csv file into its entries in code order. The
/// entries view into `*table`, which must outlive them.
Result<std::vector<std::string_view>> DecodeDictionary(
    VerifiedRelease& release, const std::string& dict_file,
    const std::string& attribute, const ExecutionOptions& exec,
    Table* table) {
  PCLEAN_ASSIGN_OR_RETURN(std::string text, release.Take(dict_file));
  PCLEAN_ASSIGN_OR_RETURN(
      Schema dict_schema,
      Schema::Make({Field::Discrete(attribute, ValueType::kString)}));
  PCLEAN_ASSIGN_OR_RETURN(
      *table, CsvToTable(text, dict_schema,
                         ReleaseReadOptions(ReleaseCsvOptions(exec),
                                            release.dir, dict_file)));
  std::vector<std::string_view> entries;
  entries.reserve(table->num_rows());
  for (size_t i = 0; i < table->num_rows(); ++i) {
    if (table->column(0).IsNull(i)) {
      return Status::DataLoss("'" + release.dir + "/" + dict_file +
                              "' row " + std::to_string(i) +
                              ": dictionary entries cannot be NULL");
    }
    entries.push_back(table->column(0).StringAt(i));
  }
  return entries;
}

/// Format v2: the relation is data.csv. Each string column's code order
/// is then restored from its dict file. An absent dict file (a release
/// written before dictionary files existed) keeps the parse order; a
/// present but inconsistent one is DataLoss.
Result<Table> DecodeCsvRelation(VerifiedRelease& release,
                                const ReleaseLayout& layout,
                                const ExecutionOptions& exec) {
  const std::string& dir = release.dir;
  PCLEAN_ASSIGN_OR_RETURN(std::string data_text, release.Take(kDataFile));
  PCLEAN_ASSIGN_OR_RETURN(
      Table relation,
      CsvToTable(data_text, layout.schema,
                 ReleaseReadOptions(ReleaseCsvOptions(exec), dir, kDataFile)));
  for (size_t i = 0; i < layout.dict_files.size(); ++i) {
    const std::string& dict_file = layout.dict_files[i];
    if (dict_file.empty() || !release.Has(dict_file)) continue;
    Table dict_table;
    PCLEAN_ASSIGN_OR_RETURN(
        std::vector<std::string_view> entries,
        DecodeDictionary(release, dict_file, layout.schema.field(i).name,
                         exec, &dict_table));
    Status rebind = relation.mutable_column(i)->RebindDictionary(entries);
    if (!rebind.ok()) {
      return Status::DataLoss("'" + dir + "/" + dict_file + "': " +
                              rebind.message());
    }
  }
  if (relation.num_rows() != release.manifest.rows) {
    return Status::DataLoss(
        "'" + dir + "/" + kDataFile + "' parsed to " +
        std::to_string(relation.num_rows()) +
        " rows but the MANIFEST records " +
        std::to_string(release.manifest.rows));
  }
  return relation;
}

/// Format v3: one segment per column, adopted as the column's storage.
/// String columns take their dictionary from the (required) dict file.
/// `exec` decodes the columns in parallel, one column per shard.
Result<Table> DecodeSegmentRelation(VerifiedRelease& release,
                                    const ReleaseLayout& layout,
                                    const ExecutionOptions& exec) {
  const size_t num_columns = layout.schema.num_fields();
  // Claim every file up front (serially: Take mutates the map).
  std::vector<std::string> segments(num_columns);
  std::vector<Table> dict_tables(num_columns);
  std::vector<std::vector<std::string_view>> dictionaries(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    PCLEAN_ASSIGN_OR_RETURN(segments[i], release.Take(SegmentFileName(i)));
    if (!layout.dict_files[i].empty()) {
      PCLEAN_ASSIGN_OR_RETURN(
          dictionaries[i],
          DecodeDictionary(release, layout.dict_files[i],
                           layout.schema.field(i).name, exec,
                           &dict_tables[i]));
    }
  }
  std::vector<std::optional<Column>> decoded(num_columns);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      num_columns, num_columns, exec,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const std::string& dict_file = layout.dict_files[i];
          PCLEAN_ASSIGN_OR_RETURN(
              decoded[i],
              DecodeSegment(release.dir + "/" + SegmentFileName(i),
                            segments[i], layout.schema.field(i).type,
                            release.manifest.rows, std::move(dictionaries[i]),
                            dict_file.empty() ? ""
                                              : release.dir + "/" + dict_file));
          std::string().swap(segments[i]);  // Free the bytes early.
        }
        return Status::OK();
      }));
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (std::optional<Column>& column : decoded) {
    columns.push_back(std::move(*column));
  }
  return Table::Make(layout.schema, std::move(columns));
}

/// The decode step shared by ReadRelease and VerifyRelease: verified
/// bytes in, LoadedRelease out.
Result<LoadedRelease> DecodeRelease(VerifiedRelease& release,
                                    const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(ReleaseLayout layout, DecodeLayout(release, exec));
  LoadedRelease loaded;
  if (release.manifest.version == kCsvFormatVersion) {
    PCLEAN_ASSIGN_OR_RETURN(loaded.relation,
                            DecodeCsvRelation(release, layout, exec));
  } else {
    PCLEAN_ASSIGN_OR_RETURN(loaded.relation,
                            DecodeSegmentRelation(release, layout, exec));
  }
  loaded.metadata = std::move(layout.metadata);
  loaded.metadata.dataset_size = loaded.relation.num_rows();
  loaded.metadata.mechanism_spec = release.manifest.mechanism;
  loaded.metadata.relation_name = release.manifest.relation_name;
  loaded.format_version = release.manifest.version;
  loaded.verified = true;
  return loaded;
}

/// Reads and parses `dir`'s MANIFEST. A directory without one is
/// NotFound, or FailedPrecondition when it looks like a pre-manifest
/// (v1) release: such a release has no checksums to verify, and
/// accepting it would let a deleted MANIFEST silently downgrade a
/// checksummed release to an unchecked one.
Result<VerifiedRelease> LoadManifest(const std::string& dir) {
  const std::string manifest_path = dir + "/" + kManifestFile;
  auto manifest_text = io::ReadFileWithRetry(manifest_path);
  if (!manifest_text.ok()) {
    if (!manifest_text.status().IsNotFound()) return manifest_text.status();
    std::error_code ec;
    if (fs::exists(dir + "/" + kMetaFile, ec)) {
      return Status::FailedPrecondition(
          "'" + dir +
          "' is an unverified pre-manifest (v1) release: it has no "
          "checksums to verify, and this reader only opens manifest "
          "releases (format 2 or 3); re-privatize the source data to "
          "write a current release");
    }
    if (!fs::exists(dir, ec)) {
      return Status::NotFound("no release at '" + dir + "'");
    }
    return Status::NotFound("'" + dir +
                            "' contains no release (no MANIFEST or "
                            "meta.csv)");
  }
  VerifiedRelease release;
  release.dir = dir;
  PCLEAN_ASSIGN_OR_RETURN(
      release.manifest,
      ParseManifest(manifest_text.ValueOrDie(), manifest_path));
  return release;
}

/// Monotonic suffix so concurrent writers in one process never collide
/// on the same temporary/backup sibling.
std::string UniqueSuffix() {
  static std::atomic<uint64_t> counter{0};
  return std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1));
}

/// Removes a directory tree unless disarmed — every early-error return
/// from the commit sequence cleans up its temporary directory.
struct RemoveOnFailure {
  std::string path;
  bool armed = true;
  ~RemoveOnFailure() {
    if (armed) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

/// True when `dir` may be replaced by an atomic swap: an empty
/// directory, or one holding a release (manifest or pre-manifest).
bool IsReplaceableDir(const std::string& dir) {
  std::error_code ec;
  if (fs::exists(dir + "/" + kManifestFile, ec)) return true;
  if (fs::exists(dir + "/" + kMetaFile, ec)) return true;
  return fs::is_empty(dir, ec) && !ec;
}

}  // namespace

Status WriteRelease(const Table& private_relation,
                    const PrivateRelationMetadata& metadata,
                    const std::string& dir, const ExecutionOptions& exec) {
  // Render the entire release in memory first: validation failures
  // (missing metadata, bad schema) touch nothing on disk. The mechanism
  // spec is validated before anything renders — an unknown family or a
  // malformed parameter block must never be persisted.
  PCLEAN_RETURN_NOT_OK(ValidateMechanismSpec(metadata.mechanism_spec));
  PCLEAN_ASSIGN_OR_RETURN(
      RenderedFiles files,
      RenderReleaseFiles(private_relation, metadata, exec));
  PCLEAN_FAILPOINT("release.mechanism.render", dir);
  // An unnamed relation publishes under "r", the paper's private view R
  // — the name every pre-`relation:` release answered to.
  const std::string relation_name =
      metadata.relation_name.empty() ? "r" : metadata.relation_name;
  files.emplace_back(
      kManifestFile,
      RenderManifest(private_relation.num_rows(), metadata.mechanism_spec,
                     relation_name, private_relation.schema(), files));

  const fs::path target(dir);
  const fs::path parent =
      target.parent_path().empty() ? fs::path(".") : target.parent_path();
  std::error_code ec;
  fs::create_directories(parent, ec);
  if (ec) {
    return Status::IOError("cannot create parent directory for '" + dir +
                           "': " + ec.message());
  }

  // Stage into a temporary sibling (same filesystem, so the commit
  // rename is atomic), then swap it in.
  const std::string suffix = UniqueSuffix();
  const std::string tmp = dir + ".tmp." + suffix;
  RemoveOnFailure tmp_guard{tmp};
  fs::create_directory(tmp, ec);
  if (ec) {
    return Status::IOError("cannot create staging directory '" + tmp +
                           "': " + ec.message());
  }
  for (const auto& [name, content] : files) {
    PCLEAN_RETURN_NOT_OK(io::WriteFileDurable(tmp + "/" + name, content));
  }
  PCLEAN_RETURN_NOT_OK(io::FsyncDir(tmp));

  // Commit. A fresh target is a single rename; an existing one is
  // backed up first so a failed swap restores it.
  const bool exists = fs::exists(target, ec);
  if (exists) {
    if (!fs::is_directory(target, ec)) {
      return Status::AlreadyExists("'" + dir +
                                   "' exists and is not a directory");
    }
    if (!IsReplaceableDir(dir)) {
      return Status::AlreadyExists(
          "'" + dir +
          "' exists and is not a release directory (no MANIFEST or "
          "meta.csv); refusing to replace it");
    }
    const std::string backup = dir + ".old." + suffix;
    PCLEAN_RETURN_NOT_OK(HitSite("release.swap.backup", dir));
    fs::rename(target, backup, ec);
    if (ec) {
      return Status::IOError("cannot move existing release '" + dir +
                             "' aside: " + ec.message());
    }
    // Crash window: the target is momentarily absent. The torn-commit
    // failpoint stops here, exactly as a crash between the two renames
    // would — readers then see a typed NotFound, never a half release.
    Status torn = HitSite("release.commit.torn", dir);
    if (!torn.ok()) {
      tmp_guard.armed = false;
      return torn;
    }
    Status fault = HitSite("release.commit.rename", dir);
    ec.clear();
    if (fault.ok()) fs::rename(tmp, target, ec);
    if (!fault.ok() || ec) {
      // Roll the original release back into place (best effort — if
      // this rename also fails the backup still holds it intact).
      std::error_code rollback;
      fs::rename(backup, target, rollback);
      if (!fault.ok()) return fault;
      return Status::IOError("cannot commit release to '" + dir +
                             "': " + ec.message());
    }
    tmp_guard.armed = false;
    fs::remove_all(backup, ec);  // best effort; the release is committed
  } else {
    PCLEAN_RETURN_NOT_OK(HitSite("release.commit.rename", dir));
    fs::rename(tmp, target, ec);
    if (ec) {
      return Status::IOError("cannot commit release to '" + dir +
                             "': " + ec.message());
    }
    tmp_guard.armed = false;
  }
  // The renames are durable only once the parent directory is synced.
  return io::FsyncDir(parent.string());
}

Status WriteRelease(const GrrOutput& grr, const std::string& dir,
                    const ExecutionOptions& exec) {
  return WriteRelease(grr.table, grr.metadata, dir, exec);
}

Result<LoadedRelease> ReadRelease(const std::string& dir,
                                  const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(VerifiedRelease release, LoadManifest(dir));
  // Read and checksum every listed file up front; decoding only ever
  // sees verified bytes.
  for (const ManifestEntry& entry : release.manifest.files) {
    std::string content;
    PCLEAN_RETURN_NOT_OK(FetchAndCheck(dir, entry, &content));
    release.files.emplace(entry.name, std::move(content));
  }
  return DecodeRelease(release, exec);
}

Result<PrivateTable> OpenRelease(const std::string& dir,
                                 const ExecutionOptions& exec) {
  PCLEAN_ASSIGN_OR_RETURN(LoadedRelease release, ReadRelease(dir, exec));
  // Injection point between the verified read and the queryable table:
  // a fault here models the analyst-side open failing after the bytes
  // were already fetched intact.
  PCLEAN_FAILPOINT("release.open.relation", dir);
  return PrivateTable::FromPrivateRelation(std::move(release.relation),
                                           std::move(release.metadata));
}

Result<ReleaseVerification> VerifyRelease(const std::string& dir) {
  PCLEAN_ASSIGN_OR_RETURN(VerifiedRelease release, LoadManifest(dir));
  ReleaseVerification verification;
  verification.format_version = release.manifest.version;
  verification.rows = release.manifest.rows;
  for (const ManifestEntry& entry : release.manifest.files) {
    std::string content;
    ReleaseFileCheck check;
    check.file = entry.name;
    check.bytes = entry.bytes;
    check.status = FetchAndCheck(dir, entry, &content);
    if (check.status.ok()) {
      release.files.emplace(entry.name, std::move(content));
    } else if (verification.status.ok()) {
      verification.status = check.status;
    }
    verification.files.push_back(std::move(check));
  }
  if (verification.status.ok()) {
    // Checksums passing still leaves semantic damage (a writer bug or a
    // collision); decoding the bytes just verified is the final gate.
    auto loaded = DecodeRelease(release, ExecutionOptions{});
    if (!loaded.ok()) verification.status = loaded.status();
  }
  return verification;
}

std::string ReleaseRelationToCsv(const Table& relation,
                                 const ExecutionOptions& exec) {
  return TableToCsv(relation, ReleaseCsvOptions(exec));
}

}  // namespace privateclean
