// Release serialization fuzz: random schemas (weird attribute names,
// mixed types, null-heavy columns) must survive the
// privatize → WriteRelease → OpenRelease round trip with identical
// relations, metadata, and query results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/io_util.h"
#include "common/random.h"
#include "core/privateclean.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

/// Builds a random schema: 1-3 discrete attributes (string or int64) and
/// 0-2 numerical ones, with adversarial names.
Schema RandomSchema(Rng& rng) {
  const char* name_pool[] = {
      "plain",       "with space",   "comma,name",  "quote\"name",
      "newline\nname", "unicode_\xC3\xA9", "UPPER",  "_underscore",
      "123start",    "semi;colon"};
  std::vector<Field> fields;
  std::vector<size_t> name_indices(10);
  for (size_t i = 0; i < 10; ++i) name_indices[i] = i;
  rng.Shuffle(name_indices);
  size_t next_name = 0;
  size_t num_discrete = 1 + rng.UniformInt(3);
  for (size_t i = 0; i < num_discrete; ++i) {
    ValueType type =
        rng.Bernoulli(0.3) ? ValueType::kInt64 : ValueType::kString;
    fields.push_back(Field{name_pool[name_indices[next_name++]], type,
                           AttributeKind::kDiscrete});
  }
  size_t num_numeric = rng.UniformInt(3);
  for (size_t i = 0; i < num_numeric; ++i) {
    ValueType type =
        rng.Bernoulli(0.5) ? ValueType::kInt64 : ValueType::kDouble;
    fields.push_back(Field{name_pool[name_indices[next_name++]], type,
                           AttributeKind::kNumerical});
  }
  return *Schema::Make(std::move(fields));
}

Value RandomCell(const Field& field, Rng& rng) {
  if (rng.Bernoulli(0.1)) return Value::Null();
  switch (field.type) {
    case ValueType::kInt64:
      return Value(rng.UniformIntRange(-5, 5));
    case ValueType::kDouble:
      return Value(rng.UniformRealRange(-100.0, 100.0));
    default: {
      const char* values[] = {"alpha", "be,ta", "ga\"mma", "del\nta",
                              " lead", "trail ", "\\N", "x"};
      return Value(values[rng.UniformInt(8)]);
    }
  }
}

TEST(ReleaseFuzzTest, RandomSchemasRoundTrip) {
  std::string base = ::testing::TempDir() + "/pclean_release_fuzz";
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(1000 + trial);
    Schema schema = RandomSchema(rng);
    TableBuilder b(schema);
    size_t rows = 20 + rng.UniformInt(80);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        row.push_back(RandomCell(schema.field(c), rng));
      }
      b.Row(std::move(row));
    }
    auto table_result = b.Finish();
    ASSERT_TRUE(table_result.ok());
    Table original = std::move(table_result).ValueOrDie();

    // Numerical columns that are entirely null have no sensitivity; GRR
    // rejects them. Skip those rare draws.
    bool skip = false;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (schema.field(c).kind == AttributeKind::kNumerical &&
          original.column(c).null_count() == original.column(c).size()) {
        skip = true;
      }
    }
    if (skip) continue;

    GrrOptions options;
    options.ensure_domain_preserved = false;  // Tiny random tables.
    auto grr = ApplyGrr(original, GrrParams::Uniform(0.2, 1.0), options,
                        rng);
    ASSERT_TRUE(grr.ok()) << grr.status().ToString();

    std::string dir = base + "_" + std::to_string(trial);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(WriteRelease(*grr, dir).ok());
    auto loaded = ReadRelease(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // Relation identical cell by cell.
    ASSERT_TRUE(loaded->relation.schema() == grr->table.schema());
    ASSERT_EQ(loaded->relation.num_rows(), grr->table.num_rows());
    for (size_t r = 0; r < grr->table.num_rows(); ++r) {
      for (size_t c = 0; c < grr->table.num_columns(); ++c) {
        ASSERT_EQ(loaded->relation.column(c).ValueAt(r),
                  grr->table.column(c).ValueAt(r))
            << "row " << r << " col " << c;
      }
    }
    // Domains identical, order included.
    for (const auto& [name, meta] : grr->metadata.discrete) {
      const auto& loaded_meta = loaded->metadata.discrete.at(name);
      ASSERT_EQ(loaded_meta.domain.size(), meta.domain.size()) << name;
      for (size_t i = 0; i < meta.domain.size(); ++i) {
        ASSERT_EQ(loaded_meta.domain.value(i), meta.domain.value(i))
            << name << " domain index " << i;
      }
    }
    // Query estimates identical through the loaded table.
    auto pt_orig = PrivateTable::FromPrivateRelation(grr->table.Clone(),
                                                     grr->metadata);
    auto pt_loaded = OpenRelease(dir);
    ASSERT_TRUE(pt_orig.ok());
    ASSERT_TRUE(pt_loaded.ok());
    const Field& first = schema.field(0);
    const Domain& domain =
        grr->metadata.discrete.at(first.name).domain;
    Predicate pred = Predicate::Equals(first.name, domain.value(0));
    auto r_orig = pt_orig->Execute(AggregateQuery::Count(pred));
    auto r_loaded = pt_loaded->Execute(AggregateQuery::Count(pred));
    ASSERT_TRUE(r_orig.ok());
    ASSERT_TRUE(r_loaded.ok());
    EXPECT_DOUBLE_EQ(r_orig->estimate, r_loaded->estimate);
    std::filesystem::remove_all(dir);
  }
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

/// Metadata covering every attribute of `table` (the round trip only
/// needs the schema and domains; no mechanism is applied).
PrivateRelationMetadata CoveringMetadata(const Table& table) {
  PrivateRelationMetadata metadata;
  metadata.dataset_size = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (field.kind == AttributeKind::kDiscrete) {
      Domain domain = *Domain::FromColumn(table, field.name,
                                          /*include_null=*/true);
      metadata.discrete.emplace(field.name,
                                DiscreteAttributeMeta{0.2, domain, nullptr});
    } else {
      metadata.numeric.emplace(field.name, NumericAttributeMeta{1.0, 10.0});
    }
  }
  return metadata;
}

TEST(ReleaseFuzzTest, ParallelReleaseRoundTripMatchesSerial) {
  // The parallel segment encoder/decoder must put the same bytes on disk
  // and read back the same relation as the serial one — including null
  // rows and the \N literal as a value — for random adversarial schemas
  // and null-heavy columns.
  std::string base = ::testing::TempDir() + "/pclean_release_par";
  ExecutionOptions exec8;
  exec8.num_threads = 8;
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(3000 + trial);
    Schema schema = RandomSchema(rng);
    TableBuilder b(schema);
    size_t rows = 20 + rng.UniformInt(80);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        row.push_back(RandomCell(schema.field(c), rng));
      }
      b.Row(std::move(row));
    }
    Table original = *b.Finish();

    std::string dir_serial = base + "_s_" + std::to_string(trial);
    std::string dir_parallel = base + "_p_" + std::to_string(trial);
    std::filesystem::remove_all(dir_serial);
    std::filesystem::remove_all(dir_parallel);

    // Write the raw table as a release relation.
    PrivateRelationMetadata metadata = CoveringMetadata(original);
    ASSERT_TRUE(WriteRelease(original, metadata, dir_serial).ok());
    ASSERT_TRUE(WriteRelease(original, metadata, dir_parallel, exec8).ok());

    // Identical bytes on disk: every column segment, and every other file.
    size_t segments = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_serial)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(Slurp(dir_parallel + "/" + name), Slurp(entry.path()))
          << name;
      if (name.rfind("column_", 0) == 0) ++segments;
    }
    EXPECT_EQ(segments, schema.num_fields());

    // Identical relations back, in all four write/read combinations.
    auto serial_serial = ReadRelease(dir_serial);
    auto serial_parallel = ReadRelease(dir_serial, exec8);
    auto parallel_parallel = ReadRelease(dir_parallel, exec8);
    ASSERT_TRUE(serial_serial.ok()) << serial_serial.status().ToString();
    ASSERT_TRUE(serial_parallel.ok());
    ASSERT_TRUE(parallel_parallel.ok());
    for (const auto* loaded :
         {&*serial_serial, &*serial_parallel, &*parallel_parallel}) {
      ASSERT_TRUE(loaded->relation.schema() == original.schema());
      ASSERT_EQ(loaded->relation.num_rows(), original.num_rows());
      for (size_t r = 0; r < original.num_rows(); ++r) {
        for (size_t c = 0; c < original.num_columns(); ++c) {
          ASSERT_EQ(loaded->relation.column(c).ValueAt(r),
                    original.column(c).ValueAt(r))
              << "row " << r << " col " << c;
        }
      }
    }
    std::filesystem::remove_all(dir_serial);
    std::filesystem::remove_all(dir_parallel);
  }
}

TEST(ReleaseFuzzTest, ByteLevelCorruptionNeverPassesUnnoticed) {
  // Random byte-level damage — bit flips, truncations, byte-range
  // deletions, whole-file deletion — applied to a pristine release.
  // Every damaged copy must either fail typed (DataLoss / NotFound /
  // FailedPrecondition / IOError) or load the exact original relation;
  // an OK load with different data, or a crash, is a contract breach.
  // VerifyRelease must flag every damaged copy.
  std::string base = ::testing::TempDir() + "/pclean_release_corrupt";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  Rng setup_rng(7777);
  Schema schema = RandomSchema(setup_rng);
  TableBuilder b(schema);
  for (size_t r = 0; r < 60; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      row.push_back(RandomCell(schema.field(c), setup_rng));
    }
    b.Row(std::move(row));
  }
  Table original = *b.Finish();
  PrivateRelationMetadata metadata = CoveringMetadata(original);
  const std::string pristine = base + "/pristine";
  ASSERT_TRUE(WriteRelease(original, metadata, pristine).ok());

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    files.push_back(entry.path().filename().string());
  }
  ASSERT_GE(files.size(), 3u);

  auto relation_equals_original = [&](const Table& loaded) {
    if (!(loaded.schema() == original.schema()) ||
        loaded.num_rows() != original.num_rows()) {
      return false;
    }
    for (size_t r = 0; r < original.num_rows(); ++r) {
      for (size_t c = 0; c < original.num_columns(); ++c) {
        if (!(loaded.column(c).ValueAt(r) ==
              original.column(c).ValueAt(r))) {
          return false;
        }
      }
    }
    return true;
  };

  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(4000 + trial);
    const std::string dir = base + "/t" + std::to_string(trial);
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir);

    const std::string& victim = files[rng.UniformInt(files.size())];
    const std::string victim_path = dir + "/" + victim;
    std::string bytes = Slurp(victim_path);
    ASSERT_FALSE(bytes.empty()) << victim;
    const size_t mutation = rng.UniformInt(4);
    switch (mutation) {
      case 0: {  // single bit flip
        size_t offset = rng.UniformInt(bytes.size());
        bytes[offset] ^= static_cast<char>(1u << rng.UniformInt(8));
        Spit(victim_path, bytes);
        break;
      }
      case 1: {  // truncation
        Spit(victim_path, bytes.substr(0, rng.UniformInt(bytes.size())));
        break;
      }
      case 2: {  // byte-range deletion
        size_t from = rng.UniformInt(bytes.size());
        size_t len = 1 + rng.UniformInt(bytes.size() - from);
        Spit(victim_path, bytes.erase(from, len));
        break;
      }
      default:  // whole-file deletion
        std::filesystem::remove(victim_path);
        break;
    }

    const bool manifest_gone =
        victim == "MANIFEST" && mutation == 3;
    auto read = ReadRelease(dir);
    if (manifest_gone) {
      // No MANIFEST, nothing to check the bytes against: never opened.
      EXPECT_TRUE(read.status().IsFailedPrecondition())
          << read.status().ToString();
    }
    if (read.ok()) {
      // Loading successfully is only acceptable if the data is exactly
      // the original — which the checksums make all but impossible for
      // a damaged payload.
      EXPECT_TRUE(relation_equals_original(read->relation));
    } else {
      const Status& st = read.status();
      EXPECT_TRUE(st.IsDataLoss() || st.IsNotFound() || st.IsIOError() ||
                  st.IsFailedPrecondition())
          << st.ToString();
    }

    // Strict verification must reject every damaged copy.
    auto verification = VerifyRelease(dir);
    if (verification.ok()) {
      EXPECT_FALSE(verification->status.ok()) << victim;
    } else {
      const Status& st = verification.status();
      EXPECT_TRUE(st.IsDataLoss() || st.IsNotFound() ||
                  st.IsFailedPrecondition() || st.IsIOError())
          << st.ToString();
    }
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(base);
}

/// Re-renders `dir`'s MANIFEST with `name`'s current CRC32C and length
/// and re-seals the manifest checksum: damage to that file then passes
/// every checksum, and only the decoder can catch it.
void ResealManifest(const std::string& dir, const std::string& name) {
  const std::string content = Slurp(dir + "/" + name);
  const std::string manifest = Slurp(dir + "/MANIFEST");
  const size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::istringstream lines(manifest.substr(0, trailer + 1));
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("file: ", 0) == 0 &&
        line.size() > name.size() &&
        line.compare(line.size() - name.size() - 1, std::string::npos,
                     " " + name) == 0) {
      line = "file: " + io::Crc32cToHex(io::Crc32c(content)) + " " +
             std::to_string(content.size()) + " " + name;
    }
    out += line + "\n";
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  Spit(dir + "/MANIFEST", out);
}

TEST(ReleaseFuzzTest, SegmentCorruptionBehindValidChecksumsIsCaughtByDecoder) {
  // Adversarial mode: corrupt one column segment, then re-render the
  // MANIFEST with the corrupted file's correct CRC and length, so the
  // segment decoder's validation runs instead of the checksum. Every
  // outcome must be DataLoss naming that segment, or an OK load whose
  // relation re-encodes to exactly the corrupted bytes: segment
  // encodings are unique, so an accepted segment is the one encoding of
  // some well-formed relation (a flipped value bit on a valid row, say).
  // A crash, an out-of-range code or a second encoding of a relation
  // breaks the contract; ASan+UBSan run this under the `fuzz` label.
  const std::string base = ::testing::TempDir() + "/pclean_release_adv";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  for (int release = 0; release < 4; ++release) {
    SCOPED_TRACE("release " + std::to_string(release));
    Rng setup_rng(9100 + release);
    Schema schema = RandomSchema(setup_rng);
    TableBuilder b(schema);
    const size_t rows = 20 + setup_rng.UniformInt(80);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        row.push_back(RandomCell(schema.field(c), setup_rng));
      }
      b.Row(std::move(row));
    }
    Table original = *b.Finish();
    const std::string pristine = base + "/pristine";
    std::filesystem::remove_all(pristine);
    ASSERT_TRUE(
        WriteRelease(original, CoveringMetadata(original), pristine).ok());

    for (int trial = 0; trial < 50; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      Rng rng(9200 + 100 * release + trial);
      const std::string dir = base + "/t";
      std::filesystem::remove_all(dir);
      std::filesystem::copy(pristine, dir);
      const size_t column = rng.UniformInt(schema.num_fields());
      const std::string victim = "column_" + std::to_string(column) + ".bin";
      std::string bytes = Slurp(dir + "/" + victim);
      ASSERT_FALSE(bytes.empty());
      const size_t width =
          schema.field(column).type == ValueType::kString ? 4 : 8;
      switch (rng.UniformInt(5)) {
        case 0:  // single bit flip anywhere, bitmap included
          bytes[rng.UniformInt(bytes.size())] ^=
              static_cast<char>(1u << rng.UniformInt(8));
          break;
        case 1: {  // one value overwritten with an edge pattern
          const size_t row = rng.UniformInt(rows);
          const uint64_t patterns[] = {0, 1, 0xFFFFFFFFu,
                                       0xFFFFFFFFFFFFFFFFull,
                                       0x8000000000000000ull,
                                       rng.UniformInt(1ull << 32)};
          const uint64_t value = patterns[rng.UniformInt(6)];
          for (size_t i = 0; i < width; ++i) {
            bytes[row * width + i] = static_cast<char>(value >> (8 * i));
          }
          break;
        }
        case 2:  // truncation
          bytes.resize(rng.UniformInt(bytes.size()));
          break;
        case 3:  // extension
          bytes.append(1 + rng.UniformInt(16),
                       static_cast<char>(rng.UniformInt(256)));
          break;
        default:  // the last bitmap byte replaced
          bytes.back() = static_cast<char>(rng.UniformInt(256));
          break;
      }
      Spit(dir + "/" + victim, bytes);
      ResealManifest(dir, victim);

      auto read = ReadRelease(dir);
      auto verification = VerifyRelease(dir);
      ASSERT_TRUE(verification.ok()) << verification.status().ToString();
      for (const ReleaseFileCheck& check : verification->files) {
        EXPECT_TRUE(check.status.ok()) << check.file;  // checksums pass
      }
      if (read.ok()) {
        EXPECT_TRUE(verification->status.ok());
        const std::string rewrite = base + "/rewrite";
        std::filesystem::remove_all(rewrite);
        ASSERT_TRUE(
            WriteRelease(read->relation, read->metadata, rewrite).ok());
        EXPECT_EQ(Slurp(rewrite + "/" + victim), bytes)
            << victim << " decoded but re-encodes differently";
      } else {
        EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
        EXPECT_NE(read.status().message().find(victim), std::string::npos)
            << read.status().message();
        EXPECT_EQ(verification->status.ToString(), read.status().ToString());
      }
    }
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace privateclean
