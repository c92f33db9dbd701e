#include "core/release.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>

#include "cleaning/merge.h"
#include "core/sql_execution.h"
#include "common/io_util.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "table/table_builder.h"

namespace privateclean {
namespace {

#ifndef PCLEAN_TEST_DATA_DIR
#error "PCLEAN_TEST_DATA_DIR must point at the tests/ source directory"
#endif

/// A format-v2 release (relation in data.csv) written by the last writer
/// that produced v2, checked in as a compatibility fixture.
const std::string kV2Fixture =
    std::string(PCLEAN_TEST_DATA_DIR) + "/golden/v2_release";

class ReleaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/pclean_release_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

GrrOutput MakeGrr(uint64_t seed = 3, int rows = 200) {
  Schema s = *Schema::Make(
      {Field::Discrete("major"),
       Field{"section", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder b(s);
  const char* majors[] = {"EECS", "Math, Applied", "Bio\"x\"", "Physics"};
  for (int i = 0; i < rows; ++i) {
    Value major = (i % 17 == 0) ? Value::Null() : Value(majors[i % 4]);
    b.Row({major, Value(i % 5), Value(static_cast<double>(i % 10))});
  }
  Table t = *b.Finish();
  Rng rng(seed);
  return *ApplyGrr(t, GrrParams::Uniform(0.2, 1.5), GrrOptions{}, rng);
}

/// Rewrites one payload file and patches the MANIFEST (file line and
/// self-checksum) so the release stays checksum-consistent — simulating
/// a writer that produced `content` for `name`. Pass an empty optional
/// to delete the file and drop its manifest line entirely (simulating a
/// release written before dictionary files existed).
void RewriteReleaseFile(const std::string& dir, const std::string& name,
                        const std::optional<std::string>& content) {
  if (content.has_value()) {
    ASSERT_TRUE(io::WriteFileDurable(dir + "/" + name, *content).ok());
  } else {
    std::filesystem::remove(dir + "/" + name);
  }
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const bool is_target = line.rfind("file: ", 0) == 0 &&
                           line.size() > name.size() &&
                           line.compare(line.size() - name.size() - 1,
                                        name.size() + 1, " " + name) == 0;
    if (!is_target) {
      out += line + "\n";
    } else if (content.has_value()) {
      out += "file: " + io::Crc32cToHex(io::Crc32c(*content)) + " " +
             std::to_string(content->size()) + " " + name + "\n";
    }  // else: drop the line.
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, RoundTripsRelationExactly) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  ASSERT_EQ(loaded.relation.num_rows(), grr.table.num_rows());
  ASSERT_TRUE(loaded.relation.schema() == grr.table.schema());
  for (size_t r = 0; r < grr.table.num_rows(); ++r) {
    for (size_t c = 0; c < grr.table.num_columns(); ++c) {
      EXPECT_EQ(loaded.relation.column(c).ValueAt(r),
                grr.table.column(c).ValueAt(r))
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(ReleaseTest, RoundTripsMetadata) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.dataset_size, grr.metadata.dataset_size);
  ASSERT_EQ(loaded.metadata.discrete.size(), 2u);
  ASSERT_EQ(loaded.metadata.numeric.size(), 1u);
  for (const auto& [name, meta] : grr.metadata.discrete) {
    const auto& loaded_meta = loaded.metadata.discrete.at(name);
    EXPECT_DOUBLE_EQ(loaded_meta.p, meta.p);
    ASSERT_EQ(loaded_meta.domain.size(), meta.domain.size());
    for (size_t i = 0; i < meta.domain.size(); ++i) {
      EXPECT_EQ(loaded_meta.domain.value(i), meta.domain.value(i));
    }
  }
  EXPECT_DOUBLE_EQ(loaded.metadata.numeric.at("score").b,
                   grr.metadata.numeric.at("score").b);
  EXPECT_DOUBLE_EQ(loaded.metadata.numeric.at("score").sensitivity,
                   grr.metadata.numeric.at("score").sensitivity);
}

TEST_F(ReleaseTest, NullDomainValueSurvives) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(
      grr.metadata.discrete.at("major").domain.Contains(Value::Null()));
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_TRUE(
      loaded.metadata.discrete.at("major").domain.Contains(Value::Null()));
}

TEST_F(ReleaseTest, NullAndEmptyStringDistinctAfterRoundTrip) {
  // A NULL string entry (validity bit clear) and the empty string (a
  // dictionary entry) stay distinct through a release round trip —
  // including a value that collides with the CSV null literal `\N`.
  Schema s = *Schema::Make({Field::Discrete("tag"),
                            Field::Numerical("x", ValueType::kDouble)});
  TableBuilder b(s);
  b.Row({Value::Null(), Value(1.0)});
  b.Row({Value(""), Value(2.0)});
  b.Row({Value("\\N"), Value(3.0)});  // The literal itself, as a value.
  b.Row({Value("plain"), Value(4.0)});
  Table t = *b.Finish();
  Rng rng(1);
  // p = 0, b = 0: the private relation equals the original, so
  // cell-level expectations are deterministic.
  GrrOutput grr = *ApplyGrr(t, GrrParams::Uniform(0.0, 0.0), GrrOptions{},
                            rng);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  const Column& tag = loaded.relation.column(0);
  EXPECT_TRUE(tag.ValueAt(0).is_null());
  EXPECT_EQ(tag.ValueAt(1), Value(""));
  EXPECT_EQ(tag.ValueAt(2), Value("\\N"));
  EXPECT_EQ(tag.ValueAt(3), Value("plain"));
  EXPECT_EQ(tag.null_count(), 1u);
}

TEST_F(ReleaseTest, OpenReleaseProducesQueryablePrivateTable) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  EXPECT_EQ(pt.size(), 200u);
  Predicate pred = Predicate::Equals("major", "EECS");
  QueryResult r = *pt.Execute(AggregateQuery::Count(pred));
  EXPECT_DOUBLE_EQ(r.p, 0.2);
  EXPECT_DOUBLE_EQ(r.n, 5.0);  // 4 majors + null.
  // Estimates agree with a PrivateTable built in-process from the same
  // private relation and metadata.
  PrivateTable direct = *PrivateTable::FromPrivateRelation(
      grr.table.Clone(), grr.metadata);
  EXPECT_DOUBLE_EQ(r.estimate,
                   direct.Execute(AggregateQuery::Count(pred))->estimate);
}

TEST_F(ReleaseTest, LoadedTableSupportsCleaning) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  ASSERT_TRUE(pt.Clean(FindReplace::Single("major", Value("Math, Applied"),
                                           Value("Math")))
                  .ok());
  QueryResult r =
      *pt.Execute(AggregateQuery::Count(Predicate::Equals("major", "Math")));
  EXPECT_DOUBLE_EQ(r.l, 1.0);  // Pure rename: one dirty parent.
  EXPECT_DOUBLE_EQ(r.n, 5.0);
}

TEST_F(ReleaseTest, EpsilonAccountingSurvivesRoundTrip) {
  GrrOutput grr = MakeGrr();
  double eps_before = AccountPrivacy(grr.metadata)->total_epsilon;
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable pt = *OpenRelease(dir_);
  EXPECT_NEAR(pt.PrivacyAccounting()->total_epsilon, eps_before, 1e-9);
}

TEST_F(ReleaseTest, ReadMissingDirectoryFails) {
  auto r = ReadRelease(dir_ + "_nonexistent");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ReleaseTest, MissingDomainFileFails) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::filesystem::remove(dir_ + "/domain_0.csv");
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  // Listed in the MANIFEST but gone: unrecoverable, and the message
  // names the missing file.
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("domain_0.csv"), std::string::npos);
}

TEST_F(ReleaseTest, ReadIsVerifiedV3ByDefault) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/MANIFEST"));
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("\nversion: 3\n"), std::string::npos);
  // One segment per column; no data.csv.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/column_0.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/column_2.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/column_3.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/data.csv"));
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.format_version, 3);
  EXPECT_TRUE(loaded.verified);
}

TEST_F(ReleaseTest, V1DirectoryIsFailedPrecondition) {
  // A v1 release is a manifest release without the MANIFEST. Nothing
  // opens it: it has no checksums, and accepting it would let a deleted
  // MANIFEST silently downgrade a checksummed release to an unchecked
  // one.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::filesystem::remove(dir_ + "/MANIFEST");
  auto loaded = ReadRelease(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsFailedPrecondition())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("pre-manifest (v1)"),
            std::string::npos);
  auto verification = VerifyRelease(dir_);
  ASSERT_FALSE(verification.ok());
  EXPECT_TRUE(verification.status().IsFailedPrecondition())
      << verification.status().ToString();
}

TEST_F(ReleaseTest, BitFlipInDataFileIsDataLossNamingTheFile) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/column_0.bin";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 3] ^= 0x40;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  // Re-writing a segment alone desyncs it from the MANIFEST checksum.
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("column_0.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(ReleaseTest, TruncatedDataFileIsDataLossWithByteCounts) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/column_2.bin";
  std::string bytes = *io::ReadFileToString(path);
  const size_t cut = bytes.size() / 2;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes.substr(0, cut)).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("column_2.bin"), std::string::npos);
  EXPECT_NE(r.status().message().find(std::to_string(cut)),
            std::string::npos);
}

TEST_F(ReleaseTest, CorruptManifestIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/MANIFEST";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MANIFEST"), std::string::npos);
}

TEST_F(ReleaseTest, OverwriteSwapsAtomicallyToTheNewRelease) {
  GrrOutput first = MakeGrr(3);
  GrrOutput second = MakeGrr(7);
  ASSERT_TRUE(WriteRelease(first, dir_).ok());
  ASSERT_TRUE(WriteRelease(second, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_TRUE(loaded.verified);
  ASSERT_EQ(loaded.relation.num_rows(), second.table.num_rows());
  bool any_diff = false;
  for (size_t r = 0; r < loaded.relation.num_rows() && !any_diff; ++r) {
    if (!(loaded.relation.column(0).ValueAt(r) ==
          first.table.column(0).ValueAt(r))) {
      any_diff = true;
    }
  }
  for (size_t r = 0; r < loaded.relation.num_rows(); ++r) {
    EXPECT_EQ(loaded.relation.column(0).ValueAt(r),
              second.table.column(0).ValueAt(r));
  }
  EXPECT_TRUE(any_diff) << "seeds 3 and 7 should randomize differently";
  // No staging or backup siblings of THIS release survive a successful
  // swap. Staging dirs are named "<release>.tmp.<suffix>" /
  // "<release>.old.<suffix>", so scope the scan to our own basename —
  // the temp root is shared with concurrently running tests whose
  // in-flight staging dirs are not our business.
  const std::string base = std::filesystem::path(dir_).filename().string();
  size_t entries = 0;
  for (auto it = std::filesystem::directory_iterator(
           std::filesystem::path(dir_).parent_path());
       it != std::filesystem::directory_iterator(); ++it) {
    std::string name = it->path().filename().string();
    if (name.rfind(base, 0) != 0) continue;
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    EXPECT_EQ(name.find(".old."), std::string::npos) << name;
    ++entries;
  }
  EXPECT_GE(entries, 1u);
}

TEST_F(ReleaseTest, WriteRefusesNonReleaseDirectory) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(io::WriteFileDurable(dir_ + "/precious.txt", "keep me\n").ok());
  Status st = WriteRelease(MakeGrr(), dir_);
  ASSERT_TRUE(st.IsAlreadyExists()) << st.ToString();
  // The directory and its contents are untouched.
  auto kept = io::ReadFileToString(dir_ + "/precious.txt");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie(), "keep me\n");
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/MANIFEST"));
}

TEST_F(ReleaseTest, WriteRefusesPlainFileTarget) {
  ASSERT_TRUE(io::WriteFileDurable(dir_, "not a directory\n").ok());
  Status st = WriteRelease(MakeGrr(), dir_);
  EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
  auto kept = io::ReadFileToString(dir_);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie(), "not a directory\n");
}

TEST_F(ReleaseTest, WriteReplacesEmptyDirectory) {
  std::filesystem::create_directories(dir_);
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.num_rows(), grr.table.num_rows());
}

TEST_F(ReleaseTest, V2ParseErrorsCarryFileAndLineNumber) {
  // Plant a non-numeric cell in the v2 fixture's numeric column and
  // re-checksum data.csv, so the CSV decode is the line of defense.
  std::filesystem::copy(kV2Fixture, dir_);
  const std::string path = dir_ + "/data.csv";
  std::string bytes = *io::ReadFileToString(path);
  // The first record starting with an unquoted EECS; the error names
  // its physical line, counting the line breaks inside quoted values
  // above it.
  const size_t pos = bytes.find("\nEECS,") + 1;
  ASSERT_NE(pos, 0u);
  const size_t eol = bytes.find('\n', pos);
  const size_t line = 1 + std::count(bytes.begin(), bytes.begin() + pos, '\n');
  bytes.replace(pos, eol - pos, "EECS,1,not-a-number,3");
  RewriteReleaseFile(dir_, "data.csv", bytes);
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("data.csv:" + std::to_string(line)),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("score"), std::string::npos);
}

TEST_F(ReleaseTest, V2TruncatedFinalRecordIsDataLoss) {
  std::filesystem::copy(kV2Fixture, dir_);
  const std::string path = dir_ + "/data.csv";
  std::string bytes = *io::ReadFileToString(path);
  // Drop the final newline and half the last record, and re-checksum: a
  // torn tail that still parses as a "complete" record without the
  // trailing-newline requirement.
  RewriteReleaseFile(dir_, "data.csv", bytes.substr(0, bytes.size() - 4));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
}

TEST_F(ReleaseTest, VerifyReleaseReportsPerFileResults) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  auto ok_verification = VerifyRelease(dir_);
  ASSERT_TRUE(ok_verification.ok()) << ok_verification.status().ToString();
  EXPECT_TRUE(ok_verification->status.ok());
  EXPECT_EQ(ok_verification->rows, 200u);
  ASSERT_GE(ok_verification->files.size(), 3u);  // data, meta, domains
  for (const ReleaseFileCheck& check : ok_verification->files) {
    EXPECT_TRUE(check.status.ok()) << check.file;
    EXPECT_GT(check.bytes, 0u) << check.file;
  }

  // Corrupt one domain file: its check fails, the others stay OK.
  const std::string path = dir_ + "/domain_0.csv";
  std::string bytes = *io::ReadFileToString(path);
  bytes[0] ^= 0x02;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto verification = VerifyRelease(dir_);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_TRUE(verification->status.IsDataLoss());
  bool found = false;
  for (const ReleaseFileCheck& check : verification->files) {
    if (check.file == "domain_0.csv") {
      found = true;
      EXPECT_TRUE(check.status.IsDataLoss());
    } else {
      EXPECT_TRUE(check.status.ok()) << check.file;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ReleaseTest, WriteRejectsIncompleteMetadata) {
  GrrOutput grr = MakeGrr();
  grr.metadata.discrete.erase("major");
  Status st = WriteRelease(grr, dir_);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(ReleaseTest, FromPrivateRelationRejectsUncoveredAttribute) {
  GrrOutput grr = MakeGrr();
  PrivateRelationMetadata meta = grr.metadata;
  meta.numeric.erase("score");
  auto r = PrivateTable::FromPrivateRelation(grr.table.Clone(), meta);
  EXPECT_FALSE(r.ok());
}

// --- Dictionary files -----------------------------------------------------

TEST_F(ReleaseTest, DictionaryFilesAreWrittenAndManifestListed) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // "major" is the only string-typed discrete field → exactly dict_0.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/dict_0.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/dict_1.csv"));
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find(" dict_0.csv\n"), std::string::npos);
}

TEST_F(ReleaseTest, RoundTripRestoresWriterDictionaryCodeOrder) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  const Column& written = grr.table.column(0);
  const Column& read = loaded.relation.column(0);
  // Not just value-equal: the dictionary (including interned-but-unused
  // entries) and every per-row code must match the writer's exactly.
  ASSERT_EQ(read.dictionary().size(), written.dictionary().size());
  for (uint32_t c = 0; c < written.dictionary().size(); ++c) {
    EXPECT_EQ(read.dictionary().At(c), written.dictionary().At(c))
        << "code " << c;
  }
  ASSERT_EQ(read.codes().size(), written.codes().size());
  for (size_t r = 0; r < written.codes().size(); ++r) {
    EXPECT_EQ(read.CodeAt(r), written.CodeAt(r)) << "row " << r;
  }
}

TEST_F(ReleaseTest, ReleaseWithoutDictionaryFilesStillLoads) {
  // A v2 release written before dictionary files existed: same layout,
  // no dict_<i>.csv entries. The reader keeps its parse-order
  // dictionary — values (not codes) are the compatibility contract.
  const LoadedRelease fixture = *ReadRelease(kV2Fixture);
  std::filesystem::copy(kV2Fixture, dir_);
  RewriteReleaseFile(dir_, "dict_0.csv", std::nullopt);
  auto loaded = ReadRelease(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->verified);
  EXPECT_EQ(loaded->format_version, 2);
  for (size_t r = 0; r < fixture.relation.num_rows(); ++r) {
    EXPECT_EQ(loaded->relation.column(0).ValueAt(r),
              fixture.relation.column(0).ValueAt(r))
        << "row " << r;
  }
}

TEST_F(ReleaseTest, V3ReleaseWithoutItsDictionaryFileIsDataLoss) {
  // Format v3 codes index the dict file directly, so it is required.
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  RewriteReleaseFile(dir_, "dict_0.csv", std::nullopt);
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("dict_0.csv"), std::string::npos);
}

TEST_F(ReleaseTest, DictionaryMissingUsedValueIsDataLoss) {
  // A consistent-looking dictionary that does not cover the column's
  // values: checksums pass, the semantic check must fail — in v2 the
  // rebind, in v3 the segment's code-range check.
  std::filesystem::copy(kV2Fixture, dir_ + "_v2");
  RewriteReleaseFile(dir_ + "_v2", "dict_0.csv",
                     std::string("major\nnot_a_real_major\n"));
  auto v2 = ReadRelease(dir_ + "_v2");
  std::filesystem::remove_all(dir_ + "_v2");
  ASSERT_FALSE(v2.ok());
  EXPECT_TRUE(v2.status().IsDataLoss()) << v2.status().ToString();
  EXPECT_NE(v2.status().message().find("dict_0.csv"), std::string::npos);

  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  RewriteReleaseFile(dir_, "dict_0.csv",
                     std::string("major\nnot_a_real_major\n"));
  auto v3 = ReadRelease(dir_);
  ASSERT_FALSE(v3.ok());
  EXPECT_TRUE(v3.status().IsDataLoss()) << v3.status().ToString();
  EXPECT_NE(v3.status().message().find("dict_0.csv"), std::string::npos);
  EXPECT_NE(v3.status().message().find("column_0.bin"), std::string::npos);
}

TEST_F(ReleaseTest, DuplicateDictionaryEntryIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::string dict = *io::ReadFileToString(dir_ + "/dict_0.csv");
  RewriteReleaseFile(dir_, "dict_0.csv", dict + "EECS\n");
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("dict_0.csv"), std::string::npos);
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
}

TEST_F(ReleaseTest, NullEntryInDictionaryFileIsDataLoss) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  RewriteReleaseFile(dir_, "dict_0.csv", std::string("major\n\\N\n"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("NULL"), std::string::npos);
}

TEST_F(ReleaseTest, BitFlipInDictionaryFileIsDataLossNamingTheFile) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  const std::string path = dir_ + "/dict_0.csv";
  std::string bytes = *io::ReadFileToString(path);
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(io::WriteFileDurable(path, bytes).ok());
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("dict_0.csv"), std::string::npos);
}

TEST_F(ReleaseTest, NullLiteralRowsRoundTripThroughDictionary) {
  // MakeGrr's relation mixes NULL rows (written as \N) with quoted and
  // empty-adjacent strings; after the round trip NULL and "" must stay
  // distinct and the null count exact.
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.column(0).null_count(),
            grr.table.column(0).null_count());
  for (size_t r = 0; r < grr.table.num_rows(); ++r) {
    EXPECT_EQ(loaded.relation.column(0).IsNull(r),
              grr.table.column(0).IsNull(r))
        << "row " << r;
  }
}

// --- Mechanism identity (MANIFEST `mechanism:` line) ----------------------

GrrOutput MakeWithMechanism(const MechanismSpec& mechanism, double param,
                            uint64_t seed = 3) {
  Schema s = *Schema::Make(
      {Field::Discrete("major"),
       Field{"section", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("score", ValueType::kDouble)});
  TableBuilder b(s);
  const char* majors[] = {"EECS", "Math, Applied", "Bio\"x\"", "Physics"};
  for (int i = 0; i < 200; ++i) {
    Value major = (i % 17 == 0) ? Value::Null() : Value(majors[i % 4]);
    b.Row({major, Value(i % 5), Value(static_cast<double>(i % 10))});
  }
  Table t = *b.Finish();
  Rng rng(seed);
  GrrOptions options;
  options.mechanism = mechanism;
  return *ApplyGrr(t, GrrParams::Uniform(param, 1.5), options, rng);
}

/// Replaces the MANIFEST's `mechanism:` line with `line` (or drops it
/// when nullopt, simulating a release written before the mechanism zoo)
/// and recomputes the self-checksum so only the mechanism entry is under
/// test, not the CRC machinery.
void PatchManifestMechanism(const std::string& dir,
                            const std::optional<std::string>& line) {
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  bool replaced = false;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string l = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (l.rfind("mechanism: ", 0) == 0) {
      replaced = true;
      if (line.has_value()) out += *line + "\n";
    } else {
      out += l + "\n";
    }
  }
  ASSERT_TRUE(replaced) << "MANIFEST carries no mechanism line";
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, ManifestRecordsMechanismIdentity) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("mechanism: grr\n"), std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.mechanism_spec.name, "grr");
  EXPECT_TRUE(loaded.metadata.mechanism_spec.params.empty());
}

TEST_F(ReleaseTest, RoundTripsHlmMechanismIdentity) {
  GrrOutput grr = MakeWithMechanism(MechanismSpec{"hlm", {}}, 1.2);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.mechanism_spec.name, "hlm");
  for (const auto& [name, meta] : loaded.metadata.discrete) {
    MechanismPtr m = *MechanismFor(meta);
    EXPECT_STREQ(m->name(), "hlm") << name;
    EXPECT_DOUBLE_EQ(m->param(), 1.2) << name;
  }
  // The loaded release accounts and estimates exactly like the writer's
  // in-process metadata — the wrong-estimator failure mode the MANIFEST
  // line exists to prevent.
  EXPECT_NEAR(AccountPrivacy(loaded.metadata)->total_epsilon,
              AccountPrivacy(grr.metadata)->total_epsilon, 1e-9);
  PrivateTable pt = *OpenRelease(dir_);
  PrivateTable direct = *PrivateTable::FromPrivateRelation(
      grr.table.Clone(), grr.metadata);
  Predicate pred = Predicate::Equals("major", "EECS");
  EXPECT_DOUBLE_EQ(pt.Execute(AggregateQuery::Count(pred))->estimate,
                   direct.Execute(AggregateQuery::Count(pred))->estimate);
}

TEST_F(ReleaseTest, RoundTripsSamplingMechanismIdentityWithBeta) {
  GrrOutput grr = MakeWithMechanism(
      MechanismSpec{"sampling", {{"beta", 0.5}}}, 0.25);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("mechanism: sampling beta=0.5\n"),
            std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.mechanism_spec.name, "sampling");
  ASSERT_EQ(loaded.metadata.mechanism_spec.params.count("beta"), 1u);
  EXPECT_DOUBLE_EQ(loaded.metadata.mechanism_spec.params.at("beta"), 0.5);
  for (const auto& [name, meta] : loaded.metadata.discrete) {
    MechanismPtr m = *MechanismFor(meta);
    EXPECT_STREQ(m->name(), "sampling") << name;
    EXPECT_DOUBLE_EQ(m->param(), 0.25) << name;
  }
}

TEST_F(ReleaseTest, UnknownMechanismNameInManifestIsFailedPrecondition) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestMechanism(dir_, std::string("mechanism: staircase"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  // A release written by a newer build: the data is intact, this build
  // just cannot decode it — FailedPrecondition, not DataLoss.
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("staircase"), std::string::npos);
}

TEST_F(ReleaseTest, MissingMechanismLineLoadsAsLegacyGrr) {
  // A v2 release written before the mechanism zoo: no mechanism line at
  // all. The reader defaults to the paper's GRR explicitly.
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PatchManifestMechanism(dir_, std::nullopt);
  auto loaded = ReadRelease(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->verified);
  EXPECT_EQ(loaded->metadata.mechanism_spec.name, "grr");
  for (const auto& [name, meta] : loaded->metadata.discrete) {
    EXPECT_STREQ((*MechanismFor(meta))->name(), "grr") << name;
  }
}

TEST_F(ReleaseTest, CorruptMechanismParameterBlockIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  PatchManifestMechanism(dir_, std::string("mechanism: sampling beta=zebra"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MANIFEST"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ReleaseTest, KnownMechanismWithInfeasibleParametersIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  // Known family, parameter block this build can parse but not satisfy
  // (sampling without its required beta): the entry is damaged, not
  // from-the-future.
  PatchManifestMechanism(dir_, std::string("mechanism: sampling"));
  auto r = ReadRelease(dir_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST_F(ReleaseTest, V1DirectoryFailsOpenRelease) {
  // The analyst-side open refuses a pre-manifest directory with the same
  // typed status as ReadRelease; a release with a MANIFEST but no
  // mechanism line still defaults to GRR (MissingMechanismLineLoads...).
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  std::filesystem::remove(dir_ + "/MANIFEST");
  auto opened = OpenRelease(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
}

TEST_F(ReleaseTest, EndToEndProviderAnalystSeparation) {
  // Provider process: generate, privatize, write, forget.
  SyntheticOptions options;
  options.num_rows = 600;
  Rng data_rng(9);
  Table original = *GenerateSynthetic(options, data_rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1)});
  double truth = *ExecuteAggregate(original, AggregateQuery::Count(pred));
  {
    Rng rng(10);
    GrrOutput grr = *ApplyGrr(original, GrrParams::Uniform(0.15, 5.0),
                              GrrOptions{}, rng);
    ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  }
  // Analyst process: open the release cold and query.
  PrivateTable pt = *OpenRelease(dir_);
  QueryResult r = *pt.Execute(AggregateQuery::Count(pred));
  EXPECT_NEAR(r.estimate, truth, 0.35 * truth);
  EXPECT_TRUE(r.ci.Contains(r.estimate));
}

/// Rewrites the MANIFEST body line-by-line through `edit` (return the
/// replacement line, or nullopt to drop it) and recomputes the
/// self-checksum, so schema-section tests tamper with one declaration
/// without tripping the CRC machinery.
void PatchManifestLines(
    const std::string& dir,
    const std::function<std::optional<std::string>(const std::string&)>&
        edit) {
  std::string manifest = *io::ReadFileToString(dir + "/MANIFEST");
  size_t trailer = manifest.rfind("\nmanifest_crc: ");
  ASSERT_NE(trailer, std::string::npos);
  std::string body = manifest.substr(0, trailer + 1);
  std::string out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::optional<std::string> line = edit(body.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.has_value()) out += *line + "\n";
  }
  out += "manifest_crc: " + io::Crc32cToHex(io::Crc32c(out)) + "\n";
  ASSERT_TRUE(io::WriteFileDurable(dir + "/MANIFEST", out).ok());
}

TEST_F(ReleaseTest, ManifestCarriesRelationNameAndSchema) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("relation: r\n"), std::string::npos);
  EXPECT_NE(manifest.find("column: discrete string major\n"),
            std::string::npos);
  EXPECT_NE(manifest.find("column: discrete int64 section\n"),
            std::string::npos);
  EXPECT_NE(manifest.find("column: numeric double score\n"),
            std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.metadata.relation_name, "r");
}

TEST_F(ReleaseTest, CustomRelationNameRoundTripsAndGatesSql) {
  GrrOutput grr = MakeGrr();
  grr.metadata.relation_name = "students";
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable table = *OpenRelease(dir_);
  EXPECT_EQ(table.metadata().relation_name, "students");
  // FROM must name the released relation; anything else is a typed
  // NotFound naming both the asked-for and the actual relation.
  auto ok = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM students");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  auto bad = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM r");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound()) << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("unknown relation 'r'"),
            std::string::npos)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("'students'"), std::string::npos);
}

TEST_F(ReleaseTest, DefaultReleaseRejectsUnknownFromRelation) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PrivateTable table = *OpenRelease(dir_);
  auto bad = ExecuteSqlQuery(table, "SELECT COUNT(*) FROM nosuch");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound()) << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("unknown relation 'nosuch'"),
            std::string::npos);
  EXPECT_NE(bad.status().message().find("relation 'r'"), std::string::npos);
}

TEST_F(ReleaseTest, ManifestColumnTypeMismatchIsFailedPrecondition) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PatchManifestLines(dir_, [](const std::string& line) {
    if (line == "column: discrete string major") {
      return std::optional<std::string>("column: discrete int64 major");
    }
    return std::optional<std::string>(line);
  });
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsFailedPrecondition())
      << read.status().ToString();
  EXPECT_NE(read.status().message().find("'major'"), std::string::npos)
      << read.status().message();
  EXPECT_NE(read.status().message().find("meta.csv"), std::string::npos);
}

TEST_F(ReleaseTest, ManifestColumnNameMismatchIsFailedPrecondition) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PatchManifestLines(dir_, [](const std::string& line) {
    if (line == "column: numeric double score") {
      return std::optional<std::string>("column: numeric double points");
    }
    return std::optional<std::string>(line);
  });
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsFailedPrecondition());
  EXPECT_NE(read.status().message().find("'points'"), std::string::npos)
      << read.status().message();
}

TEST_F(ReleaseTest, ManifestColumnCountMismatchIsFailedPrecondition) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  PatchManifestLines(dir_, [](const std::string& line) {
    if (line == "column: numeric double score") return std::optional<std::string>();
    return std::optional<std::string>(line);
  });
  auto read = ReadRelease(dir_);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsFailedPrecondition());
  EXPECT_NE(read.status().message().find("declares 2 columns"),
            std::string::npos)
      << read.status().message();
}

TEST_F(ReleaseTest, LineBreakingColumnNamesAreEscapedInTheManifest) {
  // meta.csv CSV-quotes hostile names; the line-oriented MANIFEST
  // schema section must escape them instead of splitting the line.
  Schema s = *Schema::Make({Field::Discrete("new\nline"),
                            Field::Numerical("back\\slash",
                                             ValueType::kDouble)});
  TableBuilder b(s);
  for (int i = 0; i < 50; ++i) {
    b.Row({Value(std::string("v").append(std::to_string(i % 3))),
           Value(static_cast<double>(i % 7))});
  }
  Table t = *b.Finish();
  Rng rng(5);
  GrrOutput grr = *ApplyGrr(t, GrrParams::Uniform(0.2, 1.5), GrrOptions{},
                            rng);
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  std::string manifest = *io::ReadFileToString(dir_ + "/MANIFEST");
  EXPECT_NE(manifest.find("column: discrete string new\\nline\n"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("column: numeric double back\\\\slash\n"),
            std::string::npos);
  LoadedRelease loaded = *ReadRelease(dir_);
  EXPECT_EQ(loaded.relation.schema().field(0).name, "new\nline");
  EXPECT_EQ(loaded.relation.schema().field(1).name, "back\\slash");
}

TEST_F(ReleaseTest, ManifestWithoutSchemaSectionLoadsAsLegacy) {
  GrrOutput grr = MakeGrr();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // A release written before the schema section: no relation/column
  // lines at all. It loads with the default relation name and no
  // schema cross-check.
  PatchManifestLines(dir_, [](const std::string& line) {
    if (line.rfind("relation: ", 0) == 0 ||
        line.rfind("column: ", 0) == 0) {
      return std::optional<std::string>();
    }
    return std::optional<std::string>(line);
  });
  auto read = ReadRelease(dir_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->metadata.relation_name, "r");
}

// --- Format-v3 column segments ----------------------------------------------

/// 203 rows (not a multiple of 8, so the bitmap has padding bits) with
/// nulls in every column type: a string and an int64 discrete attribute,
/// a double and an int64 numerical one.
GrrOutput MakeNullHeavy() {
  Schema s = *Schema::Make(
      {Field::Discrete("tag"),
       Field{"level", ValueType::kInt64, AttributeKind::kDiscrete},
       Field::Numerical("x", ValueType::kDouble),
       Field::Numerical("n", ValueType::kInt64)});
  TableBuilder b(s);
  for (int i = 0; i < 203; ++i) {
    const std::string text = std::string("t").append(std::to_string(i % 6));
    b.Row({i % 5 == 0 ? Value::Null() : Value(text),
           i % 7 == 0 ? Value::Null() : Value(int64_t{i % 4}),
           i % 3 == 0 ? Value::Null() : Value(i * 0.5),
           i % 4 == 0 ? Value::Null() : Value(int64_t{i % 9})});
  }
  Table t = *b.Finish();
  Rng rng(17);
  return *ApplyGrr(t, GrrParams::Uniform(0.2, 1.0), GrrOptions{}, rng);
}

/// Overwrites `width` bytes of a segment at `offset` with the
/// little-endian `value` and re-checksums it in the MANIFEST, so the
/// segment decoder — not the CRC — has to catch the damage.
void PatchSegment(const std::string& dir, const std::string& name,
                  size_t offset, uint64_t value, size_t width) {
  std::string bytes = *io::ReadFileToString(dir + "/" + name);
  ASSERT_LE(offset + width, bytes.size());
  for (size_t b = 0; b < width; ++b) {
    bytes[offset + b] = static_cast<char>(value >> (8 * b));
  }
  RewriteReleaseFile(dir, name, bytes);
}

void ExpectDataLossAt(const std::string& dir, const std::string& file,
                      size_t byte, const std::string& what) {
  auto r = ReadRelease(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  const std::string message = r.status().message();
  EXPECT_NE(message.find(file + "' byte " + std::to_string(byte) + ":"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(what), std::string::npos) << message;
  // VerifyRelease runs the same decoder over the bytes it verified.
  auto verification = VerifyRelease(dir);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_EQ(verification->status.ToString(), r.status().ToString());
}

TEST_F(ReleaseTest, NullHeavySegmentsRoundTripExactly) {
  GrrOutput grr = MakeNullHeavy();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  // uint32 codes + bitmap; int64/double values + bitmap.
  EXPECT_EQ(std::filesystem::file_size(dir_ + "/column_0.bin"),
            203u * 4 + 26);
  EXPECT_EQ(std::filesystem::file_size(dir_ + "/column_2.bin"),
            203u * 8 + 26);
  LoadedRelease loaded = *ReadRelease(dir_);
  for (size_t c = 0; c < grr.table.num_columns(); ++c) {
    const Column& want = grr.table.column(c);
    const Column& got = loaded.relation.column(c);
    EXPECT_EQ(got.null_count(), want.null_count()) << "col " << c;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(got.ValueAt(r), want.ValueAt(r)) << "row " << r << " col "
                                                 << c;
    }
  }
  EXPECT_EQ(loaded.relation.column(0).codes(), grr.table.column(0).codes());
}

TEST_F(ReleaseTest, SegmentsAreByteIdenticalAtEveryThreadCount) {
  GrrOutput grr = MakeNullHeavy();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  for (size_t threads : {2u, 8u}) {
    ExecutionOptions exec;
    exec.num_threads = threads;
    const std::string other = dir_ + "_t" + std::to_string(threads);
    std::filesystem::remove_all(other);
    ASSERT_TRUE(WriteRelease(grr, other, exec).ok());
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(*io::ReadFileToString(other + "/" + name),
                *io::ReadFileToString(entry.path().string()))
          << name << " at " << threads << " threads";
      ++files;
    }
    EXPECT_GE(files, 7u);  // MANIFEST, meta, 4 segments, domains, dict
    // Decoding in parallel yields the same relation, codes included.
    LoadedRelease loaded = *ReadRelease(other, exec);
    EXPECT_EQ(loaded.relation.column(0).codes(),
              grr.table.column(0).codes());
    std::filesystem::remove_all(other);
  }
}

TEST_F(ReleaseTest, SegmentWrongLengthIsDataLossNamingFileAndByte) {
  ASSERT_TRUE(WriteRelease(MakeNullHeavy(), dir_).ok());
  const std::string bytes = *io::ReadFileToString(dir_ + "/column_2.bin");
  ASSERT_EQ(bytes.size(), 203u * 8 + 26);
  // A checksum-consistent segment one value too long, then one byte too
  // short: the length check names the file and where it diverges.
  for (const std::string& wrong :
       {bytes + std::string(8, '\0'), bytes.substr(0, bytes.size() - 1)}) {
    RewriteReleaseFile(dir_, "column_2.bin", wrong);
    auto r = ReadRelease(dir_);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
    const std::string message = r.status().message();
    EXPECT_NE(message.find("column_2.bin"), std::string::npos) << message;
    EXPECT_NE(message.find("need 1650"), std::string::npos) << message;
    EXPECT_NE(message.find("diverges at byte " +
                           std::to_string(std::min<size_t>(wrong.size(),
                                                           1650))),
              std::string::npos)
        << message;
  }
}

TEST_F(ReleaseTest, SegmentCodeOutsideDictionaryIsDataLoss) {
  GrrOutput grr = MakeNullHeavy();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  const Column& tag = grr.table.column(0);
  size_t row = 0;
  while (tag.IsNull(row)) ++row;
  PatchSegment(dir_, "column_0.bin", row * 4, tag.dictionary().size(), 4);
  ExpectDataLossAt(dir_, "column_0.bin", row * 4,
                   "holds " + std::to_string(tag.dictionary().size()) +
                       " entries");
}

TEST_F(ReleaseTest, SegmentCodeDisagreeingWithValidityIsDataLoss) {
  GrrOutput grr = MakeNullHeavy();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  const Column& tag = grr.table.column(0);
  size_t valid_row = 0;
  while (tag.IsNull(valid_row)) ++valid_row;
  size_t null_row = 0;
  while (!tag.IsNull(null_row)) ++null_row;
  const std::string pristine = *io::ReadFileToString(dir_ + "/column_0.bin");
  // The null code on a valid row...
  PatchSegment(dir_, "column_0.bin", valid_row * 4, kNullCode, 4);
  ExpectDataLossAt(dir_, "column_0.bin", valid_row * 4,
                   "holds the null code but its validity bit is set");
  // ...and a real code on a null row.
  RewriteReleaseFile(dir_, "column_0.bin", pristine);
  PatchSegment(dir_, "column_0.bin", null_row * 4, 0, 4);
  ExpectDataLossAt(dir_, "column_0.bin", null_row * 4,
                   "is null but holds code 0");
}

TEST_F(ReleaseTest, SegmentNonZeroBitmapPaddingIsDataLoss) {
  ASSERT_TRUE(WriteRelease(MakeNullHeavy(), dir_).ok());
  // 203 rows use 3 bits of the last bitmap byte; set a padding bit.
  const std::string bytes = *io::ReadFileToString(dir_ + "/column_3.bin");
  const size_t last = bytes.size() - 1;
  PatchSegment(dir_, "column_3.bin", last,
               static_cast<unsigned char>(bytes[last]) | 0x80u, 1);
  ExpectDataLossAt(dir_, "column_3.bin", last, "padding bits are not zero");
}

TEST_F(ReleaseTest, SegmentNonZeroNullPayloadIsDataLoss) {
  GrrOutput grr = MakeNullHeavy();
  ASSERT_TRUE(WriteRelease(grr, dir_).ok());
  const Column& x = grr.table.column(2);
  size_t null_row = 0;
  while (!x.IsNull(null_row)) ++null_row;
  // -0.0 compares equal to 0.0 but is a second encoding of the same
  // null row; the decoder insists on all-zero bytes.
  PatchSegment(dir_, "column_2.bin", null_row * 8, 0x8000000000000000ull, 8);
  ExpectDataLossAt(dir_, "column_2.bin", null_row * 8,
                   "is null but its value bytes are not zero");
}

TEST_F(ReleaseTest, ManifestVersionOtherThanTwoOrThreeIsFailedPrecondition) {
  ASSERT_TRUE(WriteRelease(MakeGrr(), dir_).ok());
  for (const char* version : {"1", "4"}) {
    PatchManifestLines(dir_, [&](const std::string& line) {
      if (line.rfind("version: ", 0) == 0) {
        return std::optional<std::string>(std::string("version: ") + version);
      }
      return std::optional<std::string>(line);
    });
    auto r = ReadRelease(dir_);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("versions 2 and 3"),
              std::string::npos)
        << r.status().message();
  }
}

}  // namespace
}  // namespace privateclean
