// Format compatibility against a checked-in release. tests/golden/
// v2_release is a format-v2 release (relation in data.csv: 2000 rows,
// NULLs in every column, strings with commas, quotes, CR LF and the \N
// literal) written by the last v2 writer, and v2_release.golden holds
// the COUNT/SUM/AVG estimates that writer's build computed from it, as
// raw IEEE-754 hex. The fixture must keep opening, its estimates must
// stay bit-identical, and a v3 rewrite of it must answer and export
// exactly like the original.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/io_util.h"
#include "core/privateclean.h"
#include "core/release.h"
#include "core/sql_execution.h"

#ifndef PCLEAN_TEST_DATA_DIR
#error "PCLEAN_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace privateclean {
namespace {

const std::string kFixture =
    std::string(PCLEAN_TEST_DATA_DIR) + "/golden/v2_release";

std::string HexBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Every golden estimate of the release at `dir`, one
/// "name <estimate> <ci.lo> <ci.hi>" line each; the last one after a
/// find-and-replace cleaning step.
std::string GoldenEstimates(const std::string& dir, size_t threads) {
  PrivateTable table = *OpenRelease(dir);
  QueryOptions options;
  options.exec.num_threads = threads;
  const char* queries[][2] = {
      {"count_eecs", "SELECT count(1) FROM r WHERE major = 'EECS'"},
      {"count_empty", "SELECT count(1) FROM r WHERE major = ''"},
      {"count_section1", "SELECT count(1) FROM r WHERE section = 1"},
      {"sum_score_physics",
       "SELECT sum(score) FROM r WHERE major = 'Physics'"},
      {"sum_visits_math",
       "SELECT sum(visits) FROM r WHERE major = 'Math, Applied'"},
      {"avg_score_section3", "SELECT avg(score) FROM r WHERE section = 3"},
      {"avg_visits_in",
       "SELECT avg(visits) FROM r WHERE major IN ('EECS', 'Physics')"},
  };
  std::ostringstream out;
  auto emit = [&](const char* name, const char* sql) {
    QueryResult r =
        ExecuteSqlQuery(table, sql, options)->rows.front().result;
    out << name << " " << HexBits(r.estimate) << " " << HexBits(r.ci.lo)
        << " " << HexBits(r.ci.hi) << "\n";
  };
  for (const auto& q : queries) emit(q[0], q[1]);
  EXPECT_TRUE(table
                  .Clean(FindReplace::Single("major", Value("Math, Applied"),
                                             Value("EECS")))
                  .ok());
  emit("count_eecs_cleaned", "SELECT count(1) FROM r WHERE major = 'EECS'");
  return out.str();
}

class ReleaseGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rewrite_ = ::testing::TempDir() + "/pclean_golden_v3_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(rewrite_);
    LoadedRelease fixture = *ReadRelease(kFixture);
    ASSERT_TRUE(
        WriteRelease(fixture.relation, fixture.metadata, rewrite_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(rewrite_); }

  /// The fixture rewritten by the current (format-v3) writer.
  std::string rewrite_;
};

TEST_F(ReleaseGoldenTest, V2FixtureOpensVerified) {
  auto fixture = ReadRelease(kFixture);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  EXPECT_EQ(fixture->format_version, 2);
  EXPECT_TRUE(fixture->verified);
  EXPECT_EQ(fixture->relation.num_rows(), 2000u);
  EXPECT_GT(fixture->relation.column(0).null_count(), 0u);
  auto verification = VerifyRelease(kFixture);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_TRUE(verification->status.ok()) << verification->status.ToString();
  EXPECT_EQ(verification->format_version, 2);

  auto rewrite = ReadRelease(rewrite_);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  EXPECT_EQ(rewrite->format_version, 3);
  EXPECT_FALSE(std::filesystem::exists(rewrite_ + "/data.csv"));
}

TEST_F(ReleaseGoldenTest, EstimatesMatchGoldenForV2FixtureAndV3Rewrite) {
  const std::string golden =
      *io::ReadFileToString(std::string(PCLEAN_TEST_DATA_DIR) +
                            "/golden/v2_release.golden");
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(GoldenEstimates(kFixture, threads), golden);
    EXPECT_EQ(GoldenEstimates(rewrite_, threads), golden);
  }
}

TEST_F(ReleaseGoldenTest, V3RewriteKeepsDictionaryCodes) {
  LoadedRelease fixture = *ReadRelease(kFixture);
  LoadedRelease rewrite = *ReadRelease(rewrite_);
  const Column& a = fixture.relation.column(0);
  const Column& b = rewrite.relation.column(0);
  ASSERT_EQ(a.dictionary().size(), b.dictionary().size());
  for (uint32_t code = 0; code < a.dictionary().size(); ++code) {
    EXPECT_EQ(a.dictionary().At(code), b.dictionary().At(code));
  }
  EXPECT_EQ(a.codes(), b.codes());
}

TEST_F(ReleaseGoldenTest, ExportOfFixtureAndRewriteEqualsFixtureDataCsv) {
  const std::string data_csv = *io::ReadFileToString(kFixture + "/data.csv");
  for (const std::string& dir : {kFixture, rewrite_}) {
    for (size_t threads : {1u, 8u}) {
      ExecutionOptions exec;
      exec.num_threads = threads;
      LoadedRelease release = *ReadRelease(dir, exec);
      EXPECT_EQ(ReleaseRelationToCsv(release.relation, exec), data_csv)
          << dir << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace privateclean
