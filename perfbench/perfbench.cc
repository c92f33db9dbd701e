// End-to-end benchmark program for the PrivateClean pipeline. perfbench/run.py
// builds it and drives it; see perfbench/README.md for the workloads.
//
//   perfbench setup --work DIR --seed N --rows R --threads T --trace 0|1
//       One set-up pass: generate the relation, render it to CSV,
//       privatize it, verify the release, render the reference answers
//       through the local query path, grant the ledger, start the servers
//       and check a burst of served queries against the reference.
//   perfbench run --work DIR --workload ingest|oneshot|served --seed N
//                 --seconds S --threads T --trace 0|1
//       The measured window of one workload over a set-up pass's files.
//
// Both print one JSON object of raw samples on the last stdout line;
// run.py turns the samples of all passes into the reported metrics. With
// --trace 1 the spans go to DIR/spans-<command>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/io_util.h"
#include "common/string_util.h"
#include "core/admission.h"
#include "core/privateclean.h"
#include "datagen/synthetic.h"
#include "server/client.h"
#include "server/release_cache.h"
#include "server/server.h"
#include "trace.h"

namespace fs = std::filesystem;
namespace pc = privateclean;
using perfbench::Count;
using perfbench::NowNs;
using perfbench::Tracer;
using Span = perfbench::Tracer::Span;

namespace {

// Fixed privatization parameters (GRR replacement probability for the
// discrete attributes, Laplace scale for `value`).
constexpr double kGrrP = 0.25;
constexpr double kLaplaceB = 5.0;
// ε granted to each charged tenant: far more than any run can spend.
constexpr double kTenantGrant = 1e12;
// The grants are written as this many WAL records, just below the
// ledger's auto-checkpoint threshold (1024 records), so the charges of
// every served burst and window cross a checkpoint and its stall lands in
// the charged tail. At about 50 charged queries per second a run could
// not reach the threshold from an empty ledger.
constexpr uint64_t kGrantRecords = 1000;
constexpr size_t kGrantThreads = 8;  // even: thread g grants tenant g % 2
// Rounds of Q1..Q6 per session in a set-up pass's served burst.
constexpr int kBurstRounds = 4;
constexpr size_t kSessions = 4;
constexpr size_t kServedQueries = 6;  // Q1..Q6; Q7 needs cleaning
constexpr const char* kReplaceAttr = "category";
constexpr const char* kReplaceFrom = "c4";
constexpr const char* kReplaceTo = "c3";

struct BenchQuery {
  const char* id;
  const char* sql;
  bool direct;
  bool clean;  // apply the replace rule first (cleaning + provenance path)
};

const BenchQuery kQueries[] = {
    {"q1", "SELECT count(1) FROM r WHERE category = 'c2'", false, false},
    {"q2", "SELECT avg(value) FROM r WHERE category IN ('c1', 'c3', 'c5')",
     false, false},
    {"q3", "SELECT sum(value) FROM r WHERE category = 'c4'", false, false},
    {"q4", "SELECT count(1) FROM r WHERE category = 'c1' AND region = 'c2'",
     false, false},
    {"q5",
     "SELECT count(1) FROM r GROUP BY category ORDER BY count(1) DESC "
     "LIMIT 5",
     false, false},
    {"q6", "SELECT count(1) FROM r WHERE value >= 20 AND value < 40", true,
     false},
    {"q7", "SELECT avg(value) FROM r WHERE category = 'c3'", false, true},
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

// Span names for the per-query execute spans of the served mix.
const char* const kServedExecuteSpan[kServedQueries] = {
    "core.sql.execute.q1", "core.sql.execute.q2", "core.sql.execute.q3",
    "core.sql.execute.q4", "core.sql.execute.q5", "core.sql.execute.q6"};
const char* const kServedAnonSpan[kServedQueries] = {
    "served.anon.q1", "served.anon.q2", "served.anon.q3",
    "served.anon.q4", "served.anon.q5", "served.anon.q6"};
const char* const kServedChargedSpan[kServedQueries] = {
    "served.charged.q1", "served.charged.q2", "served.charged.q3",
    "served.charged.q4", "served.charged.q5", "served.charged.q6"};
const char* const kDirectAnonSpan[kServedQueries] = {
    "direct.anon.q1", "direct.anon.q2", "direct.anon.q3",
    "direct.anon.q4", "direct.anon.q5", "direct.anon.q6"};
const char* const kDirectChargedSpan[kServedQueries] = {
    "direct.charged.q1", "direct.charged.q2", "direct.charged.q3",
    "direct.charged.q4", "direct.charged.q5", "direct.charged.q6"};

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

std::string TenantOf(size_t session) {
  // Sessions 0 and 1 are anonymous, 2 and 3 charged tenants.
  return session < 2 ? "" : "tenant" + std::to_string(session);
}

// ---------------------------------------------------------------------------
// Results: raw samples, attempts and failures, printed as one JSON line.

class Report {
 public:
  void Sample(const std::string& series, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    series_[series].push_back(value);
  }

  void Add(const std::string& scalar, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    scalars_[scalar] += value;
  }

  // One attempted operation; `error` empty means it succeeded.
  void Op(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(error);
  }

  void Print() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    out.precision(17);
    out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      out << (i ? ", " : "") << Quote(errors_[i]);
    }
    out << "], \"scalars\": {";
    bool first = true;
    for (const auto& [name, value] : scalars_) {
      out << (first ? "" : ", ") << Quote(name) << ": " << value;
      first = false;
    }
    out << "}, \"series\": {";
    first = true;
    for (const auto& [name, values] : series_) {
      out << (first ? "" : ", ") << Quote(name) << ": [";
      for (size_t i = 0; i < values.size(); ++i) {
        out << (i ? ", " : "") << values[i];
      }
      out << "]";
      first = false;
    }
    out << "}}\n";
    std::fputs(out.str().c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> series_;
};

// ---------------------------------------------------------------------------
// The reference answers a set-up pass renders, one block per query:
//   <id> <price as IEEE-754 hex16> <byte count>\n<answer bytes>\n

struct Reference {
  std::vector<std::string> answers;  // indexed like kQueries
  std::vector<double> prices;        // ε price of each query, unclean table
};

std::string DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(bits));
  return hex;
}

pc::Result<double> DoubleFromBits(const std::string& hex) {
  char* end = nullptr;
  const uint64_t bits = std::strtoull(hex.c_str(), &end, 16);
  if (hex.size() != 16 || end != hex.c_str() + hex.size()) {
    return pc::Status::DataLoss("malformed price bits '" + hex + "'");
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

pc::Status WriteReference(const Reference& ref, const std::string& path) {
  std::string text;
  for (size_t q = 0; q < kNumQueries; ++q) {
    text += std::string(kQueries[q].id) + " " + DoubleBits(ref.prices[q]) +
            " " + std::to_string(ref.answers[q].size()) + "\n" +
            ref.answers[q] + "\n";
  }
  return pc::io::WriteFileDurable(path, text);
}

pc::Result<Reference> ReadReference(const std::string& path) {
  PCLEAN_ASSIGN_OR_RETURN(std::string text, pc::io::ReadFileToString(path));
  Reference ref;
  size_t pos = 0;
  for (size_t q = 0; q < kNumQueries; ++q) {
    size_t eol = text.find('\n', pos);
    std::istringstream header(text.substr(pos, eol - pos));
    std::string id, price;
    size_t bytes = 0;
    if (eol == std::string::npos || !(header >> id >> price >> bytes) ||
        id != kQueries[q].id || eol + 1 + bytes + 1 > text.size()) {
      return pc::Status::DataLoss("malformed reference block " +
                                  std::to_string(q + 1) + " in " + path);
    }
    PCLEAN_ASSIGN_OR_RETURN(double bits, DoubleFromBits(price));
    ref.prices.push_back(bits);
    ref.answers.push_back(text.substr(eol + 1, bytes));
    pos = eol + 1 + bytes + 1;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Input generation: the paper's Table 1 synthetic relation (category Zipf
// over N = 50 with z = 2, value in [0, 100]) plus a 20-value `region`
// attribute for the §10 conjunctive estimator, all from src/datagen.

pc::Result<pc::Table> GenerateRelation(size_t rows, uint64_t seed) {
  pc::Rng rng(0x5EED000000000000ULL ^ seed);
  pc::SyntheticOptions main_options;
  main_options.num_rows = rows;
  PCLEAN_ASSIGN_OR_RETURN(pc::Table table,
                          pc::GenerateSynthetic(main_options, rng));
  pc::SyntheticOptions region_options;
  region_options.num_rows = rows;
  region_options.num_distinct = 20;
  region_options.zipf_skew = 1.0;
  PCLEAN_ASSIGN_OR_RETURN(pc::Table regions,
                          pc::GenerateSynthetic(region_options, rng));
  PCLEAN_RETURN_NOT_OK(table.AddColumn(pc::Field::Discrete("region"),
                                       std::move(*regions.mutable_column(0))));
  return table;
}

uint64_t GrrSeed(uint64_t seed) { return 0xC0FFEE0000000000ULL ^ seed; }

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// The operations, each a copy of the CLI's call sequence with a span
// around every call into a library layer.

// `pclean privatize`: read, infer, parse, randomize, write + fsync.
pc::Status Privatize(const std::string& csv_path, const std::string& out_dir,
                     uint64_t seed, const pc::ExecutionOptions& exec,
                     Tracer* tracer, uint64_t request) {
  Span op(tracer, "op.privatize", request);
  std::string text;
  {
    Span span(tracer, "io.read_input", request);
    std::ifstream f(csv_path, std::ios::binary);
    if (!f) return pc::Status::IOError("cannot open '" + csv_path + "'");
    std::ostringstream buffer;
    buffer << f.rdbuf();
    text = buffer.str();
  }
  pc::CsvOptions csv_options;
  csv_options.error_context = csv_path;
  csv_options.exec = exec;
  pc::Schema schema;
  {
    Span span(tracer, "table.csv.infer_schema", request);
    PCLEAN_ASSIGN_OR_RETURN(schema, pc::InferCsvSchema(text, csv_options));
  }
  pc::Result<pc::Table> table = pc::Status::Internal("unset");
  {
    Span span(tracer, "table.csv.parse", request);
    table = pc::CsvToTable(text, schema, csv_options);
  }
  PCLEAN_RETURN_NOT_OK(table.status());
  pc::Rng rng(GrrSeed(seed));
  pc::GrrOptions grr_options;
  grr_options.exec = exec;
  pc::Result<pc::GrrOutput> grr = pc::Status::Internal("unset");
  {
    Span span(tracer, "privacy.grr.apply", request);
    grr = pc::ApplyGrr(*table, pc::GrrParams::Uniform(kGrrP, kLaplaceB),
                       grr_options, rng);
  }
  PCLEAN_RETURN_NOT_OK(grr.status());
  Count(tracer, "privacy.grr.regenerations",
        static_cast<double>(grr->total_regenerations), request);
  {
    Span span(tracer, "core.release.write", request);
    PCLEAN_RETURN_NOT_OK(pc::WriteRelease(*grr, out_dir, exec));
  }
  if (tracer != nullptr) {
    Count(tracer, "core.release.bytes_written",
          static_cast<double>(DirectoryBytes(out_dir)), request);
  }
  Span span(tracer, "privacy.accountant", request);
  return pc::AccountPrivacy(grr->metadata).status();
}

// `pclean verify`.
pc::Status Verify(const std::string& dir, Tracer* tracer, uint64_t request) {
  Span op(tracer, "op.verify", request);
  pc::Result<pc::ReleaseVerification> verification =
      pc::Status::Internal("unset");
  {
    Span span(tracer, "core.release.verify", request);
    verification = pc::VerifyRelease(dir);
  }
  PCLEAN_RETURN_NOT_OK(verification.status());
  return verification->status;
}

// Opens a release: ReadRelease + FromPrivateRelation (= OpenRelease).
pc::Result<pc::PrivateTable> Open(const std::string& dir,
                                  const pc::ExecutionOptions& exec,
                                  Tracer* tracer, uint64_t request) {
  pc::Result<pc::LoadedRelease> loaded = pc::Status::Internal("unset");
  {
    Span span(tracer, "core.release.read", request);
    loaded = pc::ReadRelease(dir, exec);
  }
  PCLEAN_RETURN_NOT_OK(loaded.status());
  if (tracer != nullptr) {
    Count(tracer, "core.release.bytes_read",
          static_cast<double>(DirectoryBytes(dir)), request);
  }
  Span span(tracer, "core.private_table.from_relation", request);
  return pc::PrivateTable::FromPrivateRelation(std::move(loaded->relation),
                                               std::move(loaded->metadata));
}

pc::Status CleanForQ7(pc::PrivateTable* table, Tracer* tracer,
                      uint64_t request) {
  Span span(tracer, "cleaning.clean", request);
  return table->Clean(pc::FindReplace::Single(
      kReplaceAttr, pc::Value(kReplaceFrom), pc::Value(kReplaceTo)));
}

// Executes and renders one query on an open table, as `pclean query`
// does after the open (and the cleaning rule, which the caller applies).
pc::Result<std::string> Answer(const pc::PrivateTable& table,
                               const BenchQuery& query,
                               const pc::ExecutionOptions& exec,
                               const char* execute_span, Tracer* tracer,
                               uint64_t request) {
  pc::QueryOptions options;
  options.exec = exec;
  pc::Result<pc::SqlResultSet> rs = pc::Status::Internal("unset");
  {
    Span span(tracer, execute_span, request);
    rs = query.direct ? pc::ExecuteSqlQueryDirect(table, query.sql, exec)
                      : pc::ExecuteSqlQuery(table, query.sql, options);
  }
  PCLEAN_RETURN_NOT_OK(rs.status());
  if (tracer != nullptr && !rs->rows.empty()) {
    Count(tracer, "core.query.arena_peak_bytes",
          static_cast<double>(rs->rows[0].result.memory.arena_peak_bytes),
          request);
  }
  Span span(tracer, "core.sql.render", request);
  std::ostringstream text;
  pc::RenderSqlResultText(*rs, query.direct, options.confidence, text);
  return text.str();
}

// `pclean query` (one-shot): open, clean if the query asks, execute,
// render. Nothing is kept between calls.
pc::Result<std::string> OneShot(const std::string& dir, const BenchQuery& query,
                                const pc::ExecutionOptions& exec,
                                Tracer* tracer, uint64_t request) {
  Span op(tracer, "op.oneshot", request);
  PCLEAN_ASSIGN_OR_RETURN(pc::PrivateTable table,
                          Open(dir, exec, tracer, request));
  if (query.clean) PCLEAN_RETURN_NOT_OK(CleanForQ7(&table, tracer, request));
  return Answer(table, query, exec, "core.sql.execute", tracer, request);
}

std::string Mismatch(const std::string& what, const std::string& got,
                     const std::string& want) {
  return what + ": answer differs from the reference (got " +
         std::to_string(got.size()) + " bytes, want " +
         std::to_string(want.size()) + ")";
}

// Answers the whole query set on one release through the local path: the
// first query as a timed one-shot op (open + execute + render), the rest
// on the same open table, Q7 last because cleaning mutates the table.
// Also prices each query; the ε price reads only the mechanism metadata,
// which cleaning keeps.
pc::Result<Reference> AnswerAll(const std::string& dir,
                                const pc::ExecutionOptions& exec,
                                Report& report, Tracer* tracer,
                                uint64_t request) {
  const int64_t start = NowNs();
  std::optional<Span> op;
  op.emplace(tracer, "op.oneshot", request);
  PCLEAN_ASSIGN_OR_RETURN(pc::PrivateTable table,
                          Open(dir, exec, tracer, request));
  Reference ref;
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (kQueries[q].clean) {
      PCLEAN_RETURN_NOT_OK(CleanForQ7(&table, tracer, request));
    }
    PCLEAN_ASSIGN_OR_RETURN(
        std::string text,
        Answer(table, kQueries[q], exec, "core.sql.execute", tracer, request));
    if (q == 0) {
      op.reset();
      report.Sample("oneshot_ms", MsSince(start));
    }
    ref.answers.push_back(std::move(text));
    PCLEAN_ASSIGN_OR_RETURN(pc::ParsedSql parsed,
                            pc::ParseSql(kQueries[q].sql));
    PCLEAN_ASSIGN_OR_RETURN(double price,
                            pc::QueryEpsilonCost(table, parsed));
    ref.prices.push_back(price);
  }
  return ref;
}

// The first query whose answer differs from the reference, or "".
std::string FirstMismatch(const Reference& got, const Reference& want) {
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (got.answers[q] != want.answers[q]) {
      return Mismatch(kQueries[q].id, got.answers[q], want.answers[q]);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Served queries: four closed-loop sessions, two anonymous and two
// charged tenants, each cycling Q1..Q6 from its own offset.

// What the charged sessions were acknowledged, for the ledger check.
struct ChargeTally {
  std::mutex mu;
  std::map<std::string, double> acked_price;  // tenant -> Σ acked prices
  uint64_t acked = 0;                         // acknowledged charged queries
  uint64_t sent = 0;                          // queries sent, all sessions

  void Add(const std::string& tenant, double price_sum, uint64_t charged,
           uint64_t queries) {
    std::lock_guard<std::mutex> lock(mu);
    if (!tenant.empty()) acked_price[tenant] += price_sum;
    acked += charged;
    sent += queries;
  }
};

// Checks a served answer: anonymous answers equal the reference bytes;
// charged ones carry the admission line for the query's price first.
std::string CheckServed(const std::string& tenant, size_t q,
                        const std::string& text, const Reference& ref) {
  std::string body = text;
  if (!tenant.empty()) {
    const std::string prefix = "charged epsilon " +
                               pc::FormatDouble(ref.prices[q]) +
                               " to tenant '" + tenant + "' (remaining ";
    size_t eol = text.find('\n');
    if (text.compare(0, prefix.size(), prefix) != 0 ||
        eol == std::string::npos) {
      return std::string(kQueries[q].id) + ": bad admission line for " +
             tenant;
    }
    body = text.substr(eol + 1);
  }
  if (body != ref.answers[q]) {
    return Mismatch(kQueries[q].id, body, ref.answers[q]);
  }
  return "";
}

// True once session loop iteration `i` should not run: after `rounds`
// passes over the mix when rounds > 0, else at the deadline.
bool SessionDone(size_t i, int rounds, int64_t deadline_ns) {
  return rounds > 0 ? i / kServedQueries >= static_cast<size_t>(rounds)
                    : NowNs() >= deadline_ns;
}

// Answers query q of the served mix for one session; `t` is null when
// the op is not traced.
using SessionQuery = std::function<pc::Result<std::string>(
    size_t q, Tracer* t, uint64_t request)>;

// One closed-loop path over the served mix: how a session starts and
// answers a query, and how its ops are named.
struct SessionPath {
  // "served" or "direct": prefixes the sample series and error messages.
  std::string name;
  // Starts session s and returns its query function.
  std::function<pc::Result<SessionQuery>(size_t session)> start;
  // Root span of each query for anonymous [0] and charged [1] sessions.
  const char* const* root_spans[2];
  // Request ids are (session + request_base + 1) << 40 | op index.
  uint64_t request_base = 0;
  // Trace every other pass over the mix only, sampling the ops as
  // <name>_traced_ms and <name>_bare_ms, so the traced run measures its
  // own overhead.
  bool alternate_tracing = false;
};

// Runs the kSessions closed-loop sessions of one path, session s cycling
// Q1..Q6 from offset s. Every answer is checked against the reference
// and every acknowledged charge tallied.
void RunSessions(const SessionPath& path, const Reference& ref,
                 int64_t deadline_ns, int rounds, Tracer* tracer,
                 Report& report, ChargeTally& tally) {
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      const std::string tenant = TenantOf(s);
      pc::Result<SessionQuery> query = path.start(s);
      if (!query.ok()) {
        report.Op(path.name + " session: " + query.status().ToString());
        return;
      }
      const std::string series =
          path.name + (tenant.empty() ? ".anon_ms." : ".charged_ms.");
      const char* const* root = path.root_spans[tenant.empty() ? 0 : 1];
      double price_sum = 0.0;
      uint64_t charged = 0;
      uint64_t sent = 0;
      for (size_t i = 0; !SessionDone(i, rounds, deadline_ns); ++i) {
        const size_t q = (s + i) % kServedQueries;
        const uint64_t request =
            (uint64_t{s + 1 + path.request_base} << 40) | i;
        Tracer* t = path.alternate_tracing && (i / kServedQueries) % 2 == 1
                        ? nullptr
                        : tracer;
        const int64_t t0 = NowNs();
        pc::Result<std::string> text = pc::Status::Internal("unset");
        {
          Span span(t, root[q], request);
          text = (*query)(q, t, request);
        }
        const double ms = MsSince(t0);
        ++sent;
        if (!text.ok()) {
          report.Op(path.name + " " + kQueries[q].id + ": " +
                    text.status().ToString());
          continue;
        }
        if (!tenant.empty()) {
          price_sum += ref.prices[q];
          ++charged;
        }
        report.Sample(series + kQueries[q].id, ms);
        if (path.alternate_tracing) {
          report.Sample(path.name + (t != nullptr ? "_traced_ms" : "_bare_ms"),
                        ms);
        }
        report.Op(CheckServed(tenant, q, *text, ref));
      }
      tally.Add(tenant, price_sum, charged, sent);
    });
  }
  for (std::thread& t : threads) t.join();
  report.Add(path.name + "_wall_s",
             static_cast<double>(NowNs() - start) / 1e9);
}

// Fresh ledger with every charged tenant granted kTenantGrant in
// kGrantRecords records; returns its last_seq. The grants come from
// kGrantThreads threads at once, so group commit makes them durable in a
// few fsyncs rather than one each.
pc::Result<uint64_t> GrantTenants(const std::string& ledger_dir) {
  std::error_code ec;
  fs::remove_all(ledger_dir, ec);
  PCLEAN_ASSIGN_OR_RETURN(pc::BudgetLedger ledger,
                          pc::BudgetLedger::Open(ledger_dir));
  // Thread g writes records g, g + kGrantThreads, ...; record i grants
  // tenant i % 2, so each tenant gets half of the records.
  const double per_record = kTenantGrant / (kGrantRecords / 2);
  std::vector<pc::Status> status(kGrantThreads);
  std::vector<std::thread> threads;
  for (size_t g = 0; g < kGrantThreads; ++g) {
    threads.emplace_back([&, g] {
      const std::string tenant = TenantOf(2 + g % 2);
      for (uint64_t i = g; i < kGrantRecords && status[g].ok();
           i += kGrantThreads) {
        status[g] = ledger.Grant(tenant, per_record);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const pc::Status& st : status) PCLEAN_RETURN_NOT_OK(st);
  return ledger.last_seq();
}

// Reopens the ledger from disk once nothing holds it: each charged
// tenant's durable `spent` must equal the sum of the prices of its
// acknowledged queries, summed in the order its one session was charged.
void CheckLedger(const std::string& ledger_dir, uint64_t seq_before,
                 const ChargeTally& tally, Report& report) {
  pc::Result<pc::BudgetLedger> ledger = pc::BudgetLedger::Open(ledger_dir);
  if (!ledger.ok()) {
    report.Op("ledger reopen: " + ledger.status().ToString());
    return;
  }
  for (const auto& [tenant, acked] : tally.acked_price) {
    pc::Result<pc::TenantBudget> budget = ledger->Budget(tenant);
    if (!budget.ok()) {
      report.Op("ledger: " + budget.status().ToString());
    } else if (budget->spent != acked) {
      report.Op("ledger: tenant " + tenant + " spent " +
                pc::FormatDouble(budget->spent) + " but acknowledged " +
                pc::FormatDouble(acked));
    } else {
      report.Op("");
    }
  }
  report.Add("ledger_records",
             static_cast<double>(ledger->last_seq() - seq_before));
  report.Add("ledger_charged", static_cast<double>(tally.acked));
}

// Starts the servers over `release_dir`, runs the sessions, drains, and
// checks the served count and the ledger. A server with a ledger admits
// only sessions that name a tenant, so the anonymous sessions get their
// own ledger-less server in the same process, over the same release.
pc::Status ServeAndCheck(const std::string& work,
                         const std::string& release_dir, const Reference& ref,
                         int pool_threads, int64_t window_ns, int rounds,
                         Tracer* tracer, Report& report) {
  const std::string ledger_dir = work + "/ledger-served";
  PCLEAN_ASSIGN_OR_RETURN(uint64_t seq_before, GrantTenants(ledger_dir));
  pc::server::ServerOptions options;
  options.release_dirs = {release_dir};
  options.pool_threads = pool_threads;
  options.query_exec.num_threads = 1;
  ChargeTally tally;
  {
    options.socket_path = work + "/anon.sock";
    PCLEAN_ASSIGN_OR_RETURN(pc::server::Server anon,
                            pc::server::Server::Start(options));
    options.socket_path = work + "/charged.sock";
    options.ledger_dir = ledger_dir;
    PCLEAN_ASSIGN_OR_RETURN(pc::server::Server charged,
                            pc::server::Server::Start(options));
    SessionPath path;
    path.name = "served";
    path.start = [&](size_t s) -> pc::Result<SessionQuery> {
      const std::string tenant = TenantOf(s);
      PCLEAN_ASSIGN_OR_RETURN(
          pc::server::Client connected,
          pc::server::Client::Connect(
              tenant.empty() ? anon.socket_path() : charged.socket_path(),
              tenant));
      // The session says BYE when its query function goes away.
      std::shared_ptr<pc::server::Client> client(
          new pc::server::Client(std::move(connected)),
          [](pc::server::Client* c) {
            (void)c->Bye();
            delete c;
          });
      return SessionQuery([client](size_t q, Tracer*, uint64_t) {
        pc::server::QueryRequest query;
        query.sql = kQueries[q].sql;
        query.direct = kQueries[q].direct;
        return client->Query(query);
      });
    };
    path.root_spans[0] = kServedAnonSpan;
    path.root_spans[1] = kServedChargedSpan;
    RunSessions(path, ref, NowNs() + window_ns, rounds, tracer, report,
                tally);
    const uint64_t served = anon.queries_served() + charged.queries_served();
    report.Add("served_queries", static_cast<double>(served));
    report.Add("served_sent", static_cast<double>(tally.sent));
    report.Op(served == tally.sent
                  ? ""
                  : "servers answered " + std::to_string(served) + " of " +
                        std::to_string(tally.sent) + " queries sent");
    PCLEAN_RETURN_NOT_OK(anon.Drain());
    PCLEAN_RETURN_NOT_OK(charged.Drain());
  }  // the charged server's destruction closes the ledger
  CheckLedger(ledger_dir, seq_before, tally, report);
  return pc::Status::OK();
}

// One served query through the layers the server calls, each in a span:
// parse, and for a charged tenant price + admit (WAL charge and fsync),
// then execute and render. Returns the served text, or the error.
pc::Result<std::string> DirectQuery(const pc::PrivateTable& table,
                                    pc::BudgetLedger& ledger,
                                    const std::string& tenant, size_t q,
                                    Tracer* t, uint64_t request) {
  pc::Result<pc::ParsedSql> parsed = pc::Status::Internal("unset");
  {
    Span span(t, "query.sql.parse", request);
    parsed = pc::ParseSql(kQueries[q].sql);
  }
  PCLEAN_RETURN_NOT_OK(parsed.status());
  std::string text;
  if (!tenant.empty()) {
    {
      Span span(t, "core.admission.price", request);
      PCLEAN_RETURN_NOT_OK(pc::QueryEpsilonCost(table, *parsed).status());
    }
    pc::Result<pc::AdmissionTicket> ticket = pc::Status::Internal("unset");
    {
      Span span(t, "core.admission.admit", request);
      ticket = pc::AdmitSqlQuery(ledger, tenant, table, kQueries[q].sql);
    }
    PCLEAN_RETURN_NOT_OK(ticket.status());
    text = pc::RenderAdmissionLine(tenant, *ticket,
                                   ledger.BudgetOrZero(tenant));
  }
  PCLEAN_ASSIGN_OR_RETURN(
      std::string answer,
      Answer(table, kQueries[q], pc::ExecutionOptions{}, kServedExecuteSpan[q],
             t, request));
  return text + answer;
}

// The served mix again at the same concurrency, calling the layers
// directly on one shared PrivateTable and BudgetLedger (traced runs only):
// the per-layer split of a served query. Whole rounds over the mix
// alternate traced and bare so the traced run measures its own overhead.
void RunDirectLayers(const std::string& work, const std::string& release_dir,
                     const Reference& ref, int64_t window_ns, int rounds,
                     Tracer* tracer, Report& report) {
  const std::string ledger_dir = work + "/ledger-direct";
  pc::Result<uint64_t> seq_before = GrantTenants(ledger_dir);
  if (!seq_before.ok()) {
    report.Op("direct ledger: " + seq_before.status().ToString());
    return;
  }
  ChargeTally tally;
  {
    pc::Result<pc::BudgetLedger> ledger = pc::BudgetLedger::Open(ledger_dir);
    pc::server::ReleaseCache cache;
    auto opened = cache.Acquire(release_dir);
    if (!ledger.ok() || !opened.ok()) {
      report.Op("direct open: " + (ledger.ok() ? opened.status().ToString()
                                               : ledger.status().ToString()));
      return;
    }
    const pc::PrivateTable& table = (*opened)->table;
    SessionPath path;
    path.name = "direct";
    path.start = [&](size_t s) -> pc::Result<SessionQuery> {
      return SessionQuery([&, tenant = TenantOf(s)](size_t q, Tracer* t,
                                                     uint64_t request) {
        return DirectQuery(table, *ledger, tenant, q, t, request);
      });
    };
    path.root_spans[0] = kDirectAnonSpan;
    path.root_spans[1] = kDirectChargedSpan;
    path.request_base = kSessions;
    path.alternate_tracing = true;
    RunSessions(path, ref, NowNs() + window_ns, rounds, tracer, report,
                tally);
  }  // closes the ledger
  CheckLedger(ledger_dir, *seq_before, tally, report);
}

// ---------------------------------------------------------------------------
// Commands.

struct Args {
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) {
      std::fprintf(stderr, "perfbench: missing --%s\n", name.c_str());
      std::exit(2);
    }
    return it->second;
  }
  uint64_t Int(const std::string& name) const {
    return std::stoull(Get(name));
  }
};

// One set-up pass. Writes data.csv, release/ and reference.txt into the
// work directory; the measured window of `run` reads them.
int Setup(const Args& args) {
  const int64_t start = NowNs();
  const std::string work = args.Get("work");
  const uint64_t seed = args.Int("seed");
  const size_t rows = args.Int("rows");
  const int threads = static_cast<int>(args.Int("threads"));
  Tracer tracer;
  Tracer* t = args.Int("trace") ? &tracer : nullptr;
  pc::ExecutionOptions exec;
  exec.num_threads = threads;
  Report report;
  auto fail = [&](const std::string& what, const pc::Status& status) {
    report.Op(what + ": " + status.ToString());
    report.Print();
    return 1;
  };

  std::error_code ec;
  fs::create_directories(work, ec);
  const std::string csv_path = work + "/data.csv";
  const std::string release_dir = work + "/release";
  {
    Span span(t, "datagen.generate", 0);
    pc::Result<pc::Table> table = GenerateRelation(rows, seed);
    if (!table.ok()) return fail("generate", table.status());
    pc::CsvOptions csv_options;
    csv_options.exec = exec;
    const std::string text = pc::TableToCsv(*table, csv_options);
    pc::Status written = pc::io::WriteFileDurable(csv_path, text);
    if (!written.ok()) return fail("write csv", written);
    report.Add("input_bytes", static_cast<double>(text.size()));
  }

  int64_t op_start = NowNs();
  pc::Status privatized = Privatize(csv_path, release_dir, seed, exec, t, 1);
  report.Sample("privatize_ms", MsSince(op_start));
  report.Op(privatized.ok() ? "" : "privatize: " + privatized.ToString());
  if (!privatized.ok()) return fail("privatize", privatized);
  report.Add("release_bytes",
             static_cast<double>(DirectoryBytes(release_dir)));

  op_start = NowNs();
  pc::Status verified = Verify(release_dir, t, 2);
  report.Sample("verify_ms", MsSince(op_start));
  report.Op(verified.ok() ? "" : "verify: " + verified.ToString());

  // Reference answers through the local path.
  pc::Result<Reference> ref = AnswerAll(release_dir, exec, report, t, 3);
  if (!ref.ok()) return fail("reference answers", ref.status());
  pc::Status written = WriteReference(*ref, work + "/reference.txt");
  if (!written.ok()) return fail("write reference", written);

  // Ledger grants, server start, and a burst of served queries checked
  // against the reference.
  pc::Status served = ServeAndCheck(work, release_dir, *ref, threads, 0,
                                    kBurstRounds, t, report);
  if (!served.ok()) return fail("serve", served);
  if (t != nullptr) {
    RunDirectLayers(work, release_dir, *ref, 0, kBurstRounds, t, report);
  }

  // Serving must leave the release as it was: it still verifies, and a
  // one-shot Q7 (the cleaning path) still answers as the reference.
  // These also give the workloads that do not verify or query in their
  // own window more than one sample of each per pass.
  op_start = NowNs();
  verified = Verify(release_dir, t, 4);
  report.Sample("verify_ms", MsSince(op_start));
  report.Op(verified.ok() ? ""
                          : "verify after serving: " + verified.ToString());
  const size_t q7 = kNumQueries - 1;
  op_start = NowNs();
  pc::Result<std::string> text =
      OneShot(release_dir, kQueries[q7], exec, t, 5);
  report.Sample("oneshot_ms", MsSince(op_start));
  std::string error;
  if (!text.ok()) {
    error = "q7 after serving: " + text.status().ToString();
  } else if (*text != ref->answers[q7]) {
    error = Mismatch("q7 after serving", *text, ref->answers[q7]);
  }
  report.Op(error);
  report.Add("setup_s", static_cast<double>(NowNs() - start) / 1e9);
  if (t != nullptr && !tracer.WriteJsonl(work + "/spans-setup.jsonl")) {
    report.Op("cannot write spans");
  }
  report.Print();
  return 0;
}

// The measured window of one workload.
int Run(const Args& args) {
  const std::string work = args.Get("work");
  const std::string workload = args.Get("workload");
  const uint64_t seed = args.Int("seed");
  const int threads = static_cast<int>(args.Int("threads"));
  const int64_t window_ns = static_cast<int64_t>(args.Int("seconds")) *
                            1000000000LL;
  const bool traced = args.Int("trace") != 0;
  Tracer tracer;
  pc::ExecutionOptions exec;
  exec.num_threads = threads;
  Report report;
  const std::string csv_path = work + "/data.csv";
  const std::string release_dir = work + "/release";
  pc::Result<Reference> ref = ReadReference(work + "/reference.txt");
  if (!ref.ok()) {
    report.Op("reference: " + ref.status().ToString());
    report.Print();
    return 1;
  }
  pc::Result<std::string> manifest =
      pc::io::ReadFileToString(release_dir + "/MANIFEST");
  if (!manifest.ok()) {
    report.Op("manifest: " + manifest.status().ToString());
    report.Print();
    return 1;
  }

  if (workload == "ingest") {
    // Repeated privatize of the CSV into a fresh release. Every release
    // must verify, equal the reference release's MANIFEST (which pins
    // every file's CRC) and answer the reference set byte for byte.
    const std::string out_dir = work + "/ingest";
    const int64_t deadline = NowNs() + window_ns;
    for (uint64_t op = 0; op == 0 || NowNs() < deadline; ++op) {
      Tracer* t = traced && op % 2 == 0 ? &tracer : nullptr;
      const uint64_t request = op + 1;
      std::error_code ec;
      fs::remove_all(out_dir, ec);
      const int64_t t0 = NowNs();
      pc::Status privatized = Privatize(csv_path, out_dir, seed, exec, t,
                                        request);
      const double ms = MsSince(t0);
      if (!privatized.ok()) {
        report.Op("privatize: " + privatized.ToString());
        continue;
      }
      report.Sample("privatize_ms", ms);
      if (traced) report.Sample(t ? "op_traced_ms" : "op_bare_ms", ms);
      const int64_t v0 = NowNs();
      pc::Status verified = Verify(out_dir, t, request);
      report.Sample("verify_ms", MsSince(v0));
      std::string error;
      if (!verified.ok()) error = "verify: " + verified.ToString();
      pc::Result<std::string> written =
          pc::io::ReadFileToString(out_dir + "/MANIFEST");
      if (error.empty() && (!written.ok() || *written != *manifest)) {
        error = "release differs from the reference release";
      }
      if (error.empty()) {
        pc::Result<Reference> answers =
            AnswerAll(out_dir, exec, report, t, request);
        error = answers.ok() ? FirstMismatch(*answers, *ref)
                             : "answers: " + answers.status().ToString();
      }
      report.Op(error);
    }
    std::error_code ec;
    fs::remove_all(out_dir, ec);
  } else if (workload == "oneshot") {
    // Repeated one-shot queries over Q1..Q7 with a verify op after every
    // second query; each op starts from the release directory.
    const int64_t deadline = NowNs() + window_ns;
    size_t next_query = 0;
    for (uint64_t op = 0; op == 0 || NowNs() < deadline; ++op) {
      // Ops alternate traced and bare; the mix has an odd number of
      // queries, so each query is traced every other cycle.
      Tracer* t = traced && next_query % 2 == 0 ? &tracer : nullptr;
      const uint64_t request = op + 1;
      const int64_t t0 = NowNs();
      if (op % 3 == 2) {
        pc::Status verified = Verify(release_dir, t, request);
        report.Sample("verify_ms", MsSince(t0));
        report.Op(verified.ok() ? "" : "verify: " + verified.ToString());
        continue;
      }
      const size_t q = next_query++ % kNumQueries;
      pc::Result<std::string> text =
          OneShot(release_dir, kQueries[q], exec, t, request);
      const double ms = MsSince(t0);
      if (!text.ok()) {
        report.Op(std::string(kQueries[q].id) + ": " +
                  text.status().ToString());
        continue;
      }
      report.Sample("oneshot_ms", ms);
      if (traced) report.Sample(t ? "op_traced_ms" : "op_bare_ms", ms);
      report.Op(*text == ref->answers[q]
                    ? ""
                    : Mismatch(kQueries[q].id, *text, ref->answers[q]));
    }
  } else if (workload == "served") {
    // The server over the warm release with a fresh ledger. A traced run
    // spends the second half of the window calling the layers directly.
    const int64_t served_ns = traced ? window_ns / 2 : window_ns;
    pc::Status served = ServeAndCheck(work, release_dir, *ref, threads,
                                      served_ns, 0, traced ? &tracer : nullptr,
                                      report);
    if (!served.ok()) report.Op("serve: " + served.ToString());
    if (traced) {
      RunDirectLayers(work, release_dir, *ref, window_ns - served_ns, 0,
                      &tracer, report);
    }
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (traced && !tracer.WriteJsonl(work + "/spans-run.jsonl")) {
    report.Op("cannot write spans");
  }
  report.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench setup|run --flag value ...\n");
    return 2;
  }
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench: expected a --flag, got '%s'\n",
                   argv[i]);
      return 2;
    }
    args.flags[argv[i] + 2] = argv[i + 1];
  }
  const std::string command = argv[1];
  if (command == "setup") return Setup(args);
  if (command == "run") return Run(args);
  if (command == "build-info") {
#ifdef PCLEAN_FAILPOINTS_ENABLED
    std::printf("failpoints on\n");
#else
    std::printf("failpoints off\n");
#endif
    return 0;
  }
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", command.c_str());
  return 2;
}
