// Unit tests for the pluggable mechanism interface (privacy/mechanism.h):
// spec validation and its typed-error taxonomy, parameter feasibility,
// the MANIFEST rendering round-trip, the closed-form confusion-matrix /
// transition / epsilon math per family — and the differential tests that
// pin the interface to the legacy kernel: the "grr" mechanism must
// reproduce the pre-interface RNG draw sequence byte-for-byte, and the
// new families must stay bit-identical across thread counts.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/synthetic.h"
#include "privacy/grr.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "privacy/randomized_response.h"
#include "randomize_column.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

MechanismSpec Grr() { return MechanismSpec{}; }
MechanismSpec Hlm() { return MechanismSpec{"hlm", {}}; }
MechanismSpec Sampling(double beta) {
  return MechanismSpec{"sampling", {{"beta", beta}}};
}

Domain IntDomain(size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.emplace_back(static_cast<int64_t>(i));
  }
  return Domain::FromValues(values);
}

Column IntColumn(size_t rows, size_t n) {
  Column column = *Column::Make(ValueType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    column.AppendInt64(static_cast<int64_t>(r % n));
  }
  return column;
}

// Runs a mechanism's full-column perturbation the way ApplyGrr does:
// one shard covering every row, null bookkeeping recomputed after.
Column Perturb(const Mechanism& mechanism, const Column& input,
               const Domain& domain, uint64_t seed) {
  Column column = input;
  Rng rng(seed);
  Status s = mechanism.PerturbShard(&column, domain, rng, 0, column.size(),
                                    nullptr, nullptr, nullptr);
  EXPECT_TRUE(s.ok()) << s.message();
  column.RecomputeNullCount();
  return column;
}

// --- Registry and spec validation -----------------------------------------

TEST(MechanismSpecTest, RegistryListsAllThreeFamilies) {
  EXPECT_TRUE(IsKnownMechanism("grr"));
  EXPECT_TRUE(IsKnownMechanism("hlm"));
  EXPECT_TRUE(IsKnownMechanism("sampling"));
  EXPECT_FALSE(IsKnownMechanism("rappor"));
  EXPECT_FALSE(IsKnownMechanism(""));
  const std::vector<std::string>& known = KnownMechanisms();
  ASSERT_EQ(known.size(), 3u);
  EXPECT_EQ(known[0], "grr");
  EXPECT_EQ(known[1], "hlm");
  EXPECT_EQ(known[2], "sampling");
}

TEST(MechanismSpecTest, UnknownNameIsFailedPrecondition) {
  MechanismSpec spec;
  spec.name = "rappor";
  Status s = ValidateMechanismSpec(spec);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.message();
  // The reader-side contract: the message names the stranger and what
  // this build does support.
  EXPECT_NE(s.message().find("rappor"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("grr"), std::string::npos) << s.message();
}

TEST(MechanismSpecTest, SamplingRequiresBetaInUnitInterval) {
  MechanismSpec no_beta;
  no_beta.name = "sampling";
  Status missing = ValidateMechanismSpec(no_beta);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.IsInvalidArgument()) << missing.message();

  for (double bad : {0.0, -0.5, 1.5, kInf}) {
    Status s = ValidateMechanismSpec(Sampling(bad));
    ASSERT_FALSE(s.ok()) << "beta=" << bad;
    EXPECT_TRUE(s.IsInvalidArgument()) << s.message();
  }
  EXPECT_TRUE(ValidateMechanismSpec(Sampling(1.0)).ok());
  EXPECT_TRUE(ValidateMechanismSpec(Sampling(0.5)).ok());
}

TEST(MechanismSpecTest, UnknownParameterKeysAreRejected) {
  MechanismSpec grr_with_beta = Grr();
  grr_with_beta.params["beta"] = 0.5;
  Status s = ValidateMechanismSpec(grr_with_beta);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.message();

  MechanismSpec hlm_with_gamma = Hlm();
  hlm_with_gamma.params["gamma"] = 1.0;
  EXPECT_TRUE(ValidateMechanismSpec(hlm_with_gamma).IsInvalidArgument());

  MechanismSpec sampling_extra = Sampling(0.5);
  sampling_extra.params["gamma"] = 1.0;
  EXPECT_TRUE(ValidateMechanismSpec(sampling_extra).IsInvalidArgument());
}

TEST(MechanismSpecTest, MakeMechanismChecksParameterFeasibility) {
  for (double bad_p : {-0.1, 1.1}) {
    auto r = MakeMechanism(Grr(), bad_p);
    ASSERT_FALSE(r.ok()) << "p=" << bad_p;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().message();
  }
  EXPECT_TRUE(MakeMechanism(Grr(), 0.0).ok());
  EXPECT_TRUE(MakeMechanism(Grr(), 1.0).ok());

  EXPECT_TRUE(MakeMechanism(Hlm(), -1.0).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Hlm(), kInf).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Hlm(), std::nan("")).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Hlm(), 0.0).ok());

  EXPECT_TRUE(MakeMechanism(Sampling(0.5), -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Sampling(0.5), 1.1).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Sampling(0.0), 0.5).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMechanism(Sampling(0.5), 0.5).ok());

  MechanismSpec unknown;
  unknown.name = "staircase";
  EXPECT_TRUE(MakeMechanism(unknown, 0.5).status().IsFailedPrecondition());
}

TEST(MechanismSpecTest, RenderParseRoundTrip) {
  EXPECT_EQ(RenderMechanismSpec(Grr()), "grr");
  EXPECT_EQ(RenderMechanismSpec(Hlm()), "hlm");

  for (const MechanismSpec& spec :
       {Grr(), Hlm(), Sampling(0.5), Sampling(0.125), Sampling(1.0)}) {
    auto parsed = ParseMechanismSpec(RenderMechanismSpec(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.ValueOrDie().name, spec.name);
    ASSERT_EQ(parsed.ValueOrDie().params.size(), spec.params.size());
    for (const auto& [key, value] : spec.params) {
      auto it = parsed.ValueOrDie().params.find(key);
      ASSERT_NE(it, parsed.ValueOrDie().params.end()) << key;
      EXPECT_EQ(it->second, value) << key;
    }
  }
}

TEST(MechanismSpecTest, ParseRejectsMalformedRenderings) {
  for (const char* bad : {"", "   ", "sampling beta", "sampling beta=",
                          "sampling beta=zebra", "sampling =0.5"}) {
    auto parsed = ParseMechanismSpec(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().message();
  }
}

// --- Closed-form math per family ------------------------------------------

TEST(MechanismMathTest, GrrReplacementProbabilityIsTheStoredP) {
  MechanismPtr grr = *MakeMechanism(Grr(), 0.3);
  for (size_t n : {1u, 2u, 10u, 1000u}) {
    EXPECT_EQ(*grr->ReplacementProbability(n), 0.3) << n;
  }
}

TEST(MechanismMathTest, HlmReplacementProbabilityMatchesOptimalMatrix) {
  for (double epsilon : {0.5, 1.0, 2.0}) {
    MechanismPtr hlm = *MakeMechanism(Hlm(), epsilon);
    for (size_t n : {2u, 10u, 64u}) {
      const double nd = static_cast<double>(n);
      EXPECT_DOUBLE_EQ(*hlm->ReplacementProbability(n),
                       nd / (std::exp(epsilon) + nd - 1.0))
          << "eps=" << epsilon << " n=" << n;
    }
  }
  // More budget -> less randomization, at every domain size.
  MechanismPtr tight = *MakeMechanism(Hlm(), 0.5);
  MechanismPtr loose = *MakeMechanism(Hlm(), 3.0);
  EXPECT_GT(*tight->ReplacementProbability(10),
            *loose->ReplacementProbability(10));
}

TEST(MechanismMathTest, SamplingReplacementProbabilityCombinesBetaAndP0) {
  MechanismPtr m = *MakeMechanism(Sampling(0.5), 0.25);
  // p_eff = 1 - beta(1 - p0): rows leave the pool with probability 1-beta
  // (always replaced) or stay and get replaced with probability p0.
  EXPECT_DOUBLE_EQ(*m->ReplacementProbability(10), 1.0 - 0.5 * 0.75);
  // beta == 1 degenerates to the inner RR.
  MechanismPtr inner = *MakeMechanism(Sampling(1.0), 0.25);
  EXPECT_DOUBLE_EQ(*inner->ReplacementProbability(10), 0.25);
}

TEST(MechanismMathTest, EmptyDomainIsInvalidForEveryFamily) {
  for (const auto& [spec, param] :
       std::vector<std::pair<MechanismSpec, double>>{
           {Grr(), 0.3}, {Hlm(), 1.0}, {Sampling(0.5), 0.25}}) {
    MechanismPtr m = *MakeMechanism(spec, param);
    EXPECT_TRUE(m->ReplacementProbability(0).status().IsInvalidArgument())
        << spec.name;
    EXPECT_TRUE(m->Confusion(0).status().IsInvalidArgument()) << spec.name;
    EXPECT_TRUE(m->Epsilon(0).status().IsInvalidArgument()) << spec.name;
  }
}

TEST(MechanismMathTest, ConfusionMatrixRowsAreStochastic) {
  for (const auto& [spec, param] :
       std::vector<std::pair<MechanismSpec, double>>{
           {Grr(), 0.3}, {Hlm(), 1.5}, {Sampling(0.5), 0.25}}) {
    MechanismPtr m = *MakeMechanism(spec, param);
    for (size_t n : {2u, 7u}) {
      ConfusionMatrix c = *m->Confusion(n);
      ASSERT_EQ(c.n, n) << spec.name;
      EXPECT_NEAR(c.diagonal + (n - 1) * c.off_diagonal, 1.0, 1e-12)
          << spec.name;
      for (size_t i = 0; i < n; ++i) {
        double row_sum = 0.0;
        for (double x : c.Row(i)) row_sum += x;
        EXPECT_NEAR(row_sum, 1.0, 1e-12) << spec.name << " row " << i;
      }
      std::vector<std::vector<double>> dense = c.Dense();
      ASSERT_EQ(dense.size(), n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(dense[i][j], c.At(i, j)) << i << "," << j;
        }
      }
    }
  }
}

TEST(MechanismMathTest, GrrTransitionsBitEqualToLegacyComputation) {
  MechanismPtr grr = *MakeMechanism(Grr(), 0.25);
  for (double l : {1.0, 3.0, 7.5}) {
    TransitionProbabilities via_mechanism = *grr->Transitions(l, 10.0);
    TransitionProbabilities legacy =
        *ComputeTransitionProbabilities(0.25, l, 10.0);
    // Bit-for-bit: the estimators must see the exact same inputs they saw
    // before the interface existed.
    EXPECT_EQ(via_mechanism.true_positive, legacy.true_positive) << l;
    EXPECT_EQ(via_mechanism.false_positive, legacy.false_positive) << l;
    EXPECT_EQ(via_mechanism.true_negative, legacy.true_negative) << l;
    EXPECT_EQ(via_mechanism.false_negative, legacy.false_negative) << l;
  }
}

TEST(MechanismMathTest, GrrEpsilonUsesThePaperFormula) {
  MechanismPtr grr = *MakeMechanism(Grr(), 0.5);
  EXPECT_DOUBLE_EQ(*grr->Epsilon(10), std::log(3.0 / 0.5 - 2.0));
  EXPECT_EQ(*grr->Epsilon(10), *EpsilonForRandomizedResponse(0.5));
  // p == 0 keeps every value: no privacy.
  EXPECT_EQ(*(*MakeMechanism(Grr(), 0.0))->Epsilon(10), kInf);
}

TEST(MechanismMathTest, HlmEpsilonIsTheTargetItCalibratesTo) {
  MechanismPtr hlm = *MakeMechanism(Hlm(), 1.7);
  for (size_t n : {2u, 10u, 100u}) {
    EXPECT_DOUBLE_EQ(*hlm->Epsilon(n), 1.7) << n;
  }
  // A single-value domain carries no information to leak.
  EXPECT_EQ(*hlm->Epsilon(1), 0.0);
}

TEST(MechanismMathTest, SamplingEpsilonIsExactAndBoundedByAmplification) {
  const double beta = 0.5;
  const double p0 = 0.25;
  const size_t n = 10;
  MechanismPtr m = *MakeMechanism(Sampling(beta), p0);
  ConfusionMatrix c = *m->Confusion(n);
  EXPECT_NEAR(*m->Epsilon(n), std::log(c.diagonal / c.off_diagonal), 1e-12);
  // The subsampling amplification theorem bounds the exact epsilon: the
  // inner RR(p0) spends eps0 = ln(n/p0 - n + 1) and a beta-subsample of
  // it is ln(1 + beta(e^{eps0} - 1))-LDP.
  const double inner_eps =
      std::log(static_cast<double>(n) / p0 - static_cast<double>(n) + 1.0);
  double bound = *SamplingAmplifiedEpsilon(inner_eps, beta);
  EXPECT_LE(*m->Epsilon(n), bound + 1e-12);

  // beta == 1, p0 == 0: nothing is ever replaced.
  EXPECT_EQ(*(*MakeMechanism(Sampling(1.0), 0.0))->Epsilon(n), kInf);
}

TEST(MechanismMathTest, SamplingAmplifiedEpsilonValidatesInputs) {
  EXPECT_TRUE(SamplingAmplifiedEpsilon(-0.5, 0.5).status().IsInvalidArgument());
  EXPECT_TRUE(SamplingAmplifiedEpsilon(1.0, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(SamplingAmplifiedEpsilon(1.0, 1.5).status().IsInvalidArgument());
  // beta == 1 is the identity: no amplification.
  EXPECT_DOUBLE_EQ(*SamplingAmplifiedEpsilon(1.0, 1.0), 1.0);
  // Amplification strictly helps for beta < 1.
  EXPECT_LT(*SamplingAmplifiedEpsilon(1.0, 0.25), 1.0);
}

// --- Differential draw-sequence tests (the legacy-compatibility proof) ----

// The "grr" mechanism routed through the interface must consume the RNG
// identically to the pre-interface kernel: same Bernoulli, same uniform
// draw, same order, for every row. Byte-identical output from the same
// seed is the strongest form of "the refactor changed nothing".
TEST(MechanismDrawSequenceTest, GrrMatchesLegacyKernelByteForByte) {
  const size_t n = 10;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(5000, n);
  MechanismPtr grr = *MakeMechanism(Grr(), 0.7);

  Column via_mechanism = Perturb(*grr, input, domain, 123);

  Column via_legacy = input;
  Rng rng(123);
  ASSERT_TRUE(ApplyRandomizedResponseShard(&via_legacy, domain, 0.7, rng, 0,
                                           via_legacy.size(), nullptr,
                                           nullptr, nullptr)
                  .ok());
  via_legacy.RecomputeNullCount();

  ASSERT_EQ(via_mechanism.size(), via_legacy.size());
  for (size_t r = 0; r < via_mechanism.size(); ++r) {
    ASSERT_TRUE(via_mechanism.ValueAt(r) == via_legacy.ValueAt(r))
        << "row " << r;
  }
}

// Same proof on the string fast path: the dictionary-code kernel must be
// reached through the interface with the identical draw sequence.
TEST(MechanismDrawSequenceTest, GrrMatchesLegacyKernelOnStringColumns) {
  std::vector<Value> values = {"ann", "bob", "cid", "dee", "eve"};
  const Domain domain = Domain::FromValues(values);
  Column input = *Column::Make(ValueType::kString);
  for (size_t r = 0; r < 4000; ++r) {
    ASSERT_TRUE(input.AppendValue(values[r % values.size()]).ok());
  }
  MechanismPtr grr = *MakeMechanism(Grr(), 0.4);

  Column via_mechanism = input;
  {
    std::vector<uint32_t> codes =
        *PrepareDomainCodes(&via_mechanism, domain);
    Rng rng(99);
    ASSERT_TRUE(grr->PerturbShard(&via_mechanism, domain, rng, 0,
                                  via_mechanism.size(), nullptr, nullptr,
                                  codes.data())
                    .ok());
    via_mechanism.RecomputeNullCount();
  }

  Column via_legacy = input;
  {
    Rng rng(99);
    ASSERT_TRUE(
        RandomizeColumn(&via_legacy, domain, 0.4, rng).ok());
  }

  for (size_t r = 0; r < via_mechanism.size(); ++r) {
    ASSERT_TRUE(via_mechanism.ValueAt(r) == via_legacy.ValueAt(r))
        << "row " << r;
  }
}

// A manual replay of the documented draw sequence — one Bernoulli(p) per
// row, one UniformInt(n) only on replacement — predicts every grr output
// value exactly. This pins the *sequence*, not just the distribution.
TEST(MechanismDrawSequenceTest, ManualReplayPredictsGrrOutput) {
  const size_t n = 10;
  const double p = 0.7;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(2000, n);
  MechanismPtr grr = *MakeMechanism(Grr(), p);

  Column output = Perturb(*grr, input, domain, 777);

  Rng replay(777);
  for (size_t r = 0; r < input.size(); ++r) {
    Value expected = input.ValueAt(r);
    if (replay.Bernoulli(p)) {
      expected = domain.value(static_cast<size_t>(replay.UniformInt(n)));
    }
    ASSERT_TRUE(output.ValueAt(r) == expected) << "row " << r;
  }
}

// hlm shares the grr kernel at its calibrated effective probability: the
// replay uses p_eff = n/(e^eps + n - 1) and must predict every value.
TEST(MechanismDrawSequenceTest, ManualReplayPredictsHlmOutput) {
  const size_t n = 10;
  const double epsilon = 1.5;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(2000, n);
  MechanismPtr hlm = *MakeMechanism(Hlm(), epsilon);
  const double p_eff = *hlm->ReplacementProbability(n);

  Column output = Perturb(*hlm, input, domain, 31337);

  Rng replay(31337);
  for (size_t r = 0; r < input.size(); ++r) {
    Value expected = input.ValueAt(r);
    if (replay.Bernoulli(p_eff)) {
      expected = domain.value(static_cast<size_t>(replay.UniformInt(n)));
    }
    ASSERT_TRUE(output.ValueAt(r) == expected) << "row " << r;
  }
}

// sampling has its own documented sequence: Bernoulli(beta) pool
// decision first, then the inner RR draws only for pooled rows.
TEST(MechanismDrawSequenceTest, ManualReplayPredictsSamplingOutput) {
  const size_t n = 10;
  const double beta = 0.6;
  const double p0 = 0.3;
  const Domain domain = IntDomain(n);
  const Column input = IntColumn(2000, n);
  MechanismPtr m = *MakeMechanism(Sampling(beta), p0);

  Column output = Perturb(*m, input, domain, 4242);

  Rng replay(4242);
  for (size_t r = 0; r < input.size(); ++r) {
    Value expected = input.ValueAt(r);
    if (!replay.Bernoulli(beta)) {
      expected = domain.value(static_cast<size_t>(replay.UniformInt(n)));
    } else if (replay.Bernoulli(p0)) {
      expected = domain.value(static_cast<size_t>(replay.UniformInt(n)));
    }
    ASSERT_TRUE(output.ValueAt(r) == expected) << "row " << r;
  }
}

// The legacy p == 0 short-circuit consumes no RNG draws; the interface
// must preserve that too (it shifts every later stream otherwise).
TEST(MechanismDrawSequenceTest, GrrZeroPConsumesNoDraws) {
  const Domain domain = IntDomain(5);
  Column column = IntColumn(100, 5);
  MechanismPtr grr = *MakeMechanism(Grr(), 0.0);
  Rng rng(55);
  ASSERT_TRUE(grr->PerturbShard(&column, domain, rng, 0, column.size(),
                                nullptr, nullptr, nullptr)
                  .ok());
  Rng fresh(55);
  EXPECT_EQ(rng.Next(), fresh.Next());
}

// --- Thread-count determinism for the new families ------------------------

const Table& DeterminismTable() {
  static const Table* table = [] {
    SyntheticOptions options;
    options.num_rows = 2 * kRowsPerShard + 1234;
    options.num_distinct = 30;
    Rng rng(7);
    return new Table(*GenerateSynthetic(options, rng));
  }();
  return *table;
}

void ExpectSameTables(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).null_count(), b.column(c).null_count());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_TRUE(a.column(c).ValueAt(r) == b.column(c).ValueAt(r))
          << "column " << c << " row " << r;
    }
  }
}

GrrOutput RandomizeAtThreads(const MechanismSpec& mechanism, double param,
                             size_t num_threads) {
  GrrOptions options;
  options.mechanism = mechanism;
  options.exec.num_threads = num_threads;
  Rng rng(42);
  return *ApplyGrr(DeterminismTable(), GrrParams::Uniform(param, 5.0),
                   options, rng);
}

TEST(MechanismDeterminismTest, HlmIdenticalAcrossThreadCounts) {
  GrrOutput one = RandomizeAtThreads(Hlm(), 1.5, 1);
  GrrOutput two = RandomizeAtThreads(Hlm(), 1.5, 2);
  GrrOutput eight = RandomizeAtThreads(Hlm(), 1.5, 8);
  ExpectSameTables(one.table, two.table);
  ExpectSameTables(one.table, eight.table);
}

TEST(MechanismDeterminismTest, SamplingIdenticalAcrossThreadCounts) {
  GrrOutput one = RandomizeAtThreads(Sampling(0.5), 0.25, 1);
  GrrOutput two = RandomizeAtThreads(Sampling(0.5), 0.25, 2);
  GrrOutput eight = RandomizeAtThreads(Sampling(0.5), 0.25, 8);
  ExpectSameTables(one.table, two.table);
  ExpectSameTables(one.table, eight.table);
}

}  // namespace
}  // namespace privateclean
