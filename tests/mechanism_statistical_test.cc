// Statistical acceptance suite for the mechanism zoo (`ctest -L
// statistical`): empirical confusion matrices against the analytic
// matrices (chi-squared), Monte-Carlo unbiasedness and variance of the
// count estimator under every family, the arXiv 2112.07397 utility-bound
// identities, and a Kolmogorov–Smirnov check of the Laplace numeric path
// through the interface.
//
// Every test draws from a fixed seed, so each run is deterministic: a
// threshold either always passes or always fails for a given build. The
// thresholds are still sized as if the seeds were redrawn, so a passing
// seed is overwhelmingly likely to stay passing across benign numeric
// changes:
//   - chi-squared acceptance at the 0.999 quantile  -> ~0.1% per statistic
//   - unbiasedness within 4 sigma of the trial mean -> ~0.006% per check
//   - empirical/analytic variance ratio in [0.6, 1.6] with 200 trials
//   - KS acceptance at alpha = 0.001 (1.949/sqrt(n))
// A fresh-seed run of the whole file has a false-positive rate well under
// 1%; with the checked-in seeds it has zero flake by construction.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
#include "core/estimators.h"
#include "privacy/mechanism.h"
#include "privacy/privacy_params.h"
#include "query/aggregate.h"
#include "table/column.h"
#include "table/domain.h"

namespace privateclean {
namespace {

struct NamedMechanism {
  std::string label;
  MechanismPtr mechanism;
};

// One representative configuration per family, moderate privacy so both
// kept and replaced rows are plentiful.
std::vector<NamedMechanism> ZooConfigurations() {
  return {
      {"grr(p=0.4)", *MakeMechanism(MechanismSpec{}, 0.4)},
      {"hlm(eps=1.2)", *MakeMechanism(MechanismSpec{"hlm", {}}, 1.2)},
      {"sampling(p0=0.3,beta=0.6)",
       *MakeMechanism(MechanismSpec{"sampling", {{"beta", 0.6}}}, 0.3)},
  };
}

Domain IntDomain(size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.emplace_back(static_cast<int64_t>(i));
  }
  return Domain::FromValues(values);
}

// Perturbs a copy of `input` in one shard with a fresh Rng(seed).
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

// For every family and a couple of true values, randomize many copies of
// that value and chi-squared-test the empirical output histogram against
// the analytic confusion-matrix row.
TEST(MechanismStatisticalTest, EmpiricalConfusionMatrixMatchesAnalytic) {
  const size_t n = 5;
  const size_t rows = 40000;
  const Domain domain = IntDomain(n);
  const double threshold = *ChiSquaredQuantile(n - 1, 0.999);

  uint64_t seed = 1001;
  for (const NamedMechanism& zoo : ZooConfigurations()) {
    ConfusionMatrix confusion = *zoo.mechanism->Confusion(n);
    for (size_t true_value : {size_t{0}, size_t{3}}) {
      Column input = *Column::Make(ValueType::kInt64);
      for (size_t r = 0; r < rows; ++r) {
        input.AppendInt64(static_cast<int64_t>(true_value));
      }
      Column output = Perturb(*zoo.mechanism, input, domain, seed++);

      std::vector<double> observed(n, 0.0);
      for (size_t r = 0; r < rows; ++r) {
        observed[static_cast<size_t>(output.ValueAt(r).AsInt64())] += 1.0;
      }
      std::vector<double> expected(n);
      for (size_t j = 0; j < n; ++j) {
        expected[j] =
            static_cast<double>(rows) * confusion.At(true_value, j);
      }
      double stat = *ChiSquaredStatistic(observed, expected);
      EXPECT_LT(stat, threshold)
          << zoo.label << " true value " << true_value;
    }
  }
}

// Monte Carlo over full randomize-then-estimate trials: the corrected
// COUNT estimate must be unbiased under every family (mean within 4
// sigma of the ground truth), and its empirical variance must track the
// analytic CLT variance
//   Var(c_hat) = [c tau_p(1-tau_p) + (S-c) tau_n(1-tau_n)] / (tau_p-tau_n)^2,
// whose 1/(tau_p - tau_n)^2 = 1/(d - q)^2 scale is the utility currency
// of arXiv 2112.07397.
TEST(MechanismStatisticalTest, CountEstimatorUnbiasedWithCltVariance) {
  const size_t n = 8;
  const size_t rows = 3000;
  const size_t trials = 200;
  const Domain domain = IntDomain(n);

  Column base = *Column::Make(ValueType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    base.AppendInt64(static_cast<int64_t>(r % n));
  }
  const double truth = static_cast<double>(rows / n);  // count of value 0

  uint64_t seed = 20001;
  for (const NamedMechanism& zoo : ZooConfigurations()) {
    EstimationInputs in;
    in.mechanism = zoo.mechanism;
    in.p = *zoo.mechanism->ReplacementProbability(n);
    in.l = 1.0;
    in.n = static_cast<double>(n);

    std::vector<double> estimates;
    estimates.reserve(trials);
    for (size_t t = 0; t < trials; ++t) {
      Column output = Perturb(*zoo.mechanism, base, domain, seed++);
      QueryScanStats stats;
      stats.total_rows = rows;
      for (size_t r = 0; r < rows; ++r) {
        if (output.ValueAt(r).AsInt64() == 0) ++stats.matching_rows;
      }
      estimates.push_back(EstimateCount(stats, in)->estimate);
    }

    const double mean = *Mean(estimates);
    const double variance = *SampleVariance(estimates);
    TransitionProbabilities tau = *zoo.mechanism->Transitions(1.0, n);
    const double tp = tau.true_positive;
    const double fp = tau.false_positive;
    const double analytic_variance =
        (truth * tp * (1.0 - tp) + (rows - truth) * fp * (1.0 - fp)) /
        ((tp - fp) * (tp - fp));

    // 4-sigma band around the Monte-Carlo mean.
    const double band =
        4.0 * std::sqrt(analytic_variance / static_cast<double>(trials));
    EXPECT_NEAR(mean, truth, band) << zoo.label;
    // Sample variance of 200 trials concentrates within ~±35%; the
    // [0.6, 1.6] ratio window is ~4 sigma wide for chi-squared_{199}.
    EXPECT_GT(variance, 0.6 * analytic_variance) << zoo.label;
    EXPECT_LT(variance, 1.6 * analytic_variance) << zoo.label;
  }
}

// arXiv 2112.07397: an eps-LDP mechanism on an N-value domain satisfies
// d - q <= (e^eps - 1)/(e^eps + N - 1), where d and q are the diagonal
// and off-diagonal retention probabilities. Every diagonal-constant
// mechanism attains the bound with equality at its *exact* epsilon
// ln(d/q) — an identity the whole zoo must satisfy.
TEST(MechanismStatisticalTest, UtilityBoundAttainedWithEqualityAtExactEps) {
  for (const NamedMechanism& zoo : ZooConfigurations()) {
    for (size_t n : {4u, 10u}) {
      ConfusionMatrix c = *zoo.mechanism->Confusion(n);
      const double exact_eps = *EpsilonFromConfusionMatrix(c.Dense());
      const double bound = std::expm1(exact_eps) /
                           (std::exp(exact_eps) + static_cast<double>(n) -
                            1.0);
      EXPECT_NEAR(c.diagonal - c.off_diagonal, bound, 1e-10)
          << zoo.label << " n=" << n;
    }
  }
}

// Calibration cross-check: hlm realizes its target epsilon exactly at
// every domain size, while grr's paper inversion p = 3/(e^eps + 2) only
// lands on the target at N == 3 — it over-spends (exact eps above
// target) for N > 3 and under-spends for N == 2. This quantifies why the
// hlm family exists.
TEST(MechanismStatisticalTest, HlmCalibratesExactlyGrrPaperInversionDoesNot) {
  const double target = 1.0;

  MechanismPtr hlm = *MakeMechanism(MechanismSpec{"hlm", {}}, target);
  for (size_t n : {2u, 3u, 8u, 32u}) {
    ConfusionMatrix c = *hlm->Confusion(n);
    EXPECT_NEAR(*EpsilonFromConfusionMatrix(c.Dense()), target, 1e-9)
        << "hlm n=" << n;
  }

  const double p = *RandomizationForEpsilon(target);
  MechanismPtr grr = *MakeMechanism(MechanismSpec{}, p);
  auto exact_eps = [&](size_t n) {
    return *EpsilonFromConfusionMatrix((*grr->Confusion(n)).Dense());
  };
  EXPECT_NEAR(exact_eps(3), target, 1e-9);
  EXPECT_GT(exact_eps(8), target + 0.1);
  EXPECT_GT(exact_eps(32), exact_eps(8));
  EXPECT_LT(exact_eps(2), target - 0.1);
}

// The sampling family's exact epsilon never exceeds the subsampling
// amplification bound ln(1 + beta(e^{eps0} - 1)) over a parameter grid,
// with equality when beta == 1 (no subsampling).
TEST(MechanismStatisticalTest, SamplingExactEpsilonWithinAmplificationBound) {
  for (double beta : {0.25, 0.5, 0.9, 1.0}) {
    for (double p0 : {0.1, 0.3, 0.7}) {
      for (size_t n : {4u, 16u}) {
        MechanismPtr m =
            *MakeMechanism(MechanismSpec{"sampling", {{"beta", beta}}}, p0);
        const double nd = static_cast<double>(n);
        const double inner_eps = std::log(nd / p0 - nd + 1.0);
        const double bound = *SamplingAmplifiedEpsilon(inner_eps, beta);
        const double exact = *m->Epsilon(n);
        EXPECT_LE(exact, bound + 1e-12)
            << "beta=" << beta << " p0=" << p0 << " n=" << n;
        if (beta == 1.0) {
          EXPECT_NEAR(exact, bound, 1e-12) << "p0=" << p0 << " n=" << n;
        }
      }
    }
  }
}

// The numeric path of the interface: noise from NoiseNumericShard must
// be Laplace(0, b) under every family (all three inherit the default
// Laplace kernel today; the KS test pins the contract, not the sharing).
TEST(MechanismStatisticalTest, NumericNoiseIsLaplaceUnderEveryFamily) {
  const size_t rows = 5000;
  const double b = 2.0;
  auto laplace_cdf = [b](double x) {
    return x < 0.0 ? 0.5 * std::exp(x / b) : 1.0 - 0.5 * std::exp(-x / b);
  };
  // Asymptotic KS critical value at alpha = 0.001.
  const double critical = 1.949 / std::sqrt(static_cast<double>(rows));

  uint64_t seed = 30001;
  for (const NamedMechanism& zoo : ZooConfigurations()) {
    Column column = *Column::Make(ValueType::kDouble);
    for (size_t r = 0; r < rows; ++r) column.AppendDouble(0.0);
    Rng rng(seed++);
    ASSERT_TRUE(zoo.mechanism
                    ->NoiseNumericShard(&column, b, rng, 0, column.size())
                    .ok())
        << zoo.label;
    std::vector<double> samples;
    samples.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      samples.push_back(column.ValueAt(r).AsDouble());
    }
    double ks = *KolmogorovSmirnovStatistic(std::move(samples), laplace_cdf);
    EXPECT_LT(ks, critical) << zoo.label;
  }
}

}  // namespace
}  // namespace privateclean
