#include "privacy/laplace_mechanism.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace privateclean {

Status ApplyLaplaceMechanismShard(Column* column, double b, Rng& rng,
                                  size_t begin, size_t end) {
  if (column == nullptr) {
    return Status::InvalidArgument("column must not be null");
  }
  if (b < 0.0) {
    return Status::InvalidArgument("Laplace scale must be >= 0");
  }
  if (column->type() == ValueType::kString) {
    return Status::InvalidArgument(
        "Laplace mechanism applies to numerical columns only");
  }
  if (end > column->size() || begin > end) {
    return Status::OutOfRange("noising range out of bounds");
  }
  if (b == 0.0) return Status::OK();
  if (column->type() == ValueType::kDouble) {
    std::vector<double>* xs = column->mutable_doubles();
    for (size_t r = begin; r < end; ++r) {
      if (column->IsNull(r)) continue;
      (*xs)[r] = rng.Laplace((*xs)[r], b);
    }
  } else {
    std::vector<int64_t>* xs = column->mutable_ints();
    for (size_t r = begin; r < end; ++r) {
      if (column->IsNull(r)) continue;
      double noised = rng.Laplace(static_cast<double>((*xs)[r]), b);
      (*xs)[r] = static_cast<int64_t>(std::llround(noised));
    }
  }
  return Status::OK();
}

namespace {

/// Per-shard min/max partial for the sensitivity reduction. Merged in
/// shard index order per the determinism contract (the reduction is
/// order-insensitive anyway, but the contract keeps every sharded path
/// uniform and auditable).
struct MinMaxPartial {
  bool any = false;
  double lo = 0.0;
  double hi = 0.0;

  void Add(double x) {
    if (!any) {
      lo = hi = x;
      any = true;
    } else {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
};

}  // namespace

Result<double> ColumnSensitivity(const Column& column,
                                 const ExecutionOptions& exec) {
  if (column.type() == ValueType::kString) {
    return Status::InvalidArgument(
        "sensitivity is defined for numerical columns only");
  }
  const size_t shards = ShardCountForRows(column.size());
  std::vector<MinMaxPartial> partials(shards);
  PCLEAN_RETURN_NOT_OK(ParallelFor(
      column.size(), shards, exec,
      [&](size_t shard, size_t begin, size_t end) -> Status {
        MinMaxPartial& part = partials[shard];
        for (size_t r = begin; r < end; ++r) {
          if (column.IsNull(r)) continue;
          part.Add(column.NumericAt(r));
        }
        return Status::OK();
      }));
  MinMaxPartial merged;
  for (const MinMaxPartial& part : partials) {
    if (!part.any) continue;
    merged.Add(part.lo);
    merged.Add(part.hi);
  }
  if (!merged.any) {
    return Status::FailedPrecondition(
        "sensitivity undefined: column has no non-null entries");
  }
  return merged.hi - merged.lo;
}

}  // namespace privateclean
