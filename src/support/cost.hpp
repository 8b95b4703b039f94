#pragma once

/// \file cost.hpp
/// The cost domain used by every dynamic-programming table in subdp.
///
/// Costs are 64-bit integers with a distinguished `kInfinity` sentinel and
/// *saturating* addition, so that `inf + x == inf` holds without signed
/// overflow (which would be UB). All recurrence tables start at `kInfinity`
/// and monotonically decrease toward the optimum, mirroring the paper's
/// initialisation of `w'` and `pw'` to infinity.

#include <cstdint>
#include <limits>

#include "support/assert.hpp"

namespace subdp {

/// Scalar cost. Finite problem costs must stay well below `kInfinity / 4`
/// so that sums of two finite costs never saturate accidentally.
using Cost = std::int64_t;

/// Sentinel for "no decomposition known yet" (the paper's \f$\infty\f$).
inline constexpr Cost kInfinity = std::numeric_limits<Cost>::max() / 4;

// The unsaturated sum of two costs in `[0, kInfinity]` cannot overflow.
// The fast a-square fold relies on it: it takes `min(best, a + b)` without
// `sat_add`, since with `best <= kInfinity` a sum at or past `kInfinity`
// never wins.
static_assert(kInfinity <= std::numeric_limits<Cost>::max() / 2);

/// True iff `c` represents a real (non-infinite) cost.
[[nodiscard]] constexpr bool is_finite(Cost c) noexcept {
  return c < kInfinity;
}

/// Saturating addition: if either operand is infinite, or the exact sum
/// reaches the sentinel, the result is `kInfinity`. Both operands must be
/// nonnegative (all `f`, `init` values in the recurrence family are), and
/// since `kInfinity` is far below `INT64_MAX / 2` the intermediate sum
/// never overflows.
[[nodiscard]] constexpr Cost sat_add(Cost a, Cost b) noexcept {
  if (a >= kInfinity || b >= kInfinity) return kInfinity;
  const Cost sum = a + b;
  return sum >= kInfinity ? kInfinity : sum;
}

/// Three-operand saturating addition, used for `c(i,k) + c(k,j) + f(i,k,j)`.
[[nodiscard]] constexpr Cost sat_add(Cost a, Cost b, Cost c) noexcept {
  return sat_add(sat_add(a, b), c);
}

/// Minimum of two costs (named for symmetry with `sat_add`).
[[nodiscard]] constexpr Cost sat_min(Cost a, Cost b) noexcept {
  return a < b ? a : b;
}

}  // namespace subdp
