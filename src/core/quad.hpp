#pragma once

/// \file quad.hpp
/// A partial-weight table coordinate `(i,j,p,q)`: root interval `(i,j)`,
/// gap interval `(p,q)`, with `i <= p < q <= j` and `(p,q) != (i,j)`.

#include <cstddef>
#include <cstdint>

namespace subdp::core {

/// Largest instance size representable by the packed `Quad` coordinates.
/// `SolvePlan::create` rejects larger `n` up front with a clear error
/// instead of silently truncating table coordinates.
inline constexpr std::size_t kMaxPackedN = 65535;

/// Packed quadruple; n is bounded by `kMaxPackedN` which far exceeds what
/// any O(n^4)-space table can hold anyway.
struct Quad {
  std::uint16_t i = 0;
  std::uint16_t j = 0;
  std::uint16_t p = 0;
  std::uint16_t q = 0;
};

}  // namespace subdp::core
