#pragma once
// Standard-normal samples from uniform bits by inverse CDF.
//
// The analog read chain draws two normals per ADC conversion from one
// counter-based hash (common/hash.hpp), so each draw must be a cheap pure
// function of 32 bits. normal_from_bits() interpolates a 4096-bin table
// of the normal quantile and evaluates the quantile itself (no
// interpolation) in the two outermost bins (|z| > 3.49). The tails matter: a table clipped at its
// last knot never produces a |z| beyond ~3.5, and the ROM macro's code
// flips are 3.7+ sigma events of the summed cell and ADC noise — a
// clipped sampler loses about a third of them (tests/test_macro.cpp).

#include <array>
#include <cstdint>

namespace yoloc {

/// Normal quantile Phi^-1(p) for p in (0, 1): Acklam's rational
/// approximation, absolute error below 2e-5 (about 1e-9 for
/// 0.02425 <= p <= 0.97575).
[[nodiscard]] double normal_quantile(double p);

namespace detail {

inline constexpr int kNormalTableBits = 12;
inline constexpr int kNormalTableBins = 1 << kNormalTableBits;
/// Phi^-1(i / kNormalTableBins) for i in [1, kNormalTableBins - 1];
/// entries 0 and kNormalTableBins (-inf, +inf) are never read.
/// Filled during static initialization of normal_quantile.cpp, so
/// normal_from_bits() must not run from another static initializer.
extern const std::array<float, kNormalTableBins + 1> kNormalQuantileTable;

/// Quantile of (bits + 0.5) / 2^32, not interpolated (outermost bins).
[[nodiscard]] double normal_from_bits_tail(std::uint32_t bits);

}  // namespace detail

/// Standard normal from 32 uniform bits: Phi^-1((bits + 0.5) / 2^32).
/// Linear interpolation between table knots (error below 0.02 sigma in
/// the second-outermost bins, far less inside); the quantile itself
/// beyond them.
/// Antisymmetric: normal_from_bits(~bits) == -normal_from_bits(bits) up
/// to rounding.
[[nodiscard]] inline double normal_from_bits(std::uint32_t bits) {
  constexpr int kFracBits = 32 - detail::kNormalTableBits;
  const std::uint32_t bin = bits >> kFracBits;
  // bin 0 wraps to UINT32_MAX; the last bin is kNormalTableBins - 1.
  if (bin - 1u >= static_cast<std::uint32_t>(detail::kNormalTableBins - 2))
      [[unlikely]] {
    return detail::normal_from_bits_tail(bits);
  }
  const double frac =
      (static_cast<double>(bits & ((1u << kFracBits) - 1u)) + 0.5) *
      (1.0 / static_cast<double>(1u << kFracBits));
  const float* knot = detail::kNormalQuantileTable.data() + bin;
  const double lo = knot[0];
  return lo + frac * (static_cast<double>(knot[1]) - lo);
}

}  // namespace yoloc
