#include "common/normal_quantile.hpp"

#include <cmath>

#include "common/check.hpp"

namespace yoloc {

double normal_quantile(double p) {
  YOLOC_CHECK(p > 0.0 && p < 1.0, "normal_quantile: p out of (0, 1)");
  // Upper half by symmetry: 1 - p is exact for p in (0.5, 1).
  if (p > 0.5) return -normal_quantile(1.0 - p);
  // P. J. Acklam, "An algorithm for computing the inverse normal
  // cumulative distribution function" (2003). No refinement step: it
  // would pull libm's erfc/exp into every server (about 240 KB of
  // resident code) for precision no noise sample needs.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549671010139355e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  if (p < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

namespace detail {

namespace {

std::array<float, kNormalTableBins + 1> build_table() {
  std::array<float, kNormalTableBins + 1> table{};
  constexpr int kHalf = kNormalTableBins / 2;
  for (int i = 1; i < kHalf; ++i) {
    const double z =
        normal_quantile(static_cast<double>(i) / kNormalTableBins);
    // Mirror so the interpolated sampler is antisymmetric.
    table[static_cast<std::size_t>(i)] = static_cast<float>(z);
    table[static_cast<std::size_t>(kNormalTableBins - i)] =
        static_cast<float>(-z);
  }
  table[kHalf] = 0.0f;
  return table;
}

}  // namespace

const std::array<float, kNormalTableBins + 1> kNormalQuantileTable =
    build_table();

double normal_from_bits_tail(std::uint32_t bits) {
  // The upper tail is the mirror of the lower one: ~bits maps
  // (bits + 0.5) / 2^32 to 1 - that, without cancellation near 1.
  const bool upper = (bits >> 31) != 0;
  const std::uint32_t low = upper ? ~bits : bits;
  const double z =
      normal_quantile((static_cast<double>(low) + 0.5) * 0x1.0p-32);
  return upper ? -z : z;
}

}  // namespace detail

}  // namespace yoloc
