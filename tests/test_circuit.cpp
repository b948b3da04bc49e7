// Circuit-model tests: bitline discharge linearity and saturation, ADC
// transfer function, and the combined array read model.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/adc.hpp"
#include "circuit/bitline.hpp"
#include "circuit/cim_array.hpp"
#include "common/rng.hpp"

namespace yoloc {
namespace {

BitlineParams rom_bitline() {
  BitlineParams p;
  p.c_bl_ff = 100.0;
  p.v_precharge = 0.9;
  p.i_cell_ua = 2.0;
  p.t_pulse_ns = 0.35;
  p.sigma_cell = 0.0;
  return p;
}

TEST(Bitline, DeltaVFromPhysics) {
  const BitlineModel bl(rom_bitline());
  // dV = I*t/C = 2uA * 0.35ns / 100fF = 7 mV.
  EXPECT_NEAR(bl.delta_v_per_cell(), 0.007, 1e-9);
}

TEST(Bitline, LinearDischarge) {
  const BitlineModel bl(rom_bitline());
  EXPECT_NEAR(bl.voltage_for_count(0), 0.9, 1e-12);
  EXPECT_NEAR(bl.voltage_for_count(10), 0.9 - 10 * 0.007, 1e-9);
}

TEST(Bitline, SaturatesAtFloor) {
  const BitlineModel bl(rom_bitline());
  EXPECT_DOUBLE_EQ(bl.voltage_for_count(1e6), 0.0);
}

TEST(Bitline, MaxResolvableCount) {
  const BitlineModel bl(rom_bitline());
  EXPECT_EQ(bl.max_resolvable_count(), static_cast<int>(0.9 / 0.007));
}

TEST(Bitline, PrechargeEnergyGrowsWithCount) {
  const BitlineModel bl(rom_bitline());
  EXPECT_LT(bl.precharge_energy_pj(1), bl.precharge_energy_pj(16));
  // E = C*Vpre*dV = 100fF * 0.9 * 0.007 = 0.63 fJ = 0.00063 pJ per cell.
  EXPECT_NEAR(bl.precharge_energy_pj(1), 100.0 * 0.9 * 0.007 * 1e-3, 1e-9);
}

TEST(Bitline, RejectsBadParams) {
  BitlineParams p = rom_bitline();
  p.c_bl_ff = 0.0;
  EXPECT_THROW(BitlineModel{p}, std::runtime_error);
  p = rom_bitline();
  p.v_precharge = -0.1;
  EXPECT_THROW(BitlineModel{p}, std::runtime_error);
}

AdcParams adc5(double v_hi = 0.9, double v_lo = 0.0) {
  AdcParams p;
  p.bits = 5;
  p.v_hi = v_hi;
  p.v_lo = v_lo;
  p.noise_sigma_v = 0.0;
  return p;
}

TEST(Adc, CodeZeroAtFullScaleHigh) {
  const Adc adc(adc5());
  EXPECT_EQ(adc.quantize_ideal(0.9), 0);
}

TEST(Adc, MaxCodeAtFullScaleLow) {
  const Adc adc(adc5());
  EXPECT_EQ(adc.quantize_ideal(0.0), 31);
}

TEST(Adc, MonotoneInDischarge) {
  const Adc adc(adc5());
  int prev = -1;
  for (double v = 0.9; v >= 0.0; v -= 0.03) {
    const int code = adc.quantize_ideal(v);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(Adc, ClampsOutOfRange) {
  const Adc adc(adc5());
  EXPECT_EQ(adc.quantize_ideal(2.0), 0);
  EXPECT_EQ(adc.quantize_ideal(-1.0), 31);
}

TEST(Adc, LevelCount) {
  const Adc adc(adc5());
  EXPECT_EQ(adc.code_count(), 32);
  EXPECT_NEAR(adc.lsb_voltage(), 0.9 / 31.0, 1e-12);
}

CimArrayModel make_array(int group, double sigma = 0.0) {
  BitlineParams bl = rom_bitline();
  bl.sigma_cell = sigma;
  AdcParams adc;
  adc.bits = 5;
  adc.noise_sigma_v = 0.0;
  adc.energy_pj = 0.07;
  ArrayEnergyParams energy;
  return CimArrayModel(bl, adc, energy, group);
}

TEST(CimArray, ExactReadWhenGroupMatchesAdcRange) {
  // Group of 31 = ADC levels-1: every count maps to its own code.
  const CimArrayModel arr = make_array(31);
  ArrayReadStats stats;
  for (int count = 0; count <= 31; ++count) {
    const double est = arr.read(count, 0.0, 0.0, stats);
    EXPECT_NEAR(est, count, 0.51) << "count " << count;
  }
  EXPECT_EQ(stats.adc_conversions, 32u);
}

TEST(CimArray, QuantizationErrorGrowsWithGroupSize) {
  const CimArrayModel small = make_array(32);
  const CimArrayModel large = make_array(124);
  ArrayReadStats stats;
  double err_small = 0.0;
  double err_large = 0.0;
  for (int count = 0; count <= 30; ++count) {
    err_small += std::fabs(small.read(count, 0.0, 0.0, stats) - count);
    err_large += std::fabs(large.read(count, 0.0, 0.0, stats) - count);
  }
  EXPECT_LT(err_small, err_large);
}

TEST(CimArray, NoiseBroadensEstimates) {
  const CimArrayModel noisy = make_array(32, /*sigma=*/0.3);
  Rng rng(3);
  ArrayReadStats stats;
  double var = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const double est = noisy.read(16, rng.normal(), rng.normal(), stats);
    var += (est - 16.0) * (est - 16.0);
  }
  // With 30% cell mismatch over 16 cells some spread must appear.
  EXPECT_GT(var / trials, 0.05);
}

TEST(CimArray, ZeroSigmaIgnoresNormals) {
  // Both sigmas zero: the chain must not depend on the samples it is
  // handed, which is what lets callers skip drawing them.
  const CimArrayModel arr = make_array(32);
  ASSERT_FALSE(arr.cell_noise());
  ASSERT_FALSE(arr.adc_noise());
  ArrayReadStats a;
  ArrayReadStats b;
  for (int count = 0; count <= 32; ++count) {
    EXPECT_EQ(arr.read(count, 0.0, 0.0, a), arr.read(count, 5.0, -5.0, b));
  }
  EXPECT_EQ(a.precharge_energy_pj, b.precharge_energy_pj);
}

TEST(CimArray, EnergyAccounting) {
  const CimArrayModel arr = make_array(32);
  ArrayReadStats stats;
  (void)arr.read(8, 0.0, 0.0, stats);
  EXPECT_EQ(stats.adc_conversions, 1u);
  EXPECT_NEAR(stats.adc_energy_pj, 0.07, 1e-12);
  EXPECT_GT(stats.precharge_energy_pj, 0.0);

  arr.charge_wl_pulses(10, stats);
  EXPECT_EQ(stats.wl_pulses, 10u);
  EXPECT_GT(stats.wl_energy_pj, 0.0);
  arr.charge_shift_adds(5, stats);
  EXPECT_EQ(stats.shift_adds, 5u);

  ArrayReadStats other;
  other.adc_conversions = 3;
  other.adc_energy_pj = 1.0;
  stats.accumulate(other);
  EXPECT_EQ(stats.adc_conversions, 4u);
  EXPECT_GT(stats.total_energy_pj(), 1.0);
}

TEST(CimArray, GroupMustFitBitlineRange) {
  BitlineParams bl = rom_bitline();
  bl.i_cell_ua = 50.0;  // huge discharge per cell
  AdcParams adc;
  ArrayEnergyParams energy;
  EXPECT_THROW(CimArrayModel(bl, adc, energy, 128), std::runtime_error);
}

class AdcBitsProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdcBitsProperty, ReadErrorBoundedByHalfStepPlusSaturation) {
  const int bits = GetParam();
  BitlineParams bl = rom_bitline();
  AdcParams adc;
  adc.bits = bits;
  adc.noise_sigma_v = 0.0;
  ArrayEnergyParams energy;
  const CimArrayModel arr(bl, adc, energy, 32);
  ArrayReadStats stats;
  // LSB spans an integer count step; counts beyond the code range clip.
  const int levels = 1 << bits;
  const double step = arr.counts_per_code();
  EXPECT_DOUBLE_EQ(step, std::ceil(32.0 / levels));
  const double range = (levels - 1) * step;
  for (int count = 0; count <= 32; ++count) {
    const double est = arr.read(count, 0.0, 0.0, stats);
    const double allowed =
        step / 2 + std::max(0.0, count - range) + 1e-9;
    EXPECT_LE(std::fabs(est - count), allowed)
        << "bits " << bits << " count " << count;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcBitsProperty,
                         ::testing::Values(4, 5, 6, 7, 8));

}  // namespace
}  // namespace yoloc
