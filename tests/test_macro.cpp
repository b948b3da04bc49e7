// Macro-level tests: functional MVM fidelity against exact integer math,
// cost accounting, the keyed noise source and its statistical equivalence
// with the stream-based chain it replaced, and the Table I specification
// summary. `ctest -L macro` selects this suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/normal_quantile.hpp"
#include "macro/cim_macro.hpp"
#include "macro/macro_spec.hpp"
#include "reference_macro.hpp"

namespace yoloc {
namespace {

MacroConfig quiet_rom() {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  return cfg;
}

std::vector<std::int32_t> exact_mvm(const std::vector<std::int8_t>& w, int m,
                                    int k,
                                    const std::vector<std::uint8_t>& x) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(acc);
  }
  return y;
}

/// One analog MVM of a single tile (k <= rows) through the packed kernel.
void analog_mvm(const CimMacro& macro, const std::vector<std::int8_t>& w,
                int m, int k, const std::vector<std::uint8_t>& x,
                std::vector<std::int32_t>& y, std::uint64_t key,
                MacroRunStats& stats) {
  const PackedRomWeights packed(w.data(), m, k, macro.config().geometry);
  macro.mvm_packed(packed, 0, x.data(), y.data(), key, stats);
}

TEST(CimMacro, NoiseFreeMvmIsNearExact) {
  const CimMacro macro(quiet_rom());
  Rng rng(1);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  analog_mvm(macro, w, m, k, x, y, 1, stats);
  const auto ref = exact_mvm(w, m, k, x);

  // rows_per_activation=32 with a 5-bit ADC leaves ~1 count of rounding
  // per read; relative error stays below ~2%.
  for (int j = 0; j < m; ++j) {
    const double denom = std::max(1000.0, std::fabs(double(ref[j])));
    EXPECT_LT(std::fabs(double(y[j]) - ref[j]) / denom, 0.02) << "output " << j;
  }
}

TEST(CimMacro, SmallValuesExactlyReconstructed) {
  // Counts within one ADC step: zero quantization error expected.
  MacroConfig cfg = quiet_rom();
  const CimMacro macro(cfg);
  Rng rng(2);
  const int k = 16;
  std::vector<std::int8_t> w(static_cast<std::size_t>(2) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-3, 3));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  std::vector<std::int32_t> y(2);
  MacroRunStats stats;
  analog_mvm(macro, w, 2, k, x, y, 2, stats);
  const auto ref = exact_mvm(w, 2, k, x);
  EXPECT_EQ(y[0], ref[0]);
  EXPECT_EQ(y[1], ref[1]);
}

TEST(CimMacro, AggressiveGroupingDegradesAccuracy) {
  MacroConfig precise = quiet_rom();
  MacroConfig aggressive = quiet_rom();
  aggressive.geometry.rows_per_activation = 128;
  // Reduce per-cell discharge so 128 cells fit the bitline range.
  aggressive.bitline.i_cell_ua = 0.5;

  const CimMacro macro_p(precise);
  const CimMacro macro_a(aggressive);
  Rng rng(3);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  std::vector<std::int32_t> yp(static_cast<std::size_t>(m));
  std::vector<std::int32_t> ya(static_cast<std::size_t>(m));
  MacroRunStats sp;
  MacroRunStats sa;
  analog_mvm(macro_p, w, m, k, x, yp, 3, sp);
  analog_mvm(macro_a, w, m, k, x, ya, 3, sa);
  const auto ref = exact_mvm(w, m, k, x);

  double err_p = 0.0;
  double err_a = 0.0;
  for (int j = 0; j < m; ++j) {
    err_p += std::fabs(double(yp[j]) - ref[j]);
    err_a += std::fabs(double(ya[j]) - ref[j]);
  }
  EXPECT_LT(err_p, err_a);
  // Fewer groups -> fewer conversions (energy win of the trade-off).
  EXPECT_LT(sa.array.adc_conversions, sp.array.adc_conversions);
}

TEST(CimMacro, StatsCountConversions) {
  const CimMacro macro(quiet_rom());
  const int m = 2;
  const int k = 64;  // 2 groups of 32
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k, 1);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k), 1);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  analog_mvm(macro, w, m, k, x, y, 4, stats);
  // conversions = m * weight_bits * input_bits * groups = 2*8*8*2.
  EXPECT_EQ(stats.array.adc_conversions, 256u);
  EXPECT_EQ(stats.macro_ops, 1u);
  EXPECT_EQ(stats.macs, static_cast<std::uint64_t>(m) * k);
  EXPECT_GT(stats.latency_ns, 0.0);
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, ExactCostPathMatchesIntegerMath) {
  const CimMacro macro(quiet_rom());
  Rng rng(5);
  const int m = 3;
  const int k = 100;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  const PackedRomWeights bounds(w.data(), m, k, macro.config().geometry,
                                /*pack_planes=*/false);
  macro.mvm_packed_exact_cost(bounds, 0, w.data(), x.data(), y.data(), stats);
  EXPECT_EQ(y, exact_mvm(w, m, k, x));
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, RejectsForeignPackingAndBadTile) {
  const CimMacro macro(quiet_rom());
  std::vector<std::int8_t> w(200, 0);
  std::vector<std::uint8_t> x(128, 0);
  std::vector<std::int32_t> y(1);
  MacroRunStats stats;
  // k = 200 spans two 128-row tiles; there is no third.
  const PackedRomWeights packed(w.data(), 1, 200, macro.config().geometry);
  EXPECT_NO_THROW(macro.mvm_packed(packed, 1, x.data(), y.data(), 6, stats));
  EXPECT_THROW(macro.mvm_packed(packed, 2, x.data(), y.data(), 6, stats),
               std::runtime_error);
  MacroGeometry other = macro.config().geometry;
  other.rows_per_activation = 16;
  const PackedRomWeights foreign(w.data(), 1, 200, other);
  EXPECT_THROW(macro.mvm_packed(foreign, 0, x.data(), y.data(), 6, stats),
               std::runtime_error);
}

TEST(CimMacro, NoiseIsAPureFunctionOfTheKey) {
  const CimMacro macro(default_rom_macro());
  Rng rng(12);
  const int m = 16;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto run = [&](std::uint64_t key) {
    std::vector<std::int32_t> y(static_cast<std::size_t>(m));
    MacroRunStats stats;
    analog_mvm(macro, w, m, k, x, y, key, stats);
    return std::make_pair(y, stats.array.precharge_energy_pj);
  };
  const auto a = run(77);
  (void)run(78);  // no hidden state carried between calls
  EXPECT_EQ(run(77), a);
  EXPECT_NE(run(78).second, a.second) << "a new key must redraw the noise";
}

TEST(CimMacro, RejectsOperandWidthsBeyondRowMaskPlanes) {
  // The bit-serial paths index fixed RowMask xbits[8] / wbits[8] arrays;
  // wider operands must be rejected at construction, not corrupt the
  // stack at run time. (MacroConfig::validate alone allows up to 16.)
  MacroConfig cfg = quiet_rom();
  cfg.geometry.input_bits = 9;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 9;
  cfg.geometry.cols = 9 * 32;  // keep cols divisible by weight_bits
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.input_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  // The boundary value stays accepted.
  cfg = quiet_rom();
  cfg.geometry.input_bits = 8;
  cfg.geometry.weight_bits = 8;
  EXPECT_NO_THROW(CimMacro{cfg});
}

TEST(MacroConfig, RomDensityMatchesTableI) {
  const MacroConfig rom = default_rom_macro();
  // Table I: ~1.2 Mb, ~0.24 mm^2, ~5 Mb/mm^2.
  EXPECT_NEAR(rom.geometry.capacity_bits() / 1e6, 1.18, 0.1);
  EXPECT_NEAR(rom.area_mm2(), 0.24, 0.05);
  EXPECT_NEAR(rom.density_mb_per_mm2(), 5.0, 1.0);
}

TEST(MacroConfig, SramMuchLessDense) {
  const MacroConfig rom = default_rom_macro();
  const MacroConfig sram = default_sram_macro();
  const double ratio = rom.density_mb_per_mm2() / sram.density_mb_per_mm2();
  // Paper: ~19x macro-level density advantage.
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 40.0);
  // Cell-level: 18.5x.
  EXPECT_NEAR(sram.area.cell_area_um2 / rom.area.cell_area_um2, 18.5, 0.1);
}

TEST(MacroConfig, AreaBreakdownSumsToOne) {
  for (const MacroConfig& cfg :
       {default_rom_macro(), default_sram_macro()}) {
    const auto b = cfg.area_breakdown();
    EXPECT_NEAR(b.array + b.adc + b.periphery + b.overhead, 1.0, 1e-9);
  }
}

TEST(MacroConfig, OnlySramWritable) {
  EXPECT_FALSE(default_rom_macro().writable());
  EXPECT_TRUE(default_sram_macro().writable());
  EXPECT_EQ(default_rom_macro().standby_power_uw, 0.0);
  EXPECT_GT(default_sram_macro().standby_power_uw, 0.0);
}

TEST(MacroSpec, TableIValues) {
  const CimMacro macro(default_rom_macro());
  Rng rng(7);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/16);
  EXPECT_NEAR(s.inference_time_ns, 8.9, 0.05);     // 8 x 1.1125 ns
  EXPECT_EQ(s.operation_number, 256);              // 2 x 128 rows
  EXPECT_NEAR(s.throughput_gops, 28.8, 0.3);
  EXPECT_NEAR(s.cell_area_um2, 0.014, 1e-6);
  EXPECT_NEAR(s.density_mb_per_mm2, 5.0, 1.0);
  // Measured efficiency should land in Table I's neighbourhood.
  EXPECT_GT(s.mac_eff_tops_per_w, 8.0);
  EXPECT_LT(s.mac_eff_tops_per_w, 16.0);
  EXPECT_GT(s.area_eff_gops_per_mm2, 80.0);
  EXPECT_LT(s.area_eff_gops_per_mm2, 160.0);
}

TEST(MacroSpec, TablePrintsAllRows) {
  const CimMacro macro(default_rom_macro());
  Rng rng(8);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/4);
  const TextTable t = macro_spec_table(s);
  EXPECT_EQ(t.row_count(), 12u);
  EXPECT_NE(t.to_string().find("TOPS/W"), std::string::npos);
}

TEST(MacroSpec, SramLessEfficientThanRom) {
  Rng rng(9);
  const CimMacro rom(default_rom_macro());
  const CimMacro sram(default_sram_macro());
  const auto srom = summarize_macro(rom, rng, 8);
  const auto ssram = summarize_macro(sram, rng, 8);
  EXPECT_GT(srom.mac_eff_tops_per_w, ssram.mac_eff_tops_per_w);
}

// ------------------------------------------------ keyed normal source

TEST(NormalSource, QuantileMatchesReferenceValues) {
  // Acklam's approximation: ~1e-9 in the central region, below 2e-5
  // absolute in the tails (reference values from Wichura's AS241).
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(1e-6), -4.753424308822899, 2e-5);
  EXPECT_NEAR(normal_quantile(1.0 - 1e-4), 3.719016485455709, 2e-5);
  EXPECT_NEAR(normal_quantile(0.5 * 0x1.0p-32), -6.337957754553789, 2e-5);
}

TEST(NormalSource, TableSamplerIsMonotoneAntisymmetricAndAccurate) {
  double prev = -1e9;
  for (std::uint64_t b = 0; b <= 0xFFFFFFFFull; b += 0x10001ull) {
    const auto bits = static_cast<std::uint32_t>(b);
    const double z = normal_from_bits(bits);
    EXPECT_GE(z, prev) << "bits " << bits;
    prev = z;
    EXPECT_NEAR(normal_from_bits(~bits), -z, 1e-6) << "bits " << bits;
    // Within 0.02 sigma of the exact quantile everywhere.
    const double exact =
        normal_quantile((static_cast<double>(bits) + 0.5) * 0x1.0p-32);
    EXPECT_NEAR(z, exact, 0.02) << "bits " << bits;
  }
  // The outermost bins use the quantile itself, out to the last draw.
  EXPECT_EQ(normal_from_bits(0u), normal_quantile(0.5 * 0x1.0p-32));
  EXPECT_LT(normal_from_bits(0u), -6.3);
  EXPECT_GT(normal_from_bits(0xFFFFFFFFu), 6.3);
}

TEST(NormalSource, HashedDrawsHaveNormalMomentsAndTails) {
  // 2^21 draws along one SplitMix64 stream, both 32-bit halves.
  const int n = 1 << 21;
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  int beyond4 = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bits =
        splitmix64(0x5EEDull + static_cast<std::uint64_t>(i) * kSplitMixGamma);
    for (const std::uint32_t half : {static_cast<std::uint32_t>(bits),
                                     static_cast<std::uint32_t>(bits >> 32)}) {
      const double z = normal_from_bits(half);
      sum += z;
      sum2 += z * z;
      sum4 += z * z * z * z;
      if (std::fabs(z) > 4.0) ++beyond4;
    }
  }
  const double draws = 2.0 * n;
  EXPECT_NEAR(sum / draws, 0.0, 0.005);         // sd of the mean 7e-4
  EXPECT_NEAR(sum2 / draws, 1.0, 0.01);         // sd 1e-3
  EXPECT_NEAR(sum4 / draws, 3.0, 0.05);         // sd 6e-3
  // P(|z| > 4) = 6.33e-5: ~265 expected, sd ~16. A sampler clipped
  // near 3.5 sigma would show none.
  EXPECT_GT(beyond4, 185);
  EXPECT_LT(beyond4, 345);
}

// ------------------------------- statistical equivalence with the old chain

/// The stream-based read chain this repository used before the keyed one,
/// kept verbatim as the baseline: polar normals from one Rng, the cell
/// draw only for a noisy, non-empty count, the ADC draw on every read.
double stream_read_count(const CimArrayModel& arr, int exact, Rng& rng) {
  double effective = exact;
  const double sigma = arr.bitline().params().sigma_cell;
  if (sigma > 0.0 && exact > 0) {
    effective += rng.normal(0.0, sigma * std::sqrt(exact));
    if (effective < 0.0) effective = 0.0;
  }
  const double v = arr.bitline().voltage_for_count(effective);
  const int code = arr.adc().quantize_ideal(
      v + rng.normal(0.0, arr.adc().params().noise_sigma_v));
  return code * arr.counts_per_code();
}

/// Per-count ADC code-error moments of one chain.
struct CodeErrorStats {
  std::vector<double> mean, var, mu4;
  std::vector<long> flips;  // reads with |code error| >= 1
  long total_flips = 0;
};

/// Counts [c_lo, c_hi], `reads` reads each.
struct CountRange {
  int c_lo;
  int c_hi;
  int reads;
};

template <typename ReadFn>
CodeErrorStats code_error_stats(const CimArrayModel& arr,
                                const CountRange& range, ReadFn&& read) {
  const int reads = range.reads;
  CodeErrorStats out;
  ArrayReadStats sink;
  for (int c = range.c_lo; c <= range.c_hi; ++c) {
    const double ideal = arr.read(c, 0.0, 0.0, sink);
    std::vector<double> err(static_cast<std::size_t>(reads));
    long flips = 0;
    double sum = 0.0;
    for (int r = 0; r < reads; ++r) {
      const double e = (read(c) - ideal) / arr.counts_per_code();
      err[static_cast<std::size_t>(r)] = e;
      sum += e;
      if (std::fabs(e) >= 1.0) ++flips;
    }
    const double mean = sum / reads;
    double m2 = 0.0, m4 = 0.0;
    for (const double e : err) {
      const double d = (e - mean) * (e - mean);
      m2 += d;
      m4 += d * d;
    }
    out.mean.push_back(mean);
    out.var.push_back(m2 / reads);
    out.mu4.push_back(m4 / reads);
    out.flips.push_back(flips);
    out.total_flips += flips;
  }
  return out;
}

/// Differences between two chains beyond the stated bounds, one line
/// each; empty when equivalent. Bounds, with N reads per count:
///   * per-count mean code error: |dm| <= 5 sqrt((v_a + v_b) / N)
///   * per-count code-error variance: |dv| <= 5 sqrt((mu4_a - v_a^2 +
///     mu4_b - v_b^2) / N)  (large-sample sd of a sample variance)
///   * per-count flip rate: |dp| <= 5 sqrt(2 p (1 - p) / N) + 2 / N with
///     p the pooled rate (two-proportion z-test)
///   * all flips summed over counts: |dF| <= 5 sqrt(F_a + F_b) + 2
///     (Poisson), the check with the power to see a clipped tail.
std::vector<std::string> equivalence_failures(const CodeErrorStats& a,
                                              const CodeErrorStats& b,
                                              const CountRange& range) {
  std::vector<std::string> fails;
  const double n = range.reads;
  for (std::size_t c = 0; c < a.mean.size(); ++c) {
    const double dm = std::fabs(a.mean[c] - b.mean[c]);
    if (dm > 5.0 * std::sqrt((a.var[c] + b.var[c]) / n) + 1e-12) {
      fails.push_back("count " + std::to_string(range.c_lo + static_cast<int>(c)) + ": mean");
    }
    const double dv = std::fabs(a.var[c] - b.var[c]);
    const double var_sd = std::sqrt(
        (std::max(0.0, a.mu4[c] - a.var[c] * a.var[c]) +
         std::max(0.0, b.mu4[c] - b.var[c] * b.var[c])) /
        n);
    if (dv > 5.0 * var_sd + 1e-12) {
      fails.push_back("count " + std::to_string(range.c_lo + static_cast<int>(c)) + ": variance");
    }
    const double pa = a.flips[c] / n;
    const double pb = b.flips[c] / n;
    const double p = (pa + pb) / 2.0;
    if (std::fabs(pa - pb) > 5.0 * std::sqrt(2.0 * p * (1.0 - p) / n) +
                                 2.0 / n) {
      fails.push_back("count " + std::to_string(range.c_lo + static_cast<int>(c)) + ": flip rate");
    }
  }
  const double fa = static_cast<double>(a.total_flips);
  const double fb = static_cast<double>(b.total_flips);
  if (std::fabs(fa - fb) > 5.0 * std::sqrt(fa + fb) + 2.0) {
    fails.push_back("total flips " + std::to_string(a.total_flips) + " vs " +
                    std::to_string(b.total_flips));
  }
  return fails;
}

struct SigmaCase {
  const char* name;
  MacroConfig cfg;
  long min_stream_flips;  // power floor: the tail must be visible at all
};

std::vector<SigmaCase> sigma_cases() {
  std::vector<SigmaCase> cases;
  cases.push_back({"rom default", default_rom_macro(), 50});
  cases.push_back({"sram default", default_sram_macro(), 1000});
  MacroConfig rom4 = default_rom_macro();
  rom4.bitline.sigma_cell *= 4.0;
  rom4.adc.noise_sigma_v *= 4.0;
  cases.push_back({"rom 4x sigma", rom4, 1000});
  cases.push_back({"sigma 0", quiet_rom(), 0});
  return cases;
}

CodeErrorStats stream_chain_stats(const CimArrayModel& arr,
                                  const CountRange& range,
                                  std::uint64_t seed) {
  Rng rng(seed);
  return code_error_stats(arr, range, [&](int c) {
    return stream_read_count(arr, c, rng);
  });
}

/// The keyed chain exactly as the kernel draws it (one key per count),
/// with `clip` applied to each normal.
template <typename Clip>
CodeErrorStats keyed_chain_stats(const CimArrayModel& arr,
                                 const CountRange& range, std::uint64_t key,
                                 Clip&& clip) {
  ArrayReadStats sink;
  std::vector<reference::KeyedNormals> sources;
  for (int c = 0; c <= arr.group_size(); ++c) {
    sources.emplace_back(arr, hash_combine(key, c), 0);
  }
  return code_error_stats(arr, range, [&](int c) {
    const auto [z_cell, z_adc] = sources[static_cast<std::size_t>(c)](c);
    return arr.read(c, clip(z_cell), clip(z_adc), sink);
  });
}

double no_clip(double z) { return z; }
double clip_at_3_5(double z) { return std::clamp(z, -3.5, 3.5); }

TEST(NoiseEquivalence, KeyedChainMatchesStreamChainPerCount) {
  for (const SigmaCase& sc : sigma_cases()) {
    const CimMacro macro(sc.cfg);
    const CimArrayModel& arr = macro.array_model();
    const CountRange all{0, arr.group_size(), 100000};
    const CodeErrorStats stream = stream_chain_stats(arr, all, 2024);
    const CodeErrorStats keyed = keyed_chain_stats(arr, all, 2024, no_clip);
    EXPECT_GE(stream.total_flips, sc.min_stream_flips) << sc.name;
    for (const std::string& f : equivalence_failures(stream, keyed, all)) {
      ADD_FAILURE() << sc.name << ": " << f;
    }
  }
}

TEST(NoiseEquivalence, RomFlipTailMatchesAndAClippedTailFails) {
  // The ROM macro's code flips are 3.7+ sigma events of the summed cell
  // and ADC noise, almost all at the top counts. A sampler that never
  // goes beyond ~3.5 sigma (an interpolation table without exact tails)
  // keeps the mean and most of the variance but loses about a third of
  // those flips; 1.5M reads per top count give the bounds the power to
  // see it.
  const CimMacro macro(default_rom_macro());
  const CimArrayModel& arr = macro.array_model();
  const CountRange top{arr.group_size() - 8, arr.group_size() - 1, 1500000};
  const CodeErrorStats stream = stream_chain_stats(arr, top, 7);
  const CodeErrorStats keyed = keyed_chain_stats(arr, top, 7, no_clip);
  const CodeErrorStats clipped = keyed_chain_stats(arr, top, 7, clip_at_3_5);
  EXPECT_GE(stream.total_flips, 500);
  for (const std::string& f : equivalence_failures(stream, keyed, top)) {
    ADD_FAILURE() << "keyed: " << f;
  }
  EXPECT_FALSE(equivalence_failures(stream, clipped, top).empty())
      << "stream flips " << stream.total_flips << ", clipped "
      << clipped.total_flips;
}

}  // namespace
}  // namespace yoloc
