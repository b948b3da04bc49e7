#pragma once
// Scalar reference of the analog macro MVM, kept out of the library.
//
// It re-derives the weight bit-planes from the raw int8 matrix on every
// call, counts ON cells with a range-clamped popcount per activation
// group, and reads each count through the library's one read chain,
// CimArrayModel::read(). What it does NOT share with the packed kernel
// (CimMacro::mvm_packed) is everything around that chain — packing,
// group masks, key schedule, accumulation — so a bit-identical result
// checks the kernel, not the reference.
//
// The normals come from a pluggable source, called once per read in
// (j, b, t, grp) order with the read's exact count:
//   * KeyedNormals — the production key schedule (macro/cim_macro.hpp):
//     with it the reference must equal mvm_packed bit for bit.
//   * StreamNormals — one Rng stream with Marsaglia-polar normals, drawn
//     in the order of the stream-based chain this repository used before
//     the keyed one (cell draw only for a noisy, non-empty count; an ADC
//     draw on every read). The statistical-equivalence tests use it as
//     the old model.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/normal_quantile.hpp"
#include "common/rng.hpp"
#include "core/macro_engine.hpp"

namespace yoloc::reference {

/// Production key schedule for one (column key, tile).
class KeyedNormals {
 public:
  KeyedNormals(const CimArrayModel& array, std::uint64_t column_key,
               int tile)
      : array_(&array),
        counter_(hash_combine(column_key, static_cast<std::uint64_t>(tile))) {
  }

  std::pair<double, double> operator()(int exact) {
    const std::uint64_t bits = splitmix64(counter_);
    counter_ += kSplitMixGamma;
    const double z_cell =
        array_->cell_noise() && exact > 0
            ? normal_from_bits(static_cast<std::uint32_t>(bits))
            : 0.0;
    const double z_adc =
        array_->adc_noise()
            ? normal_from_bits(static_cast<std::uint32_t>(bits >> 32))
            : 0.0;
    return {z_cell, z_adc};
  }

 private:
  const CimArrayModel* array_;
  std::uint64_t counter_;
};

/// Stream-based normals in the old chain's draw order.
class StreamNormals {
 public:
  StreamNormals(const CimArrayModel& array, Rng& rng)
      : array_(&array), rng_(&rng) {}

  std::pair<double, double> operator()(int exact) {
    const double z_cell =
        array_->cell_noise() && exact > 0 ? rng_->normal() : 0.0;
    return {z_cell, rng_->normal()};
  }

 private:
  const CimArrayModel* array_;
  Rng* rng_;
};

/// Analog MvmSession over `image_count` keys with no scratch or trace.
inline MvmSession analog_session(const std::uint64_t* keys, int image_count,
                                 MacroRunStats& stats, int layer = 0) {
  MvmSession session;
  session.image_keys = keys;
  session.image_count = image_count;
  session.layer = layer;
  session.stats = &stats;
  return session;
}

/// Popcount of (a & b) over bit range [lo, hi) of 128-bit row masks.
inline int count_and(const RowMask& a, const RowMask& b, int lo, int hi) {
  int total = 0;
  for (int i = lo; i < hi; ++i) {
    const std::uint64_t bit = 1ull << (i & 63);
    if ((a.lane[i >> 6] & b.lane[i >> 6] & bit) != 0) ++total;
  }
  return total;
}

/// One analog MVM of a single tile: y (m) ~= W (m x k, k <= rows) x.
template <typename Normals>
void mvm(const CimMacro& macro, const std::int8_t* w, int m, int k,
         const std::uint8_t* x, std::int32_t* y, Normals& normals,
         MacroRunStats& stats) {
  const MacroGeometry& g = macro.config().geometry;
  const CimArrayModel& array = macro.array_model();
  RowMask xbits[8];
  std::uint64_t pulses = 0;
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) {
      if ((x[i] >> t) & 1u) {
        xbits[t].set(i);
        ++pulses;
      }
    }
  }
  const FaultModel* faults =
      macro.fault_model() != nullptr && macro.fault_model()->active()
          ? macro.fault_model()
          : nullptr;
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  for (int j = 0; j < m; ++j) {
    RowMask wbits[8];
    for (int i = 0; i < k; ++i) {
      const auto wv =
          static_cast<std::uint8_t>(w[static_cast<std::size_t>(j) * k + i]);
      for (int b = 0; b < g.weight_bits; ++b) {
        if ((wv >> b) & 1u) wbits[b].set(i);
      }
    }
    double acc = 0.0;
    for (int b = 0; b < g.weight_bits; ++b) {
      AdcDrift drift;
      if (faults != nullptr) {
        const FaultModel::PlaneFaults pf = faults->plane(j, b);
        wbits[b].or_with(pf.force_one);
        wbits[b].and_not(pf.force_zero);
        drift = faults->adc_drift(j, b);
      }
      const double bit_weight = b == g.weight_bits - 1
                                    ? -static_cast<double>(1 << b)
                                    : static_cast<double>(1 << b);
      for (int t = 0; t < g.input_bits; ++t) {
        RowMask wb = wbits[b];
        if (faults != nullptr && faults->has_transients()) {
          wb.xor_with(faults->transient_flips(j, b, t));
        }
        for (int grp = 0; grp < groups; ++grp) {
          const int lo = grp * g.rows_per_activation;
          const int hi = std::min(k, lo + g.rows_per_activation);
          const int exact = count_and(wb, xbits[t], lo, hi);
          const auto [z_cell, z_adc] = normals(exact);
          double est = array.read(exact, z_cell, z_adc, stats.array);
          if (faults != nullptr) {
            est = est * drift.gain + drift.offset_counts;
          }
          acc += est * bit_weight * static_cast<double>(1 << t);
        }
      }
    }
    y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  // Digital and timing costs, as CimMacro charges them.
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  array.charge_wl_pulses(pulses, stats.array);
  array.charge_shift_adds(conversions, stats.array);
  stats.latency_ns +=
      std::ceil(static_cast<double>(conversions) / g.adc_per_subarray) *
      macro.config().adc.t_conv_ns;
  stats.macro_ops += 1;
  stats.macs += static_cast<std::uint64_t>(m) * k;
}

/// The exact-cost MVM of a single tile: integer product plus the
/// modeled cost of the analog reads at an average activity level.
inline void mvm_exact_cost(const CimMacro& macro, const std::int8_t* w,
                           int m, int k, const std::uint8_t* x,
                           std::int32_t* y, MacroRunStats& stats) {
  const MacroGeometry& g = macro.config().geometry;
  const CimArrayModel& array = macro.array_model();
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[i];
    }
    y[j] = static_cast<std::int32_t>(acc);
  }
  std::uint64_t pulses = 0;
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) pulses += (x[i] >> t) & 1u;
  }
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  stats.array.adc_conversions += conversions;
  stats.array.adc_energy_pj +=
      static_cast<double>(conversions) * macro.config().adc.energy_pj;
  stats.array.precharge_energy_pj +=
      static_cast<double>(conversions) *
      array.bitline().precharge_energy_pj(0.25 * g.rows_per_activation);
  array.charge_wl_pulses(pulses, stats.array);
  array.charge_shift_adds(conversions, stats.array);
  stats.latency_ns +=
      std::ceil(static_cast<double>(conversions) / g.adc_per_subarray) *
      macro.config().adc.t_conv_ns;
  stats.macro_ops += 1;
  stats.macs += static_cast<std::uint64_t>(m) * k;
}

/// MacroMvmEngine::mvm_batch by the reference: k tiled over the subarray
/// rows; in analog mode column c of image c / (p / image_count) is keyed
/// by the engine's noise_column_key (exact-cost mode ignores the keys).
inline void mvm_batch(const MacroMvmEngine& engine, const std::int8_t* w,
                      int m, int k, const std::uint8_t* x, int p,
                      std::int32_t* y, const std::uint64_t* image_keys,
                      int image_count, int layer, MacroRunStats& stats) {
  const CimMacro& macro = engine.macro();
  const int rows = macro.config().geometry.rows;
  const int cols_per_image = p / image_count;
  std::fill(y, y + static_cast<std::size_t>(m) * p, 0);
  std::vector<std::int8_t> w_tile;
  std::vector<std::uint8_t> x_col(static_cast<std::size_t>(rows));
  std::vector<std::int32_t> y_part(static_cast<std::size_t>(m));
  for (int tile = 0; tile * rows < k; ++tile) {
    const int k0 = tile * rows;
    const int k_size = std::min(rows, k - k0);
    w_tile.assign(static_cast<std::size_t>(m) * k_size, 0);
    for (int j = 0; j < m; ++j) {
      std::copy_n(w + static_cast<std::size_t>(j) * k + k0, k_size,
                  w_tile.begin() + static_cast<std::size_t>(j) * k_size);
    }
    for (int col = 0; col < p; ++col) {
      for (int i = 0; i < k_size; ++i) {
        x_col[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(k0 + i) * p + col];
      }
      if (engine.mode() == MacroMvmEngine::Mode::kExactCost) {
        mvm_exact_cost(macro, w_tile.data(), m, k_size, x_col.data(),
                       y_part.data(), stats);
      } else {
        KeyedNormals normals(
            macro.array_model(),
            engine.noise_column_key(image_keys[col / cols_per_image], layer,
                                    col % cols_per_image),
            tile);
        mvm(macro, w_tile.data(), m, k_size, x_col.data(), y_part.data(),
            normals, stats);
      }
      for (int j = 0; j < m; ++j) {
        y[static_cast<std::size_t>(j) * p + col] +=
            y_part[static_cast<std::size_t>(j)];
      }
    }
  }
}

/// MvmEngine adapter that runs the scalar reference in place of
/// `engine`, so whole networks can be executed through it.
class ReferenceEngine final : public MvmEngine {
 public:
  explicit ReferenceEngine(const MacroMvmEngine& engine) : engine_(&engine) {}

  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override {
    reference::mvm_batch(*engine_, w, m, k, x, p, y, session.image_keys,
                         session.image_count, session.layer,
                         *session.stats);
  }
  [[nodiscard]] std::string name() const override { return "reference"; }

 private:
  const MacroMvmEngine* engine_;
};

}  // namespace yoloc::reference
