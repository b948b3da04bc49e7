#pragma once
// Column read model: ties cell mismatch, bitline discharge and ADC
// quantization into a single "analog count readout" primitive, plus the
// per-event energy accounting the macro layer aggregates.
//
// The macro performs, per (row-group, input-bit, weight-bit-column):
//   exact_count  = number of cells with (input bit == 1 && weight bit == 1)
//   effective    = exact_count + sigma_cell * sqrt(exact_count) * z_cell
//                  (sum of i.i.d. per-cell current mismatch)
//   v_bl         = bitline.voltage_for_count(effective)
//   code         = adc.quantize_ideal(v_bl + noise_sigma_v * z_adc)
//   estimate     = code scaled back to counts
// CimArrayModel::read() is the one implementation of this chain; the
// caller supplies the two standard normals z_cell and z_adc (the macro
// derives them from a counter-based key, macro/cim_macro.hpp).
// The estimate is exact when the row-group size matches the ADC level
// count and sigma is ~0; widening the group beyond the ADC range (the
// paper's aggressive 128-rows-per-activation mode) trades accuracy for
// fewer conversions — an ablation benchmark sweeps exactly this.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/adc.hpp"
#include "circuit/bitline.hpp"

namespace yoloc {

/// Per-event digital/driver energies accompanying each analog read.
struct ArrayEnergyParams {
  double wl_pulse_pj = 0.0006;   // one wordline pulse on one row
  double shift_add_pj = 0.012;   // one digital shift-add accumulation
  double dac_driver_pj = 0.001;  // input-bit driver, per row per cycle

  bool operator==(const ArrayEnergyParams&) const = default;
};

/// Accumulated activity counters for one or more array operations.
struct ArrayReadStats {
  std::uint64_t adc_conversions = 0;
  std::uint64_t wl_pulses = 0;
  std::uint64_t shift_adds = 0;
  double adc_energy_pj = 0.0;
  double precharge_energy_pj = 0.0;
  double wl_energy_pj = 0.0;
  double shift_add_energy_pj = 0.0;

  [[nodiscard]] double total_energy_pj() const {
    return adc_energy_pj + precharge_energy_pj + wl_energy_pj +
           shift_add_energy_pj;
  }
  void accumulate(const ArrayReadStats& other);
};

/// Per-column ADC transfer drift (fault injection, macro/fault_model.*):
/// the drifted count estimate is estimate * gain + offset_counts,
/// applied AFTER the read chain so the underlying conversion (and its
/// stats/energy accounting) is untouched. Identity by default.
struct AdcDrift {
  double gain = 1.0;
  double offset_counts = 0.0;
};

class CimArrayModel {
 public:
  /// `group_size` is the number of simultaneously activated rows; the ADC
  /// full-scale is matched to that discharge range.
  CimArrayModel(const BitlineParams& bitline, AdcParams adc,
                const ArrayEnergyParams& energy, int group_size);

  /// One column read: digitize `exact_count` ON cells given two
  /// standard-normal samples — `z_cell` scales the summed cell mismatch
  /// sigma_cell * sqrt(exact_count), `z_adc` the ADC input-referred
  /// noise. Returns the count estimate; accumulates conversion +
  /// precharge energy into `stats`. A zero sigma ignores its sample, so
  /// callers skip drawing it. Precondition (unchecked: this runs once per
  /// ADC conversion): 0 <= exact_count <= group_size().
  [[nodiscard]] double read(int exact_count, double z_cell, double z_adc,
                            ArrayReadStats& stats) const {
    double effective = exact_count;
    if (cell_noise_ && exact_count > 0) {
      effective +=
          cell_sigma_[static_cast<std::size_t>(exact_count)] * z_cell;
      if (effective < 0.0) effective = 0.0;
    }
    const double v = std::max(v_precharge_ - effective * delta_v_, v_floor_);
    const double clamped =
        std::clamp(v + adc_sigma_v_ * z_adc, v_lo_, v_hi_);
    // std::lround of the non-negative quotient, inline (libm's lround is
    // an out-of-line call): truncation is floor here, and q - floor(q)
    // is exact, so ties round away from zero exactly as lround does.
    const double q = (v_hi_ - clamped) / lsb_;
    int code = static_cast<int>(q);
    if (q - code >= 0.5) ++code;
    code = std::min(code, levels_ - 1);
    stats.adc_conversions += 1;
    stats.adc_energy_pj += adc_energy_pj_;
    // Same product order as BitlineModel::precharge_energy_pj.
    stats.precharge_energy_pj +=
        cv_ * std::min(effective * delta_v_, bl_range_) * 1e-3;
    return code * counts_per_code_;
  }

  /// True when the chain reads the z_cell / z_adc samples at all.
  [[nodiscard]] bool cell_noise() const { return cell_noise_; }
  [[nodiscard]] bool adc_noise() const { return adc_sigma_v_ > 0.0; }

  /// Charge the wordline-driver energy for `pulses` input pulses.
  void charge_wl_pulses(std::uint64_t pulses, ArrayReadStats& stats) const;
  /// Charge digital accumulation energy for `ops` shift-adds.
  void charge_shift_adds(std::uint64_t ops, ArrayReadStats& stats) const;

  [[nodiscard]] int group_size() const { return group_size_; }
  [[nodiscard]] double counts_per_code() const { return counts_per_code_; }
  [[nodiscard]] const Adc& adc() const { return adc_; }
  [[nodiscard]] const BitlineModel& bitline() const { return bitline_; }

 private:
  BitlineModel bitline_;
  Adc adc_;
  ArrayEnergyParams energy_;
  int group_size_;
  double counts_per_code_;

  // read() constants, hoisted from the bitline/ADC models.
  bool cell_noise_;
  std::vector<double> cell_sigma_;  // sigma_cell * sqrt(count)
  double adc_sigma_v_;
  double delta_v_;
  double v_precharge_;
  double v_floor_;
  double v_lo_;
  double v_hi_;
  double lsb_;
  int levels_;
  double adc_energy_pj_;
  double cv_;        // c_bl_ff * v_precharge
  double bl_range_;  // v_precharge - v_floor
};

}  // namespace yoloc
