#include "circuit/cim_array.hpp"

#include <cmath>

#include "common/check.hpp"

namespace yoloc {

void ArrayReadStats::accumulate(const ArrayReadStats& other) {
  adc_conversions += other.adc_conversions;
  wl_pulses += other.wl_pulses;
  shift_adds += other.shift_adds;
  adc_energy_pj += other.adc_energy_pj;
  precharge_energy_pj += other.precharge_energy_pj;
  wl_energy_pj += other.wl_energy_pj;
  shift_add_energy_pj += other.shift_add_energy_pj;
}

namespace {

/// One ADC LSB spans an integer number of cell-discharge steps so that
/// in-range counts reconstruct exactly: ceil(group / 2^bits). Groups
/// larger than the code range saturate at the top codes (the paper's
/// aggressive many-rows-per-activation trade-off).
int lsb_count_steps(int group_size, int adc_bits) {
  const int levels = 1 << adc_bits;
  return (group_size + levels - 1) / levels;
}

}  // namespace

CimArrayModel::CimArrayModel(const BitlineParams& bitline, AdcParams adc,
                             const ArrayEnergyParams& energy, int group_size)
    : bitline_(bitline),
      adc_((adc.v_hi = bitline.v_precharge,
            // ADC full-scale = (levels-1) LSBs of lsb_count_steps cells
            // each, anchored at the precharge voltage. The low reference
            // may extend below the discharge floor (codes down there are
            // simply never produced); what matters is that one LSB spans
            // exactly lsb_count_steps cell-discharge steps.
            adc.v_lo = bitline.v_precharge -
                       ((1 << adc.bits) - 1) *
                           lsb_count_steps(group_size, adc.bits) *
                           (bitline.i_cell_ua * bitline.t_pulse_ns /
                            bitline.c_bl_ff),
            adc)),
      energy_(energy),
      group_size_(group_size) {
  YOLOC_CHECK(group_size >= 1, "cim array: group_size >= 1");
  YOLOC_CHECK(group_size <= bitline_.max_resolvable_count(),
              "cim array: group discharge exceeds bitline range; reduce "
              "group size or cell current");
  counts_per_code_ =
      static_cast<double>(lsb_count_steps(group_size, adc_.params().bits));

  const BitlineParams& bl = bitline_.params();
  const AdcParams& ap = adc_.params();
  cell_noise_ = bl.sigma_cell > 0.0;
  cell_sigma_.resize(static_cast<std::size_t>(group_size) + 1);
  for (int c = 0; c <= group_size; ++c) {
    cell_sigma_[static_cast<std::size_t>(c)] =
        bl.sigma_cell * std::sqrt(static_cast<double>(c));
  }
  adc_sigma_v_ = ap.noise_sigma_v;
  delta_v_ = bitline_.delta_v_per_cell();
  v_precharge_ = bl.v_precharge;
  v_floor_ = bl.v_floor;
  v_lo_ = ap.v_lo;
  v_hi_ = ap.v_hi;
  lsb_ = adc_.lsb_voltage();
  levels_ = adc_.code_count();
  adc_energy_pj_ = ap.energy_pj;
  cv_ = bl.c_bl_ff * bl.v_precharge;
  bl_range_ = bl.v_precharge - bl.v_floor;
}

void CimArrayModel::charge_wl_pulses(std::uint64_t pulses,
                                     ArrayReadStats& stats) const {
  stats.wl_pulses += pulses;
  stats.wl_energy_pj +=
      static_cast<double>(pulses) * (energy_.wl_pulse_pj + energy_.dac_driver_pj);
}

void CimArrayModel::charge_shift_adds(std::uint64_t ops,
                                      ArrayReadStats& stats) const {
  stats.shift_adds += ops;
  stats.shift_add_energy_pj += static_cast<double>(ops) * energy_.shift_add_pj;
}

}  // namespace yoloc
