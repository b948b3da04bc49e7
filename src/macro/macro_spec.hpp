#pragma once
// Table I generator: derive the macro specification summary from the
// configured models (geometry + area model + a measured energy run), so
// the printed numbers are model outputs rather than constants.

#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "macro/cim_macro.hpp"

namespace yoloc {

struct MacroSpecSummary {
  std::string process = "28nm CMOS";
  double macro_size_mb = 0.0;
  double macro_area_mm2 = 0.0;
  double density_mb_per_mm2 = 0.0;
  double cell_area_um2 = 0.0;
  int input_bits = 0;
  int weight_bits = 0;
  /// One bit-serial pass (input_bits cycles), the paper's accounting unit.
  double inference_time_ns = 0.0;
  /// Ops per pass: 2 * rows (one full-column dot product, MAC = 2 ops).
  int operation_number = 0;
  double throughput_gops = 0.0;
  double area_eff_gops_per_mm2 = 0.0;
  /// Measured by running a random MVM through the functional model.
  double mac_eff_tops_per_w = 0.0;
  double standby_power_uw = 0.0;
  /// Macro density ratio vs the given reference density.
  double density_ratio = 0.0;
};

/// Summarize `macro`, measuring energy with `samples` random dot products
/// (`rng` draws the operands and each MVM's noise key).
/// `reference_density_mb_per_mm2` sets the "(Nx)" density comparison (the
/// paper compares against its 6T SRAM-CiM counterpart at ~0.195 Mb/mm^2).
MacroSpecSummary summarize_macro(const CimMacro& macro, Rng& rng,
                                 int samples = 64,
                                 double reference_density_mb_per_mm2 = 0.195);

/// Render the summary in Table I's row order.
TextTable macro_spec_table(const MacroSpecSummary& summary);

}  // namespace yoloc
