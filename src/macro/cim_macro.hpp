#pragma once
// Functional + cost model of one CiM macro executing integer MVMs.
//
// Computing discipline (paper Fig. 5):
//   * A weight matrix chunk W (m outputs x k rows, int8) is bit-sliced:
//     weight bit b of output j lives in column j*8+b of the subarray.
//   * The activation vector x (k entries, uint8) is applied bit-serially:
//     input cycle t pulses the wordlines of rows whose activation bit t
//     is 1.
//   * Rows are activated `rows_per_activation` at a time; each active
//     group, input cycle and weight-bit column produces one ADC read of
//     the ON-cell count (cells where weight bit AND input bit are 1).
//   * The digital backend reconstructs y = W x via shift-and-add with
//     two's-complement weighting (bit 7 contributes with factor -128).
//
// The same engine drives both macro kinds; the MacroConfig supplies the
// analog parameters (ROM: low mismatch; SRAM: higher mismatch, heavier
// wordlines) and the cost constants.
//
// Two paths, one per engine mode, both over a deploy-time packed tile
// (macro/packed_weights.hpp):
//   * mvm_packed: the analog model. Every read goes through the one read
//     chain, CimArrayModel::read().
//   * mvm_packed_exact_cost: bit-exact integer math that still pays the
//     modeled energy/latency (cost studies without accuracy modeling).
//
// Analog noise is counter-based: a read's two standard normals (cell
// mismatch, ADC noise) are a pure function of a 64-bit key, never of a
// stream position. The caller passes one key per (image, layer, column)
// (MacroMvmEngine::noise_column_key); mvm_packed folds in the tile index,
// and read number n = ((j * weight_bits + b) * input_bits + t) * groups
// + grp of the tile takes its 64 bits from
//   splitmix64(tile_key + n * kSplitMixGamma)
// — the low 32 bits give z_cell, the high 32 bits z_adc, each through
// normal_from_bits() (common/normal_quantile.hpp). No sample depends on
// any other read, on the loop order or on what else shares the call, so
// the reads may be computed in any order or in parallel. A zero sigma
// skips its draw.

#include <cstdint>
#include <memory>

#include "macro/fault_model.hpp"
#include "macro/macro_config.hpp"
#include "macro/packed_weights.hpp"

namespace yoloc {

/// Activity + energy + latency of one or more macro operations.
struct MacroRunStats {
  ArrayReadStats array;
  std::uint64_t macro_ops = 0;   // MVM tiles executed
  std::uint64_t macs = 0;        // exact integer MACs represented
  double latency_ns = 0.0;       // serialized conversion slots
  [[nodiscard]] double energy_pj() const { return array.total_energy_pj(); }
  void accumulate(const MacroRunStats& other);
};

class CimMacro {
 public:
  explicit CimMacro(MacroConfig config);

  /// Analog-modeled MVM over one packed tile: y (m partial sums) ~= W_tile
  /// x, noise and quantization per the circuit model. `x` holds the
  /// tile's k_size activation entries; `noise_key` keys every noise
  /// sample of the call (file comment). Accumulates activity into stats.
  /// `packed` must have been built against this macro's geometry.
  void mvm_packed(const PackedRomWeights& packed, int tile_index,
                  const std::uint8_t* x, std::int32_t* y,
                  std::uint64_t noise_key, MacroRunStats& stats) const;

  /// Exact-cost MVM over one packed tile: the integer product plus the
  /// modeled energy/latency of the analog reads (at an average activity
  /// level) — isolates cost modeling from accuracy modeling. `w` is the
  /// FULL (m x k) weight matrix the packing was built from (the integer
  /// MAC reads the raw rows in place); `packed` supplies the tile
  /// boundaries and cost geometry. Draws no noise.
  void mvm_packed_exact_cost(const PackedRomWeights& packed, int tile_index,
                             const std::int8_t* w, const std::uint8_t* x,
                             std::int32_t* y, MacroRunStats& stats) const;

  [[nodiscard]] const MacroConfig& config() const { return config_; }
  [[nodiscard]] const CimArrayModel& array_model() const { return array_; }

  /// The macro's fault model, or nullptr when config().faults.any() is
  /// false (the common case — no model is constructed at all). The
  /// pointer is stable for the macro's lifetime; copies of the macro
  /// share one model, so toggling set_active() reaches every copy.
  [[nodiscard]] FaultModel* fault_model() const { return faults_.get(); }

  /// Latency of a single full bit-serial pass (Table I "inference time"):
  /// input_bits serial cycles at the macro clock.
  [[nodiscard]] double single_pass_latency_ns() const;

 private:
  /// Bookkeeping shared by both paths: wordline pulses, shift-adds,
  /// conversion latency, op and MAC counts.
  void charge_op_costs(int m, int k, std::uint64_t pulses,
                       MacroRunStats& stats) const;

  void check_packed_tile(const PackedRomWeights& packed,
                         int tile_index) const;

  MacroConfig config_;
  CimArrayModel array_;
  /// Constructed only when config_.faults.any(); shared so macro copies
  /// see one active flag. Both paths hoist ONE null/active check per
  /// call — the fault-off instruction stream is otherwise unchanged.
  std::shared_ptr<FaultModel> faults_;
};

}  // namespace yoloc
