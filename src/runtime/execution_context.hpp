#pragma once
// Serve-time half of the runtime: all mutable per-request state.
//
// An ExecutionContext is cheap to construct and holds exactly what one
// in-flight request needs while executing a shared DeploymentPlan:
//   * the analog noise seed and the per-image noise keys derived from it,
//   * per-request MacroRunStats for both macros,
//   * scratch buffers (im2col matrix, quantized activations, int32
//     accumulator, macro tiling chunks) reused across layers and calls so
//     the hot loop stops allocating.
//
// Determinism: every analog noise sample is a pure function of its
// image's noise key and its position in the network (layer, column,
// tile, read — see core/macro_engine.hpp). An image's logits therefore
// depend only on (plan, image, key): not on the thread, on what runs
// concurrently, or on which other images share the batch. infer(images)
// numbers the images it sees since construction (or the last reseed) and
// keys image n as noise_image_key(seed, n): a fresh context's first
// batch uses indices 0..N-1, and later calls draw fresh noise.

#include <cstdint>
#include <span>
#include <vector>

#include "macro/cim_macro.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

class DeploymentPlan;

/// Noise key of image `index` of a request seeded `request_seed`.
[[nodiscard]] std::uint64_t noise_image_key(std::uint64_t request_seed,
                                            std::uint64_t index);

class ExecutionContext {
 public:
  explicit ExecutionContext(const DeploymentPlan& plan,
                            std::uint64_t noise_seed = 2024);

  // Holds scratch + noise keys; handed out by pointer into MvmSessions
  // while executing, so keep it pinned.
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Quantized inference through the plan's macro engines; the images are
  /// keyed by their running index (file comment). Stats accumulate across
  /// calls until reset_stats().
  Tensor infer(const Tensor& images);

  /// Same, with caller-supplied keys: one per image (images.shape()[0]).
  /// Fusing requests into one batch keeps each image's own key, and so
  /// its logits.
  Tensor infer(const Tensor& images, std::span<const std::uint64_t> keys);

  /// Restart infer(images)'s keys at image 0 of `noise_seed` (stats are
  /// untouched).
  void reseed(std::uint64_t noise_seed) {
    seed_ = noise_seed;
    next_image_ = 0;
  }

  /// Activity of the ROM / SRAM macros since the last reset.
  [[nodiscard]] const MacroRunStats& rom_stats() const { return rom_stats_; }
  [[nodiscard]] const MacroRunStats& sram_stats() const {
    return sram_stats_;
  }
  void reset_stats();

  /// Total modeled macro energy [pJ] since the last reset.
  [[nodiscard]] double total_energy_pj() const;

  [[nodiscard]] const DeploymentPlan& plan() const { return *plan_; }

  /// Install (or clear, with nullptr) a per-layer trace sink: while set,
  /// every quant layer executed through this context reports its
  /// im2col/MVM phase timings to the sink. Observer-only — never affects
  /// outputs, stats or noise keys.
  void set_layer_trace(LayerTraceSink* trace) { trace_ = trace; }
  [[nodiscard]] LayerTraceSink* layer_trace() const { return trace_; }

 private:
  friend class DeploymentPlan;  // wires keys/stats/scratch into the binding

  const DeploymentPlan* plan_;
  std::uint64_t seed_;
  std::uint64_t next_image_ = 0;  // running index for infer(images)
  std::vector<std::uint64_t> image_keys_;  // of the batch being executed
  MacroRunStats rom_stats_;
  MacroRunStats sram_stats_;
  MvmScratch scratch_;
  LayerTraceSink* trace_ = nullptr;
};

}  // namespace yoloc
