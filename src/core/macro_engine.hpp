#pragma once
// MvmEngine backed by the CiM macro model: every integer MVM issued by a
// quantized layer is tiled over macro subarrays and executed through the
// analog bitline/ADC path (or the exact-cost path), accumulating
// energy/latency statistics along the way.
//
// This is the piece that closes the loop between the NN substrate and the
// circuit substrate: running a quantized network with this engine yields
// simultaneously (a) task accuracy under analog non-idealities and
// (b) measured compute energy per inference.
//
// The engine itself is immutable and reentrant: it holds only the macro
// model, the mode and the PackedWeightsCache its weights are packed into.
// The noise keys and the run statistics travel in the caller's
// MvmSession, so any number of requests can execute through one engine
// concurrently, each with its own session. Because a session is REQUIRED
// (stats always, image keys in analog mode), this engine cannot be
// direct-bound to quantized layers the way the sessionless
// ExactMvmEngine can — drive it through an ExecutionContext / MvmBinding
// (src/runtime/), which wires a session per request.
//
// mvm_batch resolves (or builds, once) the PackedRomWeights for the
// layer's weight buffer and drives CimMacro::mvm_packed /
// mvm_packed_exact_cost per (k-tile, column). Analog noise is keyed, not
// streamed: column c of image i reads its samples from
// noise_column_key(image_keys[i], layer, c) (macro/cim_macro.hpp has the
// rest of the key), so an image's outputs do not depend on the other
// images of the batch, on the column order or on earlier calls.

#include "macro/cim_macro.hpp"
#include "macro/packed_weights.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

class MacroMvmEngine final : public MvmEngine {
 public:
  enum class Mode {
    kAnalog,     // bitline + ADC + mismatch noise (accuracy + cost)
    kExactCost,  // bit-exact math, modeled cost (cost-only studies)
  };

  /// `packed_cache` must outlive the engine and be dedicated to this
  /// macro's geometry (a DeploymentPlan owns one per engine).
  MacroMvmEngine(const CimMacro& macro, Mode mode,
                 const PackedWeightsCache& packed_cache);

  // Note: the base class's sessionless mvm_batch convenience is
  // deliberately NOT re-exposed — this engine requires a session, so the
  // hidden overload turns a guaranteed runtime throw into a compile error.

  /// Requires session.stats; kAnalog additionally requires
  /// session.image_keys, one per image, with p a multiple of
  /// session.image_count (each image owns p / image_count consecutive
  /// columns).
  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override;
  [[nodiscard]] std::string name() const override;

  /// Noise key of column `column` (within its image) of layer `layer`
  /// for the image keyed `image_key` on this engine's macro kind.
  [[nodiscard]] std::uint64_t noise_column_key(std::uint64_t image_key,
                                               int layer, int column) const;

  [[nodiscard]] const CimMacro& macro() const { return *macro_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const PackedWeightsCache& packed_cache() const {
    return *packed_cache_;
  }

 private:
  const CimMacro* macro_;
  Mode mode_;
  const PackedWeightsCache* packed_cache_;
};

}  // namespace yoloc
