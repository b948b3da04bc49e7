#pragma once
// The served network and everything the benchmark computes in-process
// about it: the twin plans, the seeded input pool and the per-image
// references the output gate compares against.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/deployment_plan.hpp"

namespace perfbench {

inline constexpr int kImageSize = 16;
inline constexpr int kChannels = 3;
inline constexpr int kClasses = 10;
inline constexpr std::size_t kImageFloats =
    static_cast<std::size_t>(kChannels) * kImageSize * kImageSize;

/// VGG8-lite 16x16 with every backbone conv wrapped as a ReBranch unit
/// (D = U = 4) and the ReBranch residency policy applied: trunk and
/// (de)compress in ROM, res-conv and head in SRAM. Fixed model seed, so
/// every run serves the same weights.
yoloc::LayerPtr build_rebranch_model();

/// Lowers two twins of the model -- exact-cost and analog -- from the
/// same weights and calibration images and saves them as .yolocplan
/// files in `dir`.
struct TwinPlanPaths {
  std::string exact;
  std::string analog;
};
TwinPlanPaths write_twin_plans(const std::string& dir);

/// `count` seeded input images, each 1x3x16x16 uniform in [0, 1).
std::vector<std::vector<float>> make_image_pool(std::uint64_t seed,
                                                int count);

/// One image's references.
struct ImageRef {
  std::vector<float> exact;  ///< exact-cost twin logits
  std::vector<float> flt;    ///< float model logits
  yoloc::MacroRunStats rom;  ///< served plan's modelled ROM activity
  yoloc::MacroRunStats sram; ///< served plan's modelled SRAM activity
};

/// Per-image references: logits of the exact twin and the float model,
/// and the served plan's modelled activity for that image alone (one
/// fresh ExecutionContext per image).
std::vector<ImageRef> compute_references(
    const std::vector<std::vector<float>>& pool,
    const yoloc::DeploymentPlan& exact_plan,
    const yoloc::DeploymentPlan& served_plan, yoloc::Layer& float_model);

/// Stacks pool images into one NCHW tensor.
yoloc::Tensor stack_images(const std::vector<std::vector<float>>& pool,
                           const std::vector<int>& indices);

/// Exact-mode invariants the gate relies on, checked in-process on the
/// served plan: running the pool in fused micro-batches of `batch`
/// images gives bit-identical logits and identical integer activity
/// counters to running each image alone, and the same modelled energy and
/// latency up to summation order. Returns an empty string on success,
/// else the first violation.
std::string check_batch_invariance(const std::vector<std::vector<float>>& pool,
                                   const std::vector<ImageRef>& refs,
                                   const yoloc::DeploymentPlan& plan,
                                   int batch);

/// Integer activity counters of a, b equal; energy and latency equal to
/// a relative 1e-9 (they are sums of doubles taken in a different order).
bool same_activity(const yoloc::MacroRunStats& a,
                   const yoloc::MacroRunStats& b);

}  // namespace perfbench
