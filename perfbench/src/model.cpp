#include "model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "bench_core.hpp"
#include "nn/zoo.hpp"
#include "rebranch/rebranch.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"

namespace perfbench {

using namespace yoloc;

namespace {

constexpr std::uint64_t kModelSeed = 42;
constexpr std::uint64_t kCalibrationSeed = 7;
constexpr int kCalibrationImages = 8;

std::unique_ptr<DeploymentPlan> lower(MacroMvmEngine::Mode mode) {
  std::vector<std::vector<float>> calib =
      make_image_pool(kCalibrationSeed, kCalibrationImages);
  std::vector<int> all(calib.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  DeploymentOptions options;
  options.mode = mode;
  return std::make_unique<DeploymentPlan>(build_rebranch_model(),
                                          stack_images(calib, all), options);
}

}  // namespace

LayerPtr build_rebranch_model() {
  ZooConfig zoo;
  zoo.image_size = kImageSize;
  zoo.in_channels = kChannels;
  zoo.base_width = 8;
  zoo.num_classes = kClasses;
  zoo.seed = kModelSeed;
  LayerPtr model = build_vgg8_lite(zoo, make_rebranch_factory({4, 4}));
  apply_transfer_policy(*model, TransferOption::kReBranch);
  return model;
}

TwinPlanPaths write_twin_plans(const std::string& dir) {
  std::filesystem::create_directories(dir);
  TwinPlanPaths paths{dir + "/exact.yolocplan", dir + "/analog.yolocplan"};
  save_plan(*lower(MacroMvmEngine::Mode::kExactCost), paths.exact);
  save_plan(*lower(MacroMvmEngine::Mode::kAnalog), paths.analog);
  return paths;
}

std::vector<std::vector<float>> make_image_pool(std::uint64_t seed,
                                                int count) {
  SeedStream rng(seed);
  std::vector<std::vector<float>> pool(static_cast<std::size_t>(count));
  for (auto& image : pool) {
    image.resize(kImageFloats);
    for (float& v : image) v = static_cast<float>(rng.uniform());
  }
  return pool;
}

Tensor stack_images(const std::vector<std::vector<float>>& pool,
                    const std::vector<int>& indices) {
  Tensor out({static_cast<int>(indices.size()), kChannels, kImageSize,
              kImageSize});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    std::memcpy(out.data() + i * kImageFloats,
                pool[static_cast<std::size_t>(indices[i])].data(),
                kImageFloats * sizeof(float));
  }
  return out;
}

std::vector<ImageRef> compute_references(
    const std::vector<std::vector<float>>& pool,
    const DeploymentPlan& exact_plan, const DeploymentPlan& served_plan,
    Layer& float_model) {
  std::vector<ImageRef> refs(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Tensor x = stack_images(pool, {static_cast<int>(i)});
    ImageRef& ref = refs[i];
    {
      ExecutionContext ctx(exact_plan);
      const Tensor y = ctx.infer(x);
      ref.exact.assign(y.data(), y.data() + y.size());
      if (&exact_plan == &served_plan) {
        ref.rom = ctx.rom_stats();
        ref.sram = ctx.sram_stats();
      }
    }
    if (&exact_plan != &served_plan) {
      ExecutionContext ctx(served_plan, 2024 + i);
      (void)ctx.infer(x);
      ref.rom = ctx.rom_stats();
      ref.sram = ctx.sram_stats();
    }
    const Tensor f = float_model.forward(x, /*train=*/false);
    ref.flt.assign(f.data(), f.data() + f.size());
  }
  return refs;
}

bool same_activity(const MacroRunStats& a, const MacroRunStats& b) {
  const auto close = [](double x, double y) {
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  };
  return a.macs == b.macs && a.macro_ops == b.macro_ops &&
         a.array.adc_conversions == b.array.adc_conversions &&
         a.array.wl_pulses == b.array.wl_pulses &&
         a.array.shift_adds == b.array.shift_adds &&
         close(a.energy_pj(), b.energy_pj()) &&
         close(a.latency_ns, b.latency_ns);
}

std::string check_batch_invariance(const std::vector<std::vector<float>>& pool,
                                   const std::vector<ImageRef>& refs,
                                   const DeploymentPlan& plan, int batch) {
  MacroRunStats want_rom, want_sram;
  for (const ImageRef& r : refs) {
    want_rom.accumulate(r.rom);
    want_sram.accumulate(r.sram);
  }
  ExecutionContext ctx(plan);
  const int n = static_cast<int>(pool.size());
  for (int first = 0; first < n; first += batch) {
    std::vector<int> idx;
    for (int i = first; i < std::min(n, first + batch); ++i) idx.push_back(i);
    const Tensor y = ctx.infer(stack_images(pool, idx));
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const ImageRef& r = refs[static_cast<std::size_t>(idx[j])];
      if (!bits_equal(y.data() + j * kClasses, r.exact.data(), kClasses)) {
        return "fused micro-batch logits differ from single-image logits "
               "for pool image " + std::to_string(idx[j]);
      }
    }
  }
  if (!same_activity(ctx.rom_stats(), want_rom) ||
      !same_activity(ctx.sram_stats(), want_sram)) {
    return "fused micro-batch activity differs from the per-image sum";
  }
  return {};
}

}  // namespace perfbench
