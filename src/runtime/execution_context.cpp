#include "runtime/execution_context.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"
#include "runtime/deployment_plan.hpp"

namespace yoloc {

std::uint64_t noise_image_key(std::uint64_t request_seed,
                              std::uint64_t index) {
  return hash_combine(splitmix64(request_seed), index);
}

ExecutionContext::ExecutionContext(const DeploymentPlan& plan,
                                   std::uint64_t noise_seed)
    : plan_(&plan), seed_(noise_seed) {}

Tensor ExecutionContext::infer(const Tensor& images) {
  YOLOC_CHECK(images.rank() >= 1, "execution context: scalar input");
  image_keys_.resize(static_cast<std::size_t>(images.shape()[0]));
  for (std::uint64_t& key : image_keys_) {
    key = noise_image_key(seed_, next_image_++);
  }
  return plan_->execute(images, *this);
}

Tensor ExecutionContext::infer(const Tensor& images,
                               std::span<const std::uint64_t> keys) {
  YOLOC_CHECK(images.rank() >= 1 &&
                  keys.size() == static_cast<std::size_t>(images.shape()[0]),
              "execution context: need one noise key per image");
  image_keys_.assign(keys.begin(), keys.end());
  return plan_->execute(images, *this);
}

void ExecutionContext::reset_stats() {
  rom_stats_ = MacroRunStats{};
  sram_stats_ = MacroRunStats{};
}

double ExecutionContext::total_energy_pj() const {
  return rom_stats_.energy_pj() + sram_stats_.energy_pj();
}

}  // namespace yoloc
