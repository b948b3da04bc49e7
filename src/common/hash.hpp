#pragma once
// Counter-based hashing: the one SplitMix64 finalizer behind every
// stateless random decision in the repository (Rng seeding, fault
// patterns, trace sampling, analog read noise). A value derived this way
// is a pure function of its key, so it does not depend on call order,
// thread or batch — the construction of Salmon et al., "Parallel Random
// Numbers: As Easy as 1, 2, 3" (SC'11).

#include <cstdint>

namespace yoloc {

/// SplitMix64 golden-ratio increment.
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64 output for state `x`: adds the gamma, then finalizes.
/// splitmix64(seed + i * kSplitMixGamma) is element i of the SplitMix64
/// stream seeded `seed`.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Fold `v` into hash state `h`.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash value.
constexpr double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace yoloc
