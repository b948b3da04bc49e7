#include "core/macro_engine.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace yoloc {

MacroMvmEngine::MacroMvmEngine(const CimMacro& macro, Mode mode,
                               const PackedWeightsCache& packed_cache)
    : macro_(&macro), mode_(mode), packed_cache_(&packed_cache) {}

std::string MacroMvmEngine::name() const {
  return mode_ == Mode::kAnalog ? "macro-analog" : "macro-exact-cost";
}

std::uint64_t MacroMvmEngine::noise_column_key(std::uint64_t image_key,
                                               int layer, int column) const {
  std::uint64_t h = hash_combine(
      image_key, static_cast<std::uint64_t>(macro_->config().kind));
  h = hash_combine(h, static_cast<std::uint64_t>(layer));
  return hash_combine(h, static_cast<std::uint64_t>(column));
}

void MacroMvmEngine::mvm_batch(const std::int8_t* w, int m, int k,
                               const std::uint8_t* x, int p, std::int32_t* y,
                               MvmSession& session) const {
  YOLOC_CHECK(m > 0 && k > 0 && p > 0, "macro engine: bad MVM shape");
  YOLOC_CHECK(session.stats != nullptr,
              "macro engine: session must carry run stats");
  const bool analog = mode_ == Mode::kAnalog;
  YOLOC_CHECK(!analog || (session.image_keys != nullptr &&
                          session.image_count > 0 &&
                          p % session.image_count == 0),
              "macro engine: analog mode needs one noise key per image");
  MacroRunStats& stats = *session.stats;
  const int cols_per_image = analog ? p / session.image_count : p;

  for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) y[i] = 0;

  // Tiling buffers come from the session scratch when available so the
  // serve-time hot loop stops allocating per layer.
  MvmScratch local_scratch;
  MvmScratch& scratch =
      session.scratch != nullptr ? *session.scratch : local_scratch;
  std::vector<std::uint8_t>& x_chunk = scratch.x_chunk;
  std::vector<std::int32_t>& y_partial = scratch.y_partial;
  x_chunk.resize(static_cast<std::size_t>(macro_->config().geometry.rows));
  y_partial.resize(static_cast<std::size_t>(m));

  // Weight bit-planes were expanded once at deploy time (or on first
  // touch); per column only the activation vector moves. Exact-cost mode
  // never reads the bit-planes (it MACs the raw int8 rows), so it
  // requests the boundaries-only packing.
  const PackedRomWeights& packed = packed_cache_->get_or_pack(
      w, m, k, macro_->config().geometry, /*pack_planes=*/analog);
  for (int tile = 0; tile < packed.tile_count(); ++tile) {
    const PackedRomWeights::Tile& t = packed.tile(tile);
    for (int col = 0; col < p; ++col) {
      for (int i = 0; i < t.k_size; ++i) {
        x_chunk[static_cast<std::size_t>(i)] =
            x[static_cast<std::size_t>(t.k0 + i) * p + col];
      }
      if (analog) {
        const std::uint64_t key = noise_column_key(
            session.image_keys[col / cols_per_image], session.layer,
            col % cols_per_image);
        macro_->mvm_packed(packed, tile, x_chunk.data(), y_partial.data(),
                           key, stats);
      } else {
        macro_->mvm_packed_exact_cost(packed, tile, w, x_chunk.data(),
                                      y_partial.data(), stats);
      }
      for (int j = 0; j < m; ++j) {
        y[static_cast<std::size_t>(j) * p + col] +=
            y_partial[static_cast<std::size_t>(j)];
      }
    }
  }
}

}  // namespace yoloc
