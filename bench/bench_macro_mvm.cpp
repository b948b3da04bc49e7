// Kernel-level throughput of the CiM macro MVM (MacroMvmEngine over the
// deploy-time packed weights) across {rows, input_bits, weight_bits}
// geometries, in analog mode with the default ROM noise, in noise-free
// analog mode (sigma_cell = 0, adc noise = 0 — the configuration every
// fidelity test runs), and in exact-cost mode. One JSON line per
// (geometry, variant), same trajectory-file conventions as
// bench_serving_throughput:
//
//   {"bench":"macro_mvm","path":"packed","variant":"analog",...,
//    "ns_per_mac":..,"columns_per_s":..,"pack_ms":..,
//    "host_cores":..,"cpu":".."}
//
// Before timing, each analog configuration asserts the engine's outputs
// and run stats are bit-identical to the scalar reference in
// tests/reference_macro.hpp under the same noise keys — the bench
// refuses to report a time for a kernel that changed results.
//
//   build/bench_macro_mvm [--seconds=S]   (default 0.4s per cell)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/macro_engine.hpp"
#include "reference_macro.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

struct Geometry {
  int rows;
  int input_bits;
  int weight_bits;
};

struct Variant {
  const char* name;
  MacroMvmEngine::Mode mode;
  bool noise_free;
};

struct Measurement {
  double seconds = 0.0;
  std::uint64_t columns = 0;
};

MacroConfig make_config(const Geometry& geom, bool noise_free) {
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.rows = geom.rows;
  cfg.geometry.input_bits = geom.input_bits;
  cfg.geometry.weight_bits = geom.weight_bits;
  if (cfg.geometry.rows_per_activation > geom.rows) {
    cfg.geometry.rows_per_activation = geom.rows;
  }
  if (noise_free) {
    cfg.bitline.sigma_cell = 0.0;
    cfg.adc.noise_sigma_v = 0.0;
  }
  cfg.validate();
  return cfg;
}

/// True when outputs AND every modeled stat agree exactly.
bool bit_identical(const std::vector<std::int32_t>& ya,
                   const std::vector<std::int32_t>& yb,
                   const MacroRunStats& sa, const MacroRunStats& sb) {
  return ya == yb && sa.array.adc_conversions == sb.array.adc_conversions &&
         sa.array.wl_pulses == sb.array.wl_pulses &&
         sa.array.shift_adds == sb.array.shift_adds &&
         sa.array.adc_energy_pj == sb.array.adc_energy_pj &&
         sa.array.precharge_energy_pj == sb.array.precharge_energy_pj &&
         sa.array.wl_energy_pj == sb.array.wl_energy_pj &&
         sa.array.shift_add_energy_pj == sb.array.shift_add_energy_pj &&
         sa.macro_ops == sb.macro_ops && sa.macs == sb.macs &&
         sa.latency_ns == sb.latency_ns;
}

Measurement time_engine(const MacroMvmEngine& engine, int m, int k, int p,
                        const std::vector<std::int8_t>& w,
                        const std::vector<std::uint8_t>& x,
                        const std::uint64_t* keys, double min_seconds) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session;
  session.image_keys = keys;
  session.image_count = 1;
  session.stats = &stats;
  session.scratch = &scratch;
  engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);  // warm

  Measurement out;
  const auto start = Clock::now();
  int iters = 0;
  for (;;) {
    engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);
    ++iters;
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (out.seconds >= min_seconds && iters >= 3) break;
  }
  out.columns = static_cast<std::uint64_t>(iters) * p;
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string name =
          colon == std::string::npos ? line : line.substr(colon + 1);
      name.erase(0, name.find_first_not_of(' '));
      for (char& c : name) {
        if (c == '"' || c == '\\') c = ' ';
      }
      return name;
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  double min_seconds = 0.4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      min_seconds = std::atof(argv[i] + 10);
    }
  }
  const unsigned host_cores = std::thread::hardware_concurrency();
  const std::string cpu = cpu_model();

  const Geometry geometries[] = {
      {128, 8, 8},  // YOLO-scale: paper Table I operating point
      {128, 4, 4},
      {64, 8, 8},
      {64, 4, 4},
  };
  const Variant variants[] = {
      {"analog", MacroMvmEngine::Mode::kAnalog, false},
      {"analog_noise_free", MacroMvmEngine::Mode::kAnalog, true},
      {"exact_cost", MacroMvmEngine::Mode::kExactCost, false},
  };
  const int m = 128;  // output rows (YOLO-scale conv channel tile)
  const int p = 16;   // im2col columns per engine call
  const std::uint64_t image_key = 11;

  for (const Geometry& geom : geometries) {
    // k > rows exercises the multi-tile path on one of the sweeps.
    const int k = geom.rows == 128 ? geom.rows : geom.rows * 2 + 10;
    Rng init(3);
    std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
    std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
    for (auto& v : w) v = static_cast<std::int8_t>(init.uniform_int(-127, 127));
    for (auto& v : x) v = static_cast<std::uint8_t>(init.uniform_int(0, 255));

    for (const Variant& variant : variants) {
      const MacroConfig cfg = make_config(geom, variant.noise_free);
      const CimMacro macro(cfg);
      PackedWeightsCache cache;
      const MacroMvmEngine engine(macro, variant.mode, cache);

      // Refuse to time a kernel whose results changed.
      if (variant.mode == MacroMvmEngine::Mode::kAnalog) {
        std::vector<std::int32_t> ya(static_cast<std::size_t>(m) * p);
        std::vector<std::int32_t> yb(static_cast<std::size_t>(m) * p);
        MacroRunStats sa, sb;
        MvmScratch scratch;
        MvmSession session;
        session.image_keys = &image_key;
        session.image_count = 1;
        session.stats = &sa;
        session.scratch = &scratch;
        engine.mvm_batch(w.data(), m, k, x.data(), p, ya.data(), session);
        reference::mvm_batch(engine, w.data(), m, k, x.data(), p, yb.data(),
                             &image_key, 1, /*layer=*/0, sb);
        if (!bit_identical(ya, yb, sa, sb)) {
          std::fprintf(stderr,
                       "FATAL: packed kernel diverged from the scalar "
                       "reference at rows=%d ib=%d wb=%d variant=%s\n",
                       geom.rows, geom.input_bits, geom.weight_bits,
                       variant.name);
          return 1;
        }
      }

      const Measurement pm =
          time_engine(engine, m, k, p, w, x, &image_key, min_seconds);
      const double macs = static_cast<double>(m) * k;
      const double ns_per_mac =
          pm.seconds * 1e9 / (macs * static_cast<double>(pm.columns));
      const double cols_s = static_cast<double>(pm.columns) / pm.seconds;
      std::printf(
          "{\"bench\":\"macro_mvm\",\"path\":\"packed\",\"variant\":\"%s\","
          "\"rows\":%d,\"input_bits\":%d,\"weight_bits\":%d,\"m\":%d,"
          "\"k\":%d,\"p\":%d,\"ns_per_mac\":%.4f,\"columns_per_s\":%.1f,"
          "\"pack_ms\":%.4f,\"packed_bytes\":%zu,\"host_cores\":%u,"
          "\"cpu\":\"%s\"}\n",
          variant.name, geom.rows, geom.input_bits, geom.weight_bits, m, k,
          p, ns_per_mac, cols_s, cache.total_pack_ms(), cache.packed_bytes(),
          host_cores, cpu.c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}
