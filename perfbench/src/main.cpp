// perfbench: the serving benchmark of this repository.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --serve-bin PATH/yoloc_serve --work-dir DIR
//   perfbench serve ...      (the traced server; see traced_server.cpp)
//
// `run` builds the twin ReBranch plans, computes the in-process
// references, serves the workload's plan through the real yoloc_serve,
// drives it and gates every output. The last stdout line is one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/run.py builds this program and calls it;
// NOTES.md defines every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "loadgen.hpp"
#include "model.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/plan_serde.hpp"
#include "server_process.hpp"
#include "traced_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

/// Server starts per untraced run; setup_s is their median.
constexpr int kSetupStarts = 9;
/// The traced run measures at most this long per pass: two passes
/// (untraced, traced) and a trace ring that must not overflow.
constexpr double kMaxTraceWindowS = 6.0;
/// Analog outputs are gated statistically: RMS error against the exact
/// twin above this share of the exact logits' RMS means the analog path
/// is broken, not noisy.
constexpr double kAnalogRelErrorLimit = 0.5;
constexpr double kReadyTimeoutS = 120.0;
constexpr std::uint64_t kPoolStream = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Everything one run prepares before any server starts.
struct Prepared {
  const WorkloadSpec* spec = nullptr;
  std::string served_plan_path;
  std::unique_ptr<DeploymentPlan> served;
  std::unique_ptr<DeploymentPlan> exact_twin;  ///< null when served is exact
  double load_plan_ms = 0.0;
  std::vector<std::vector<float>> pool;
  std::vector<ImageRef> refs;
  BodyPool bodies;
};

Prepared prepare(const WorkloadSpec& spec, const Args& args,
                 std::vector<std::string>& problems) {
  Prepared p;
  p.spec = &spec;
  const TwinPlanPaths plans = write_twin_plans(args.work_dir + "/plans");
  p.served_plan_path = spec.analog ? plans.analog : plans.exact;
  const auto t0 = Clock::now();
  p.served = load_plan(p.served_plan_path);
  p.load_plan_ms = ms_since(t0);
  if (spec.analog) p.exact_twin = load_plan(plans.exact);
  const DeploymentPlan& exact = spec.analog ? *p.exact_twin : *p.served;

  LayerPtr float_model = build_rebranch_model();
  p.pool = make_image_pool(derive_seed(args.seed, kPoolStream),
                           spec.pool_images);
  p.refs = compute_references(p.pool, exact, *p.served, *float_model);
  if (!spec.analog) {
    const std::string why = check_batch_invariance(p.pool, p.refs, *p.served,
                                                   /*batch=*/8);
    if (!why.empty()) problems.push_back(why);
  }
  p.bodies = make_bodies(spec, p.pool, args.seed);
  return p;
}

std::vector<std::string> server_args(const Prepared& p, const Args& args,
                                     const std::string& port_file) {
  std::vector<std::string> argv = {args.serve_bin,
                                   "--plan",
                                   p.served_plan_path,
                                   "--port",
                                   "0",
                                   "--port-file",
                                   port_file,
                                   "--workers",
                                   std::to_string(p.spec->workers)};
  if (p.spec->weighted) argv.emplace_back("--weighted");
  return argv;
}

std::unique_ptr<ServerProcess> start_server(const std::vector<std::string>& argv,
                                            const Args& args,
                                            const std::string& port_file,
                                            double* setup_s) {
  std::filesystem::remove(port_file);
  auto server =
      std::make_unique<ServerProcess>(argv, args.work_dir + "/server.log");
  const double ready = server->wait_ready(port_file, kReadyTimeoutS);
  if (setup_s != nullptr) *setup_s = ready;
  return server;
}

void stop_server(ServerProcess& server, std::vector<std::string>& problems) {
  const int code = server.stop();
  if (code != 0) {
    problems.push_back("server exited with code " + std::to_string(code));
  }
}

DriveOptions drive_options(const Args& args, double window_s, int port) {
  DriveOptions o;
  o.port = port;
  o.connections = std::min<int>(
      kConnections,
      std::max(1u, std::thread::hardware_concurrency()));
  o.window_s = window_s;
  o.seed = args.seed;
  return o;
}

std::uint64_t count_failed(const DriveResult& d) {
  std::uint64_t failed = 0;
  for (const RequestRecord& r : d.window) failed += r.ok() ? 0 : 1;
  return failed;
}

double throughput_img_s(const DriveResult& d) {
  double images = 0.0;
  for (const RequestRecord& r : d.window) {
    if (r.ok()) images += r.images;
  }
  return d.window_s > 0.0 ? images / d.window_s : 0.0;
}

/// Latency percentiles as medians over equal slices of the window
/// (requests go to the slice of their scheduled send), so a short
/// disturbance on the host moves one slice, not the result.
struct SliceLatency {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

SliceLatency slice_latency(const DriveResult& d, double slice_s) {
  const int n = std::max(1, static_cast<int>(d.window_s / slice_s));
  const double len = d.window_s / n;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(n));
  for (const RequestRecord& r : d.window) {
    if (!r.ok()) continue;
    const auto k = static_cast<std::size_t>(
        std::clamp(static_cast<int>(r.timing.scheduled_s / len), 0, n - 1));
    lat[k].push_back(latency_ms(r.timing));
  }
  std::vector<double> p50, p95;
  for (const std::vector<double>& slice : lat) {
    p50.push_back(percentile(slice, 50));
    p95.push_back(percentile(slice, 95));
  }
  return {median(p50), median(p95)};
}

/// HTTP round trips (send to response) of the correct 200s. In the open
/// loop this excludes the send lag that latency_ms() charges.
std::vector<double> round_trips_ms(const DriveResult& d) {
  std::vector<double> out;
  for (const RequestRecord& r : d.window) {
    if (r.ok()) out.push_back((r.timing.done_s - r.timing.sent_s) * 1e3);
  }
  return out;
}

/// Interactive requests sent that returned a correct 200 within the
/// workload's limit; failures count as misses.
double slo_attainment(const WorkloadSpec& spec, const DriveResult& d) {
  double sent = 0.0;
  double met = 0.0;
  for (const RequestRecord& r : d.window) {
    if (r.priority != 0) continue;
    sent += 1.0;
    if (r.ok() && latency_ms(r.timing) <= spec.slo_ms) met += 1.0;
  }
  return sent > 0.0 ? met / sent : 0.0;
}

/// Modelled activity of everything the server answered with 200, from
/// the per-image references.
void served_activity(const Prepared& p, const DriveResult& d,
                     MacroRunStats& rom, MacroRunStats& sram,
                     double& images) {
  images = 0.0;
  for (std::size_t i = 0; i < p.refs.size(); ++i) {
    for (std::uint64_t k = 0; k < d.served_per_image[i]; ++k) {
      rom.accumulate(p.refs[i].rom);
      sram.accumulate(p.refs[i].sram);
    }
    images += static_cast<double>(d.served_per_image[i]);
  }
}

/// Checks shared by both kinds of run; appends what failed.
void gate_drive(const WorkloadSpec& spec, const DriveResult& d,
                const char* pass, std::vector<std::string>& problems) {
  if (d.wrong_outputs != 0) {
    problems.push_back(std::string(pass) + ": " +
                       std::to_string(d.wrong_outputs) +
                       " responses failed the output gate");
  }
  if (d.window.empty()) {
    problems.push_back(std::string(pass) + ": no request in the window");
  }
  if (spec.analog && !(d.vs_exact.value() < kAnalogRelErrorLimit)) {
    problems.push_back(std::string(pass) +
                       ": analog logits too far from the exact twin");
  }
}

// ------------------------------------------------------------ untraced

void run_untraced(const Prepared& p, const Args& args,
                  std::vector<std::string>& problems, std::vector<Metric>& m,
                  std::uint64_t& attempted, std::uint64_t& failed) {
  const std::string port_file = args.work_dir + "/port";
  const std::vector<std::string> argv = server_args(p, args, port_file);
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < kSetupStarts; ++k) {
    double setup = 0.0;
    server = start_server(argv, args, port_file, &setup);
    setups.push_back(setup);
    if (k + 1 < kSetupStarts) stop_server(*server, problems);
  }
  const DriveResult d =
      drive(*p.spec, p.bodies, p.refs,
            drive_options(args, args.seconds, server->port()));
  const double rss_mb = server->peak_rss_mb();
  stop_server(*server, problems);
  gate_drive(*p.spec, d, "untraced", problems);

  MacroRunStats rom, sram;
  double images = 0.0;
  served_activity(p, d, rom, sram, images);
  const SliceLatency latency = slice_latency(d, p.spec->slice_s);
  attempted = d.window.size();
  failed = count_failed(d);
  m = {
      {"setup_s", median(setups), "s"},
      {"throughput_img_s", throughput_img_s(d), "img/s"},
      {"latency_p50_ms", latency.p50_ms, "ms"},
      {"latency_p95_ms", latency.p95_ms, "ms"},
      {"slo_attainment", slo_attainment(*p.spec, d), "ratio"},
      {"success_rate",
       attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                     : 0.0,
       "ratio"},
      {"logit_rel_error", d.vs_float.value(), "ratio"},
      {"chip_energy_uj_per_image",
       images > 0 ? (rom.energy_pj() + sram.energy_pj()) / images / 1e6 : 0.0,
       "uJ"},
      {"server_peak_rss_mb", rss_mb, "MB"},
  };
}

// -------------------------------------------------------------- traced

/// A LayerTraceSink that only counts: enough to prove the hook fires and
/// changes nothing.
class CountingSink final : public LayerTraceSink {
 public:
  void layer_span(const char*, const char*, EngineKind, std::uint64_t,
                  std::uint64_t) override {
    ++spans;
  }
  std::uint64_t spans = 0;
};

/// Observer-only check in-process: the same context seed with and
/// without a layer-trace sink gives bit-identical logits and activity.
std::string check_layer_trace_is_observer(const Prepared& p) {
  std::vector<int> idx;
  for (int i = 0; i < std::min<int>(4, static_cast<int>(p.pool.size())); ++i) {
    idx.push_back(i);
  }
  const Tensor x = stack_images(p.pool, idx);
  ExecutionContext plain(*p.served, 11);
  ExecutionContext traced(*p.served, 11);
  CountingSink sink;
  traced.set_layer_trace(&sink);
  const Tensor a = plain.infer(x);
  const Tensor b = traced.infer(x);
  if (sink.spans == 0) return "layer trace sink saw no span";
  if (a.size() != b.size() || !bits_equal(a.data(), b.data(), a.size())) {
    return "layer tracing changed the logits";
  }
  if (!same_activity(plain.rom_stats(), traced.rom_stats()) ||
      !same_activity(plain.sram_stats(), traced.sram_stats())) {
    return "layer tracing changed the modelled activity";
  }
  return {};
}

std::map<std::string, double> read_report(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  if (out.empty()) throw std::runtime_error("empty traced-server report");
  return out;
}

/// One engine's activity as the traced server reported it. The report
/// carries total energy only, so it is held in the ADC energy field.
MacroRunStats report_stats(const std::map<std::string, double>& r,
                           const std::string& engine) {
  const auto count = [&](const std::string& key) {
    const auto it = r.find(engine + "." + key);
    return it == r.end() ? 0.0 : it->second;
  };
  MacroRunStats s;
  s.macs = static_cast<std::uint64_t>(count("macs"));
  s.macro_ops = static_cast<std::uint64_t>(count("macro_ops"));
  s.array.adc_conversions =
      static_cast<std::uint64_t>(count("adc_conversions"));
  s.array.wl_pulses = static_cast<std::uint64_t>(count("wl_pulses"));
  s.array.shift_adds = static_cast<std::uint64_t>(count("shift_adds"));
  s.array.adc_energy_pj = count("energy_pj");
  s.latency_ns = count("latency_ns");
  return s;
}

void run_traced(const Prepared& p, const Args& args,
                std::vector<std::string>& problems, std::vector<Metric>& m,
                std::uint64_t& attempted, std::uint64_t& failed) {
  const WorkloadSpec& spec = *p.spec;
  const double window_s = std::min(args.seconds, kMaxTraceWindowS);
  const std::string port_file = args.work_dir + "/port";

  // Pass 1: the real yoloc_serve, untraced -- the base of the overhead.
  DriveResult plain;
  {
    auto server =
        start_server(server_args(p, args, port_file), args, port_file, nullptr);
    plain = drive(spec, p.bodies, p.refs,
                  drive_options(args, window_s, server->port()));
    stop_server(*server, problems);
  }
  gate_drive(spec, plain, "untraced", problems);

  // Pass 2: the traced server, same requests.
  const std::string window_file = args.work_dir + "/window";
  const std::string report_file = args.work_dir + "/report";
  std::filesystem::remove(report_file);
  std::vector<std::string> argv = {
      std::filesystem::read_symlink("/proc/self/exe").string(),
      "serve",
      "--plan",
      p.served_plan_path,
      "--port-file",
      port_file,
      "--workers",
      std::to_string(spec.workers),
      "--trace-events",
      std::to_string(spec.trace_events_per_worker),
      "--window-file",
      window_file,
      "--report",
      report_file};
  if (spec.weighted) argv.emplace_back("--weighted");
  DriveResult traced;
  {
    auto server = start_server(argv, args, port_file, nullptr);
    traced = drive(spec, p.bodies, p.refs,
                   drive_options(args, window_s, server->port()));
    std::ofstream(window_file)
        << traced.window_start_ns << " "
        << traced.window_start_ns +
               static_cast<std::uint64_t>(traced.window_s * 1e9)
        << "\n";
    stop_server(*server, problems);
  }
  gate_drive(spec, traced, "traced", problems);
  const std::string observer = check_layer_trace_is_observer(p);
  if (!observer.empty()) problems.push_back(observer);
  const std::map<std::string, double> r = read_report(report_file);
  const auto get = [&r](const std::string& key) {
    const auto it = r.find(key);
    return it == r.end() ? 0.0 : it->second;
  };

  // Served modelled activity: the server's own counters must equal the
  // per-image references summed over what it answered (exact mode).
  MacroRunStats rom, sram;
  double images_served = 0.0;
  served_activity(p, traced, rom, sram, images_served);
  if (get("served_images") != images_served) {
    problems.push_back("traced server served a different image count than "
                       "the client received");
  }
  const MacroRunStats server_rom = report_stats(r, "rom");
  const MacroRunStats server_sram = report_stats(r, "sram");
  if (!spec.analog && (!same_activity(server_rom, rom) ||
                       !same_activity(server_sram, sram))) {
    problems.push_back("served modelled activity differs from the "
                       "in-process reference");
  }
  if (get("dropped_events") != 0.0) {
    problems.push_back("trace ring dropped events");
  }

  const double served = std::max(1.0, get("served_images"));
  const double images = std::max(1.0, get("execute_images"));
  const double im2col_rom = get("im2col_ns.rom");
  const double im2col_sram = get("im2col_ns.sram");
  const double mvm_rom = get("mvm_ns.rom");
  const double mvm_sram = get("mvm_ns.sram");
  const double macs_rom = static_cast<double>(server_rom.macs) / served;
  const double macs_sram = static_cast<double>(server_sram.macs) / served;
  const double untraced_tput = throughput_img_s(plain);
  std::vector<double> lags;
  for (const RequestRecord& rec : traced.window) {
    lags.push_back(send_lag_ms(rec.timing));
  }
  attempted = plain.window.size() + traced.window.size();
  failed = count_failed(plain) + count_failed(traced);

  m = {
      {"gen.sent", static_cast<double>(traced.window.size()), "count"},
      {"gen.failed", static_cast<double>(count_failed(traced)), "count"},
      {"gen.send_lag_p99_ms", percentile(lags, 99), "ms"},
      {"http.self_us_p50",
       percentile(round_trips_ms(traced), 50) * 1e3 - get("e2e_us_p50"),
       "us"},
      {"http.responses_4xx", get("http.responses_4xx"), "count"},
      {"http.responses_5xx", get("http.responses_5xx"), "count"},
      {"http.wake_overflows", get("http.wake_overflows"), "count"},
      {"scheduler.queue_wait_us_p50", get("queue_wait_us_p50"), "us"},
      {"scheduler.queue_wait_us_p95", get("queue_wait_us_p95"), "us"},
      {"scheduler.batch_formation_us_p50", get("batch_formation_us_p50"),
       "us"},
      {"scheduler.avg_microbatch",
       get("execute_requests") / std::max(1.0, get("execute_batches")),
       "requests"},
      {"scheduler.batches", get("execute_batches"), "count"},
      {"scheduler.worker_busy_ratio",
       get("execute_ns") /
           (std::max(1.0, get("workers")) * get("window_s") * 1e9),
       "ratio"},
      {"scheduler.expired", get("expired"), "count"},
      {"scheduler.rejected", get("rejected"), "count"},
      {"runtime.load_plan_ms", p.load_plan_ms, "ms"},
      {"runtime.pack_ms", p.served->pack_ms(), "ms"},
      {"runtime.packed_weight_bytes",
       static_cast<double>(p.served->packed_weight_bytes()), "bytes"},
      {"runtime.execute_us_per_image", get("execute_ns") / images / 1e3, "us"},
      {"runtime.epilogue_us_per_batch",
       get("epilogue_ns") / std::max(1.0, get("epilogue_batches")) / 1e3,
       "us"},
      {"quantize.im2col_us_per_image.rom", im2col_rom / images / 1e3, "us"},
      {"quantize.im2col_us_per_image.sram", im2col_sram / images / 1e3, "us"},
      {"quantize.other_us_per_image",
       (get("execute_ns") - im2col_rom - im2col_sram - mvm_rom - mvm_sram) /
           images / 1e3,
       "us"},
      {"macro.mvm_us_per_image.rom", mvm_rom / images / 1e3, "us"},
      {"macro.mvm_us_per_image.sram", mvm_sram / images / 1e3, "us"},
      {"macro.host_ns_per_mac.rom",
       macs_rom > 0 ? mvm_rom / images / macs_rom : 0.0, "ns"},
      {"macro.host_ns_per_mac.sram",
       macs_sram > 0 ? mvm_sram / images / macs_sram : 0.0, "ns"},
      {"macro.macs_per_image.rom", macs_rom, "count"},
      {"macro.macs_per_image.sram", macs_sram, "count"},
      {"macro.tiles_per_image.rom",
       static_cast<double>(server_rom.macro_ops) / served, "count"},
      {"macro.tiles_per_image.sram",
       static_cast<double>(server_sram.macro_ops) / served, "count"},
      {"circuit.adc_conversions_per_image.rom",
       static_cast<double>(server_rom.array.adc_conversions) / served,
       "count"},
      {"circuit.adc_conversions_per_image.sram",
       static_cast<double>(server_sram.array.adc_conversions) / served,
       "count"},
      {"circuit.energy_pj_per_image.rom", server_rom.energy_pj() / served,
       "pJ"},
      {"circuit.energy_pj_per_image.sram", server_sram.energy_pj() / served,
       "pJ"},
      {"circuit.chip_latency_us_per_image",
       (server_rom.latency_ns + server_sram.latency_ns) / served / 1e3, "us"},
      {"trace.overhead_pct",
       untraced_tput > 0
           ? (untraced_tput - throughput_img_s(traced)) / untraced_tput * 100
           : 0.0,
       "%"},
      {"trace.dropped_events", get("dropped_events"), "count"},
      {"gate.error_rate",
       traced.window.empty()
           ? 0.0
           : static_cast<double>(count_failed(traced)) /
                 static_cast<double>(traced.window.size()),
       "ratio"},
      {"gate.analog_logit_rel_error", traced.vs_exact.value(), "ratio"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --work-dir DIR\n"
               "       perfbench serve --plan PATH --port-file PATH "
               "--workers N [--weighted] --trace-events N --window-file PATH "
               "--report PATH\n");
  return 2;
}

int run(const std::vector<std::string>& argv) {
  Args args;
  for (std::size_t i = 0; i + 1 < argv.size(); i += 2) {
    const std::string& k = argv[i];
    const std::string& v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::stoull(v);
    } else if (k == "--seconds") {
      args.seconds = std::stod(v);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--serve-bin") {
      args.serve_bin = v;
    } else if (k == "--work-dir") {
      args.work_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr || args.serve_bin.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return usage();
  }
  std::filesystem::create_directories(args.work_dir);

  std::vector<std::string> problems;
  const Prepared p = prepare(*spec, args, problems);
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (args.trace) {
    run_traced(p, args, problems, metrics, attempted, failed);
  } else {
    run_untraced(p, args, problems, metrics, attempted, failed);
  }
  for (const std::string& why : problems) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  const bool correct = problems.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::usage();
  const std::string mode = argv[1];
  const std::vector<std::string> rest(argv + 2, argv + argc);
  try {
    if (mode == "run") return perfbench::run(rest);
    if (mode == "serve") return perfbench::serve_traced(rest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return perfbench::usage();
}
