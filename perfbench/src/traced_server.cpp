// `perfbench serve`: the traced twin of yoloc_serve. It wires the same
// public pieces yoloc_serve wires -- load_plan, Scheduler, HttpServer --
// but with trace_sampling = 1, and on SIGTERM it drains, then writes what
// the observer hooks saw (trace spans inside the measured window,
// MetricsSnapshot, HttpServerStats, the scheduler's modelled activity)
// as `key value` lines. No span is added inside the program.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "runtime/plan_serde.hpp"
#include "serve/http_server.hpp"
#include "serve/scheduler.hpp"
#include "traced_server.hpp"

namespace perfbench {

namespace {

using namespace yoloc;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

/// Sums and samples of the spans that started inside the window.
struct SpanTotals {
  std::vector<double> queue_wait_us;
  std::vector<double> batch_formation_us;
  std::vector<double> e2e_us;
  double execute_ns = 0.0;
  double execute_batches = 0.0;
  double execute_images = 0.0;
  double execute_requests = 0.0;
  double epilogue_ns = 0.0;
  double epilogue_batches = 0.0;
  std::map<std::string, double> layer_ns;  ///< "<phase>_ns.<engine>"
};

/// A batch belongs to the window when its execute span starts inside it;
/// every span of the batch (per-request, layer, epilogue) goes with it, so
/// a layer's time is never counted without its batch.
SpanTotals total_spans(const std::vector<TraceEvent>& events,
                       std::uint64_t from_ns, std::uint64_t to_ns) {
  const auto epoch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          trace_epoch().time_since_epoch())
          .count());
  std::set<std::uint64_t> batches;
  for (const TraceEvent& ev : events) {
    const std::uint64_t start = epoch_ns + ev.start_ns;
    if (std::string(ev.name) == kSpanExecute && start >= from_ns &&
        start < to_ns) {
      batches.insert(ev.batch_id);
    }
  }
  SpanTotals t;
  for (const TraceEvent& ev : events) {
    if (batches.count(ev.batch_id) == 0) continue;
    const std::string name = ev.name;
    const double dur = static_cast<double>(ev.dur_ns);
    if (name == kSpanQueueWait) {
      t.queue_wait_us.push_back(dur / 1e3);
    } else if (name == kSpanBatchFormation) {
      t.batch_formation_us.push_back(dur / 1e3);
    } else if (name == kSpanE2e) {
      t.e2e_us.push_back(dur / 1e3);
    } else if (name == kSpanExecute) {
      t.execute_ns += dur;
      t.execute_batches += 1;
      t.execute_images += ev.images;
      t.execute_requests += ev.requests;
    } else if (name == kSpanEpilogue) {
      t.epilogue_ns += dur;
      t.epilogue_batches += 1;
    } else if (name == kSpanIm2col || name == kSpanMvm) {
      t.layer_ns[name + "_ns." + (ev.engine != nullptr ? ev.engine : "")] +=
          dur;
    }
  }
  return t;
}

void put_stats(std::FILE* f, const char* prefix, const MacroRunStats& s) {
  std::fprintf(f, "%s.macs %llu\n", prefix,
               static_cast<unsigned long long>(s.macs));
  std::fprintf(f, "%s.macro_ops %llu\n", prefix,
               static_cast<unsigned long long>(s.macro_ops));
  std::fprintf(f, "%s.adc_conversions %llu\n", prefix,
               static_cast<unsigned long long>(s.array.adc_conversions));
  std::fprintf(f, "%s.wl_pulses %llu\n", prefix,
               static_cast<unsigned long long>(s.array.wl_pulses));
  std::fprintf(f, "%s.shift_adds %llu\n", prefix,
               static_cast<unsigned long long>(s.array.shift_adds));
  std::fprintf(f, "%s.energy_pj %.17g\n", prefix, s.energy_pj());
  std::fprintf(f, "%s.latency_ns %.17g\n", prefix, s.latency_ns);
}

void write_report(const std::string& path, const Scheduler& scheduler,
                  const HttpServer& server, std::uint64_t from_ns,
                  std::uint64_t to_ns) {
  const SpanTotals t =
      total_spans(scheduler.trace().drain_events(), from_ns, to_ns);
  const MetricsSnapshot snap = scheduler.metrics_snapshot();
  const HttpServerStats http = server.stats();
  double expired = 0.0;
  double rejected = 0.0;
  for (const ClassSnapshot& c : snap.classes) {
    expired += static_cast<double>(c.expired_requests);
    rejected += static_cast<double>(c.rejected_requests);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "window_s %.17g\n",
               static_cast<double>(to_ns - from_ns) / 1e9);
  std::fprintf(f, "workers %d\n", scheduler.worker_count());
  std::fprintf(f, "dropped_events %llu\n",
               static_cast<unsigned long long>(
                   scheduler.trace().dropped_events()));
  std::fprintf(f, "queue_wait_us_p50 %.17g\n",
               percentile(t.queue_wait_us, 50));
  std::fprintf(f, "queue_wait_us_p95 %.17g\n",
               percentile(t.queue_wait_us, 95));
  std::fprintf(f, "batch_formation_us_p50 %.17g\n",
               percentile(t.batch_formation_us, 50));
  std::fprintf(f, "e2e_us_p50 %.17g\n", percentile(t.e2e_us, 50));
  std::fprintf(f, "execute_ns %.17g\n", t.execute_ns);
  std::fprintf(f, "execute_batches %.17g\n", t.execute_batches);
  std::fprintf(f, "execute_images %.17g\n", t.execute_images);
  std::fprintf(f, "execute_requests %.17g\n", t.execute_requests);
  std::fprintf(f, "epilogue_ns %.17g\n", t.epilogue_ns);
  std::fprintf(f, "epilogue_batches %.17g\n", t.epilogue_batches);
  for (const auto& [key, ns] : t.layer_ns) {
    std::fprintf(f, "%s %.17g\n", key.c_str(), ns);
  }
  std::fprintf(f, "served_images %llu\n",
               static_cast<unsigned long long>(snap.served_images));
  std::fprintf(f, "expired %.17g\n", expired);
  std::fprintf(f, "rejected %.17g\n", rejected);
  put_stats(f, "rom", scheduler.rom_stats());
  put_stats(f, "sram", scheduler.sram_stats());
  std::fprintf(f, "http.responses_4xx %llu\n",
               static_cast<unsigned long long>(http.responses_4xx));
  std::fprintf(f, "http.responses_5xx %llu\n",
               static_cast<unsigned long long>(http.responses_5xx));
  std::fprintf(f, "http.wake_overflows %llu\n",
               static_cast<unsigned long long>(http.wake_overflows));
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int serve_traced(const std::vector<std::string>& args) {
  std::string plan_path, port_file, window_file, report_path;
  SchedulerOptions sched;
  sched.trace_sampling = 1.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--weighted") {
      sched.lane_weights = LaneWeights{{8.0, 3.0, 1.0}};
      continue;
    }
    if (i + 1 >= args.size()) return 2;
    const std::string& v = args[++i];
    if (a == "--plan") {
      plan_path = v;
    } else if (a == "--port-file") {
      port_file = v;
    } else if (a == "--workers") {
      sched.workers = std::stoi(v);
    } else if (a == "--trace-events") {
      sched.trace_buffer_events = std::stoull(v);
    } else if (a == "--window-file") {
      window_file = v;
    } else if (a == "--report") {
      report_path = v;
    } else {
      return 2;
    }
  }
  if (plan_path.empty() || port_file.empty() || window_file.empty() ||
      report_path.empty()) {
    std::fprintf(stderr, "perfbench serve: missing argument\n");
    return 2;
  }

  try {
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    auto plan = load_plan(plan_path);
    Scheduler scheduler(*plan, sched);
    HttpServer server(scheduler, *plan, HttpServerOptions{}, plan_path);
    {
      const std::string tmp = port_file + ".tmp";
      std::ofstream out(tmp);
      out << server.port() << "\n";
      out.close();
      if (!out || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        throw std::runtime_error("cannot write " + port_file);
      }
    }
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    server.drain();
    scheduler.shutdown();

    std::uint64_t from_ns = 0;
    std::uint64_t to_ns = 0;
    std::ifstream window(window_file);
    if (!(window >> from_ns >> to_ns) || to_ns <= from_ns) {
      throw std::runtime_error("no measured window in " + window_file);
    }
    write_report(report_path, scheduler, server, from_ns, to_ns);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench serve: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench
