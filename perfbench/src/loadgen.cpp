#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "serve/http_client.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBodiesPerClass = 32;
constexpr const char* kPriorityNames[3] = {"interactive", "batch",
                                           "best_effort"};
// Seed streams derived from the workload seed, one per use.
constexpr std::uint64_t kBodyStream = 2;
constexpr std::uint64_t kArrivalStream = 3;
constexpr std::uint64_t kArrivalPickStream = 4;
constexpr std::uint64_t kClientStreamBase = 100;
// Gap between the closed warm-up and the first open-loop arrival, so
// warm-up responses do not show up as send lag.
constexpr auto kOpenLoopLead = std::chrono::milliseconds(50);

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::vector<double> class_weights(const WorkloadSpec& spec) {
  return {spec.mix[0].share, spec.mix[1].share, spec.mix[2].share};
}

/// What one client thread collected.
struct ClientOutcome {
  std::vector<RequestRecord> window;
  std::vector<std::uint64_t> served;
  std::uint64_t wrong = 0;
  RelErrorAccumulator vs_exact;
  RelErrorAccumulator vs_float;
};

}  // namespace

bool passes_gate(bool analog, const RequestBody& body,
                 const std::string& response,
                 const std::vector<ImageRef>& refs, InferResponse& parsed) {
  if (!parse_infer_response(response, parsed)) return false;
  const int n = static_cast<int>(body.images.size());
  if (parsed.shape != std::vector<int>{n, kClasses}) return false;
  for (int j = 0; j < n; ++j) {
    const float* got = parsed.logits.data() + static_cast<std::size_t>(j) * kClasses;
    const ImageRef& ref = refs[static_cast<std::size_t>(body.images[static_cast<std::size_t>(j)])];
    if (!analog && !bits_equal(got, ref.exact.data(), kClasses)) return false;
    for (int k = 0; k < kClasses; ++k) {
      if (!std::isfinite(got[k])) return false;
    }
  }
  return true;
}

BodyPool make_bodies(const WorkloadSpec& spec,
                     const std::vector<std::vector<float>>& pool,
                     std::uint64_t seed) {
  SeedStream rng(derive_seed(seed, kBodyStream));
  BodyPool bodies;
  for (int p = 0; p < 3; ++p) {
    const ClassMix& mix = spec.mix[static_cast<std::size_t>(p)];
    if (mix.share <= 0.0) continue;
    for (int b = 0; b < kBodiesPerClass; ++b) {
      RequestBody body;
      body.priority = p;
      std::vector<float> data;
      for (int i = 0; i < mix.images; ++i) {
        const int img = static_cast<int>(rng.below(pool.size()));
        body.images.push_back(img);
        const auto& image = pool[static_cast<std::size_t>(img)];
        data.insert(data.end(), image.begin(), image.end());
      }
      body.json = "{\"shape\":[" + std::to_string(mix.images) + "," +
                  std::to_string(kChannels) + "," +
                  std::to_string(kImageSize) + "," +
                  std::to_string(kImageSize) + "],\"priority\":\"" +
                  kPriorityNames[p] + "\"";
      if (mix.deadline_ms > 0.0) {
        body.json += ",\"deadline_ms\":" + std::to_string(mix.deadline_ms);
      }
      body.json += ",\"data_b64\":\"" +
                   base64_encode(data.data(), data.size() * sizeof(float)) +
                   "\"}";
      bodies[static_cast<std::size_t>(p)].push_back(std::move(body));
    }
  }
  return bodies;
}

DriveResult drive(const WorkloadSpec& spec, const BodyPool& bodies,
                  const std::vector<ImageRef>& refs,
                  const DriveOptions& options) {
  const std::vector<double> weights = class_weights(spec);

  // Open loop: the whole arrival schedule (time, class, body) is fixed by
  // the seed before anything is sent.
  struct Arrival {
    double t = 0.0;
    int priority = 0;
    std::size_t body = 0;
  };
  std::vector<Arrival> schedule;
  if (spec.open_loop) {
    double share = 0.0;
    double images = 0.0;
    for (const ClassMix& m : spec.mix) {
      share += m.share;
      images += m.share * m.images;
    }
    const double request_rate = spec.open_rate_img_s / (images / share);
    SeedStream pick(derive_seed(options.seed, kArrivalPickStream));
    for (double t : poisson_arrivals(request_rate, options.window_s,
                                     derive_seed(options.seed,
                                                 kArrivalStream))) {
      Arrival a;
      a.t = t;
      a.priority = static_cast<int>(pick.weighted(weights));
      a.body = pick.below(bodies[static_cast<std::size_t>(a.priority)].size());
      schedule.push_back(a);
    }
  }

  const auto start = Clock::now();
  const auto warm_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.warmup_s));
  const auto window_start = spec.open_loop ? warm_end + kOpenLoopLead
                                           : warm_end;
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.window_s));
  std::atomic<std::size_t> next_arrival{0};

  const int clients = std::max(1, options.connections);
  std::vector<ClientOutcome> outcomes(static_cast<std::size_t>(clients));

  const auto client_loop = [&](int c) {
    ClientOutcome& out = outcomes[static_cast<std::size_t>(c)];
    out.served.assign(refs.size(), 0);
    yoloc::HttpClient client("127.0.0.1", options.port,
                             std::chrono::milliseconds(30000));
    SeedStream rng(derive_seed(options.seed,
                               kClientStreamBase + static_cast<std::uint64_t>(c)));

    // `due` is the scheduled send of an open-loop arrival; a closed-loop
    // request is due when it is sent.
    const auto send = [&](const RequestBody& body,
                          std::optional<Clock::time_point> due,
                          bool in_window) {
      const auto sent = Clock::now();
      int status = 0;
      std::string text;
      try {
        yoloc::HttpResponse resp = client.post("/infer", body.json);
        status = resp.status;
        text = std::move(resp.body);
      } catch (const std::exception&) {
        client.close();
      }
      const auto done = Clock::now();
      bool wrong = false;
      if (status == 200) {
        for (int img : body.images) out.served[static_cast<std::size_t>(img)]++;
        InferResponse parsed;
        wrong = !passes_gate(spec.analog, body, text, refs, parsed);
        if (!wrong && in_window) {
          for (std::size_t j = 0; j < body.images.size(); ++j) {
            const float* got = parsed.logits.data() + j * kClasses;
            const ImageRef& ref = refs[static_cast<std::size_t>(body.images[j])];
            out.vs_exact.add(got, ref.exact.data(), kClasses);
            out.vs_float.add(got, ref.flt.data(), kClasses);
          }
        }
      }
      if (wrong) out.wrong++;
      if (!in_window) return;
      RequestRecord r;
      r.priority = body.priority;
      r.images = static_cast<int>(body.images.size());
      r.status = status;
      r.wrong_output = wrong;
      r.timing.scheduled_s = seconds_between(window_start, due.value_or(sent));
      r.timing.sent_s = seconds_between(window_start, sent);
      r.timing.done_s = seconds_between(window_start, done);
      out.window.push_back(r);
    };

    // Closed loop: the warm-up of every workload, and the measured window
    // of the closed-loop ones.
    const auto closed_until = spec.open_loop ? warm_end : window_end;
    while (Clock::now() < closed_until) {
      const auto p = static_cast<std::size_t>(rng.weighted(weights));
      const RequestBody& body = bodies[p][rng.below(bodies[p].size())];
      send(body, std::nullopt, Clock::now() >= window_start);
      if (spec.think_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            -std::log(1.0 - rng.uniform()) * spec.think_ms));
      }
    }
    // Open loop: claim arrivals in schedule order; a late claim shows as
    // send lag and is charged to latency.
    while (spec.open_loop) {
      const std::size_t i = next_arrival.fetch_add(1);
      if (i >= schedule.size()) break;
      const auto due =
          window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(schedule[i].t));
      std::this_thread::sleep_until(due);
      send(bodies[static_cast<std::size_t>(schedule[i].priority)][schedule[i].body],
           due, true);
    }
  };

  // The calling thread is client 0, so the drive uses exactly `clients`
  // threads.
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();

  DriveResult result;
  result.served_per_image.assign(refs.size(), 0);
  double last_done = 0.0;
  for (ClientOutcome& out : outcomes) {
    for (const RequestRecord& r : out.window) {
      last_done = std::max(last_done, r.timing.done_s);
      result.window.push_back(r);
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      result.served_per_image[i] += out.served[i];
    }
    result.wrong_outputs += out.wrong;
    result.vs_exact.merge(out.vs_exact);
    result.vs_float.merge(out.vs_float);
  }
  result.window_s = std::max(last_done, spec.open_loop ? options.window_s : 0.0);
  result.window_start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          window_start.time_since_epoch())
          .count());
  return result;
}

}  // namespace perfbench
