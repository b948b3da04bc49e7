#pragma once
// Pure helpers of the serving benchmark: seeded input generation,
// percentiles, the output gate and open-loop lag accounting. Nothing here
// touches the network or the program under test, so the self-tests
// (perfbench/tests) can pin every rule exactly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64 stream. The benchmark draws its inputs from its own
/// generator, so the same --seed yields the same payloads, arrivals and
/// priority draws whatever the program's own RNG code does.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Index drawn with probability proportional to `weights`.
  std::size_t weighted(const std::vector<double>& weights);

 private:
  std::uint64_t state_;
};

/// Sub-seed for one named use of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Percentile `q` in [0, 100] by linear interpolation between closest
/// ranks (the numpy default). Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Median of a non-empty sample (percentile 50).
double median(std::vector<double> values);

/// Accumulates RMS(got - ref) / RMS(ref) over any number of logit rows.
class RelErrorAccumulator {
 public:
  void add(const float* got, const float* ref, std::size_t n);
  void merge(const RelErrorAccumulator& other);
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  double diff_sq_ = 0.0;
  double ref_sq_ = 0.0;
  std::size_t count_ = 0;
};

/// The exact-mode output gate: true when both buffers hold the same bit
/// patterns (so -0.0 != +0.0 and NaN payloads count).
bool bits_equal(const float* a, const float* b, std::size_t n);

/// RFC 4648 base64 with padding. The benchmark encodes requests and
/// decodes responses itself, so the gate does not rest on the program's
/// own base64 code.
std::string base64_encode(const void* data, std::size_t size);

/// Decoded body of a 200 response from POST /infer.
struct InferResponse {
  std::vector<int> shape;
  std::vector<float> logits;
};

/// Parses {"shape":[...],"data_b64":"..."} as written by the HTTP
/// front-end. Returns false on any malformed or inconsistent body.
bool parse_infer_response(const std::string& body, InferResponse& out);

/// Poisson arrival offsets [s] in [0, duration_s) at `rate_per_s`.
std::vector<double> poisson_arrivals(double rate_per_s, double duration_s,
                                     std::uint64_t seed);

/// Timing of one open-loop request, in seconds from the schedule start.
struct SendTiming {
  double scheduled_s = 0.0;  ///< when the schedule said to send
  double sent_s = 0.0;       ///< when the generator actually sent
  double done_s = 0.0;       ///< when the response was complete
};

/// Client-observed latency, timed from the scheduled send so a late
/// generator cannot hide queueing.
double latency_ms(const SendTiming& t);

/// How late the generator sent (never negative).
double send_lag_ms(const SendTiming& t);

}  // namespace perfbench
