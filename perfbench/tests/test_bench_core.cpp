// Self-tests of the benchmark's own rules: percentile math, the output
// gate, base64 and response parsing, seeded inputs and open-loop lag
// accounting. Run with `python3 perfbench/run.py --self-test`, or the
// perfbench_tests binary directly; exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "loadgen.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void test_percentile() {
  // numpy.percentile(..., method="linear") reference values.
  EXPECT(near(percentile({1, 2, 3, 4}, 50), 2.5));
  EXPECT(near(percentile({4, 1, 3, 2}, 95), 3.85));
  EXPECT(near(percentile({4, 1, 3, 2}, 0), 1.0));
  EXPECT(near(percentile({4, 1, 3, 2}, 100), 4.0));
  EXPECT(near(percentile({7}, 99), 7.0));
  EXPECT(near(percentile({}, 50), 0.0));
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(near(percentile(hundred, 95), 95.05));
  EXPECT(near(percentile(hundred, 99), 99.01));
  EXPECT(near(median({3, 1, 2}), 2.0));
}

std::string response_for(const std::vector<float>& logits, int rows) {
  return "{\"shape\":[" + std::to_string(rows) + "," +
         std::to_string(kClasses) + "],\"data_b64\":\"" +
         base64_encode(logits.data(), logits.size() * sizeof(float)) +
         "\",\"latency_ms\":1.250,\"images\":" + std::to_string(rows) + "}";
}

void test_gate_catches_one_flipped_logit() {
  std::vector<ImageRef> refs(3);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (int k = 0; k < kClasses; ++k) {
      refs[i].exact.push_back(0.1f * static_cast<float>(k) -
                              static_cast<float>(i));
    }
  }
  RequestBody body;
  body.images = {2, 0};
  std::vector<float> served;
  for (int img : body.images) {
    const auto& e = refs[static_cast<std::size_t>(img)].exact;
    served.insert(served.end(), e.begin(), e.end());
  }
  InferResponse parsed;
  EXPECT(passes_gate(false, body, response_for(served, 2), refs, parsed));
  EXPECT(parsed.logits == served);

  // Flip the lowest mantissa bit of one logit of the second row.
  std::vector<float> flipped = served;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped[kClasses + 3], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&flipped[kClasses + 3], &bits, sizeof(bits));
  EXPECT(!passes_gate(false, body, response_for(flipped, 2), refs, parsed));
  // Analog responses are gated statistically, not bit for bit.
  EXPECT(passes_gate(true, body, response_for(flipped, 2), refs, parsed));

  // -0.0 and +0.0 compare equal as floats but not as bits.
  std::vector<float> zero = {0.0f};
  std::vector<float> neg_zero = {-0.0f};
  EXPECT(!bits_equal(zero.data(), neg_zero.data(), 1));

  // Wrong row order, wrong shape, non-finite and truncated bodies fail.
  RequestBody swapped = body;
  swapped.images = {0, 2};
  EXPECT(!passes_gate(false, swapped, response_for(served, 2), refs, parsed));
  RequestBody one;
  one.images = {2};
  EXPECT(!passes_gate(false, one, response_for(served, 2), refs, parsed));
  std::vector<float> nan_row = served;
  nan_row[0] = NAN;
  EXPECT(!passes_gate(true, body, response_for(nan_row, 2), refs, parsed));
  const std::string good = response_for(served, 2);
  EXPECT(!passes_gate(false, body, good.substr(0, good.size() / 2), refs,
                      parsed));
}

void test_base64_and_parse() {
  const std::string text = "any carnal pleas";
  for (std::size_t n = 0; n <= text.size(); ++n) {
    const std::string enc = base64_encode(text.data(), n);
    EXPECT(enc.size() == (n + 2) / 3 * 4);
  }
  EXPECT(base64_encode("Ma", 2) == "TWE=");
  EXPECT(base64_encode("M", 1) == "TQ==");
  InferResponse r;
  EXPECT(!parse_infer_response("{\"shape\":[1,10],\"data_b64\":\"TQ==\"}", r));
  EXPECT(!parse_infer_response("{\"error\":\"bad_request\"}", r));
  EXPECT(!parse_infer_response(
      "{\"shape\":[1,1],\"data_b64\":\"AAAA!AAA\"}", r));
  EXPECT(parse_infer_response("{\"shape\":[1,1],\"data_b64\":\"AACAPw==\"}", r));
  EXPECT(r.logits.size() == 1 && r.logits[0] == 1.0f);
}

void test_lag_accounting() {
  // Sent 4 ms late, answered 6 ms after the send: the client saw 10 ms,
  // because latency runs from the scheduled send.
  SendTiming late{1.000, 1.004, 1.010};
  EXPECT(std::fabs(latency_ms(late) - 10.0) < 1e-9);
  EXPECT(std::fabs(send_lag_ms(late) - 4.0) < 1e-9);
  SendTiming on_time{2.0, 2.0, 2.003};
  EXPECT(send_lag_ms(on_time) == 0.0);
  EXPECT(std::fabs(latency_ms(on_time) - 3.0) < 1e-9);
  SendTiming early{3.0, 2.9999, 3.001};  // clock granularity
  EXPECT(send_lag_ms(early) == 0.0);

  // A stalled generator: arrivals every 1 ms, each send waits for a
  // single connection busy 3 ms per request. Lag grows by 2 ms per
  // request and every latency includes it.
  std::vector<double> lags;
  double free_at = 0.0;
  for (int i = 0; i < 5; ++i) {
    SendTiming t;
    t.scheduled_s = i * 1e-3;
    t.sent_s = std::max(t.scheduled_s, free_at);
    t.done_s = t.sent_s + 3e-3;
    free_at = t.done_s;
    lags.push_back(send_lag_ms(t));
    EXPECT(std::fabs(latency_ms(t) - (send_lag_ms(t) + 3.0)) < 1e-9);
  }
  EXPECT(std::fabs(lags[4] - 8.0) < 1e-9);
  EXPECT(std::fabs(percentile(lags, 50) - 4.0) < 1e-9);
}

void test_seeded_inputs() {
  const auto a = poisson_arrivals(1000.0, 2.0, 5);
  const auto b = poisson_arrivals(1000.0, 2.0, 5);
  const auto c = poisson_arrivals(1000.0, 2.0, 6);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() > 1800 && a.size() < 2200);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);
  EXPECT(a.back() < 2.0);

  SeedStream s(9);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) counts[s.weighted({2.0, 1.0, 0.0})]++;
  EXPECT(counts[2] == 0);
  EXPECT(counts[0] > 19000 && counts[0] < 21000);
  EXPECT(derive_seed(1, 2) != derive_seed(1, 3));
  EXPECT(derive_seed(1, 2) == derive_seed(1, 2));
}

}  // namespace

int main() {
  test_percentile();
  test_gate_catches_one_flipped_logit();
  test_base64_and_parse();
  test_lag_accounting();
  test_seeded_inputs();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
