#include "bench_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SeedStream::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::size_t SeedStream::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    if (pick < weights[i]) return i;
    pick -= weights[i];
  }
  // Rounding left `pick` just past the last bucket: take the last
  // non-empty one.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return 0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SeedStream s(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return s.next();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

void RelErrorAccumulator::add(const float* got, const float* ref,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(got[i]) - ref[i];
    diff_sq_ += d * d;
    ref_sq_ += static_cast<double>(ref[i]) * ref[i];
  }
  count_ += n;
}

void RelErrorAccumulator::merge(const RelErrorAccumulator& other) {
  diff_sq_ += other.diff_sq_;
  ref_sq_ += other.ref_sq_;
  count_ += other.count_;
}

double RelErrorAccumulator::value() const {
  if (ref_sq_ <= 0.0) return diff_sq_ > 0.0 ? INFINITY : 0.0;
  return std::sqrt(diff_sq_ / ref_sq_);
}

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

/// Strict RFC 4648 decode (padding required, no whitespace).
bool b64_decode(const char* text, std::size_t size,
                std::vector<unsigned char>& out) {
  if (size % 4 != 0) return false;
  out.clear();
  out.reserve(size / 4 * 3);
  for (std::size_t i = 0; i < size; i += 4) {
    int v[4];
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + static_cast<std::size_t>(j)];
      if (c == '=' && i + 4 == size && j >= 2) {
        v[j] = 0;
        ++pad;
        continue;
      }
      if (pad > 0) return false;
      v[j] = b64_value(c);
      if (v[j] < 0) return false;
    }
    const unsigned triple = (static_cast<unsigned>(v[0]) << 18) |
                            (static_cast<unsigned>(v[1]) << 12) |
                            (static_cast<unsigned>(v[2]) << 6) |
                            static_cast<unsigned>(v[3]);
    out.push_back(static_cast<unsigned char>(triple >> 16));
    if (pad < 2) out.push_back(static_cast<unsigned char>(triple >> 8));
    if (pad < 1) out.push_back(static_cast<unsigned char>(triple));
  }
  return true;
}

}  // namespace

std::string base64_encode(const void* data, std::size_t size) {
  const auto* in = static_cast<const unsigned char*>(data);
  std::string out;
  out.reserve((size + 2) / 3 * 4);
  for (std::size_t i = 0; i < size; i += 3) {
    const std::size_t n = std::min<std::size_t>(3, size - i);
    unsigned triple = static_cast<unsigned>(in[i]) << 16;
    if (n > 1) triple |= static_cast<unsigned>(in[i + 1]) << 8;
    if (n > 2) triple |= in[i + 2];
    out.push_back(kB64Alphabet[(triple >> 18) & 63]);
    out.push_back(kB64Alphabet[(triple >> 12) & 63]);
    out.push_back(n > 1 ? kB64Alphabet[(triple >> 6) & 63] : '=');
    out.push_back(n > 2 ? kB64Alphabet[triple & 63] : '=');
  }
  return out;
}

bool parse_infer_response(const std::string& body, InferResponse& out) {
  out.shape.clear();
  out.logits.clear();
  static const std::string kShape = "\"shape\":[";
  static const std::string kData = "\"data_b64\":\"";
  const std::size_t s = body.find(kShape);
  if (s == std::string::npos) return false;
  std::size_t pos = s + kShape.size();
  std::size_t elements = 1;
  while (pos < body.size() && body[pos] != ']') {
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    std::size_t used = 0;
    int dim = 0;
    try {
      dim = std::stoi(body.substr(pos, 12), &used);
    } catch (...) {
      return false;
    }
    if (used == 0 || dim <= 0) return false;
    out.shape.push_back(dim);
    elements *= static_cast<std::size_t>(dim);
    pos += used;
  }
  if (pos >= body.size() || out.shape.empty()) return false;
  const std::size_t d = body.find(kData, pos);
  if (d == std::string::npos) return false;
  const std::size_t begin = d + kData.size();
  const std::size_t end = body.find('"', begin);
  if (end == std::string::npos) return false;
  std::vector<unsigned char> bytes;
  if (!b64_decode(body.data() + begin, end - begin, bytes)) return false;
  if (bytes.size() != elements * sizeof(float)) return false;
  out.logits.resize(elements);
  std::memcpy(out.logits.data(), bytes.data(), bytes.size());
  return true;
}

std::vector<double> poisson_arrivals(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (rate_per_s <= 0.0) return out;
  SeedStream rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

double latency_ms(const SendTiming& t) {
  return (t.done_s - t.scheduled_s) * 1e3;
}

double send_lag_ms(const SendTiming& t) {
  return std::max(0.0, t.sent_s - t.scheduled_s) * 1e3;
}

}  // namespace perfbench
