#pragma once
// The benchmark's load generator: one process, at most one thread and one
// keep-alive connection per client, closed loop or open-loop Poisson
// arrivals timed from the scheduled send. Every response passes the
// output gate as it arrives.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "model.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One prepared POST /infer body.
struct RequestBody {
  int priority = 0;          ///< index into WorkloadSpec::mix
  std::vector<int> images;   ///< pool indices, in tensor row order
  std::string json;
};

/// Prepared bodies per priority class, encoded once before the window.
using BodyPool = std::array<std::vector<RequestBody>, 3>;

BodyPool make_bodies(const WorkloadSpec& spec,
                     const std::vector<std::vector<float>>& pool,
                     std::uint64_t seed);

/// The output gate for one 200 response to `body`: the logits must parse,
/// have shape [images, classes] and be finite; in exact-cost mode they
/// must also equal the references bit for bit. Fills `parsed`.
bool passes_gate(bool analog, const RequestBody& body,
                 const std::string& response,
                 const std::vector<ImageRef>& refs, InferResponse& parsed);

/// One request sent inside the measured window.
struct RequestRecord {
  int priority = 0;
  int images = 0;
  int status = 0;           ///< HTTP status; 0 = transport error
  bool wrong_output = false;  ///< 200 whose logits failed the gate
  SendTiming timing;        ///< seconds from the window start

  [[nodiscard]] bool ok() const { return status == 200 && !wrong_output; }
};

struct DriveResult {
  std::vector<RequestRecord> window;  ///< requests sent in the window
  double window_s = 0.0;  ///< window start to the last completion
  /// Window start on the steady clock [ns since its epoch], shared with
  /// a server process on the same host.
  std::uint64_t window_start_ns = 0;
  /// 200 responses per pool image over the whole drive, warm-up included
  /// (what the server's modelled activity counters saw).
  std::vector<std::uint64_t> served_per_image;
  /// Gate failures over the whole drive, warm-up included.
  std::uint64_t wrong_outputs = 0;
  /// Window 200 responses against the exact twin and the float model.
  RelErrorAccumulator vs_exact;
  RelErrorAccumulator vs_float;
};

struct DriveOptions {
  int port = 0;
  int connections = kConnections;
  double window_s = 10.0;
  std::uint64_t seed = 1;
};

/// Drives one running server through the workload's warm-up and
/// measured window. Exact-cost responses must match `refs` bit for bit;
/// analog responses must be finite and of the right shape, and feed the
/// error accumulators.
DriveResult drive(const WorkloadSpec& spec, const BodyPool& bodies,
                  const std::vector<ImageRef>& refs,
                  const DriveOptions& options);

}  // namespace perfbench
