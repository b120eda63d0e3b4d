#pragma once

// Shared types of the end-to-end benchmark driver (README.md).
//
// One iteration builds a fresh simulated cluster through mpi::Runtime, runs
// one workload's compiled traffic schedule over the public Communicator API
// and tears the cluster down. The driver (perfbench.cpp) repeats iterations
// for the requested host seconds and folds them into the metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "mpi/traffic.hpp"

namespace perfbench {

using dcfa::sim::Time;

/// One named workload: the cluster it runs on and the traffic it drives.
struct Workload {
  std::string name;
  dcfa::mpi::RunConfig cfg;           ///< mode, ranks, platform, fault spec
  dcfa::mpi::traffic::Scenario sc;    ///< phases compiled by build_schedule
  /// Run step r of every phase together (one mixed round per step) instead
  /// of phase after phase.
  bool interleave = false;
  /// 4-byte ping-pong exchanges per rank pair per step (0 = none). Pairs are
  /// a seeded perfect matching of the ranks.
  int pingpong = 0;
  /// Rotating per-rank buffers the P2P phase named "mr_churn" draws from;
  /// more than the MR cache holds, so the cache keeps missing and evicting.
  int churn_buffers = 0;
  std::size_t churn_buffer_bytes = 0;
  /// Size of the reg_mr probe of traced iterations (drawn from the seed).
  std::size_t probe_bytes = 0;
  /// Sub-seeds one run covers (the driver pools their results).
  int passes = 1;
  /// Upper bound of each rank's seeded compute time before the opening
  /// barrier and before every step (0 = none).
  Time compute_ns = 0;
};

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What a span measures. Every span names the layer it sits on (kind_layer).
enum class Kind : std::uint8_t {
  Ctor,        ///< Runtime construction (host only)
  Init,        ///< rank start -> leaving the opening barrier
  Traffic,     ///< leaving the opening barrier -> last operation done
  Teardown,    ///< last rank body returned -> Runtime destroyed (host only)
  Send,        ///< isend posted -> send request complete (sender)
  Recv,        ///< irecv posted -> receive request complete (receiver)
  Msg,         ///< matching send's post -> receive complete (one message)
  Rtt,         ///< 4-byte ping posted -> pong received (initiator)
  Alltoall,    ///< one rank's alltoall call
  Iallreduce,  ///< one rank's iallreduce, post -> completion observed
  Wait,        ///< one waitany call (progress engine)
  RegMr,       ///< one delegated reg_mr probe through engine().ib()
};
const char* kind_name(Kind k);
const char* kind_layer(Kind k);

/// One timed interval. Virtual times are simulator nanoseconds; host times
/// are steady-clock nanoseconds since the iteration started and stay 0 in
/// untraced iterations. All spans of one message share `flow`.
struct Span {
  Kind kind = Kind::Msg;
  std::int32_t rank = -1;      ///< recording rank (-1: the driver itself)
  std::uint32_t bytes = 0;     ///< payload bytes, where one applies
  Time v0 = 0, v1 = 0;
  std::int64_t h0 = 0, h1 = 0;
  std::uint64_t id = 0;        ///< unique within the iteration
  std::uint64_t parent = 0;    ///< span that caused this one (0 = none)
  std::uint64_t flow = 0;      ///< message id (0 = not a message)
};

/// Counters and resource samples of one rank's node over the traffic window
/// (opening barrier exit -> closing barrier exit).
struct NodeSample {
  Time window = 0;
  Time dma_read = 0, dma_write = 0, egress = 0, ingress = 0, phi_dma = 0;
  std::uint64_t egress_bytes = 0;
  std::uint64_t mrs_total = 0;  ///< HCA registrations since cluster start
};

struct IterResult {
  // Host clock (seconds).
  double ctor_s = 0;      ///< Runtime construction
  double setup_s = 0;     ///< construction -> every rank left the barrier
  double wall_s = 0;      ///< barrier exit -> Runtime destroyed
  double run_s = 0;       ///< Runtime::run (all simulated execution)
  double teardown_s = 0;  ///< last body returned -> Runtime destroyed
  // Virtual clock.
  Time init_virt = 0;  ///< last rank leaving the opening barrier
  Time makespan = 0;   ///< barrier exit -> last rank's last operation
  // Work and correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t p2p_sent = 0, p2p_received = 0;
  std::uint64_t payload_bytes = 0;  ///< user payload delivered off-node
  std::uint64_t result_digest = 0;  ///< over every verified result
  std::uint64_t virt_digest = 0;    ///< over every virtual-time sample
  std::uint64_t events = 0;
  dcfa::mpi::Engine::Stats stats{};  ///< summed over ranks
  std::uint64_t mr_hits = 0, mr_misses = 0, mr_evictions = 0;
  std::uint64_t shadow_misses = 0;
  dcfa::sim::FaultInjector::Counters faults{};
  std::vector<NodeSample> nodes;
  Time reg_mr_ns = 0;  ///< traced iterations only
  std::vector<Span> spans;
  std::vector<std::string> violations;  ///< outside-in invariant failures
};

/// Build, run and tear down one cluster. `traced` adds host timestamps,
/// progress/setup spans and the reg_mr probe; `setup_only` skips the traffic
/// and ends with a second barrier behind the opening one (the set-up pass).
IterResult run_iteration(const Workload& w, bool traced,
                         bool setup_only = false);

/// splitmix64 finaliser: seed derivation and payload patterns.
inline std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a fold of one 64-bit word.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    h ^= (v >> (8 * k)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench
