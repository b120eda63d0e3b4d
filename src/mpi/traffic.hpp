#pragma once

// Heavy-traffic scenario generator (bench/traffic_gen.cpp, docs/benchmarks.md).
//
// The paper validates the direct-DCFA path with single-pattern
// microbenchmarks; nothing there exercises the stack the way production
// would — many concurrent communicators, mixed message-size distributions,
// bursty all-to-all phases, stragglers, faults. This module composes those
// ingredients into *seeded, deterministic* scenarios: the whole workload is
// compiled up front into a Schedule that every rank derives identically from
// the seed (so receivers know exactly what to post), then executed over the
// normal Communicator API while per-phase metrics are recorded — sustained
// message rate, aggregate bandwidth, p50/p99 completion latency, and the
// engine's Stats deltas. Same seed => byte-identical schedule and identical
// virtual-time metrics, which is what lets the trajectory harness
// (scripts/bench_trajectory.py) gate regressions on exact numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace dcfa::mpi::traffic {

/// Message-size distribution, sampled deterministically from the schedule
/// RNG. All results are clamped to [lo, hi] and floored at 1 byte.
struct SizeDist {
  enum class Kind : std::uint8_t { Fixed, Uniform, LogNormal, Bimodal };
  Kind kind = Kind::Fixed;
  std::size_t lo = 1;    ///< Fixed value / range floor / Bimodal small mode
  std::size_t hi = 1;    ///< range ceiling / Bimodal large mode
  double sigma = 1.0;    ///< LogNormal shape (log-space std deviation)
  double median = 2048;  ///< LogNormal median (= exp(mu))
  double p_small = 0.9;  ///< Bimodal: probability of the small mode

  std::size_t sample(sim::Rng& rng) const;

  static SizeDist fixed(std::size_t n);
  static SizeDist uniform(std::size_t lo, std::size_t hi);
  /// Log-normal with the given median, clamped to [lo, hi]: the canonical
  /// "many small, few huge" production mix.
  static SizeDist lognormal(double median, double sigma, std::size_t lo,
                            std::size_t hi);
  /// Two-point mix: `small` with probability p_small, else `large`
  /// (latency-bound control traffic punctuated by bulk payloads).
  static SizeDist bimodal(std::size_t small, std::size_t large,
                          double p_small);
};

enum class PhaseKind : std::uint8_t { P2P, AllToAll, Allreduce, Barrier };

/// Which communicator a phase runs on. Halves (rank % 2) and Stripes
/// (rank / 2) are split from world at scenario start and overlap each
/// other, so phases on different selectors drive concurrent matching
/// contexts over the same endpoints.
enum class CommSel : std::uint8_t { World, Halves, Stripes };

struct PhaseSpec {
  std::string name;
  PhaseKind kind = PhaseKind::P2P;
  CommSel comm = CommSel::World;
  SizeDist sizes;
  int rounds = 1;
  /// P2P: messages each rank sends per round (to seeded peers).
  int msgs_per_rank = 1;
  /// Collectives: back-to-back operations per round. Allreduce bursts are
  /// posted as concurrent iallreduce schedules (nonblocking engine).
  int burst = 1;
  /// Idle/compute time inserted after each round (burstiness shaping).
  sim::Time gap = 0;
  /// Scheduled stragglers: this fraction of ranks (seeded per round) delays
  /// by straggler_delay before entering the round.
  double straggler_frac = 0.0;
  sim::Time straggler_delay = 0;
};

struct Scenario {
  std::string name;
  int nprocs = 8;
  std::uint64_t seed = 1;
  /// Optional sim::FaultInjector spec armed for the whole run.
  std::string fault_spec;
  std::uint64_t fault_seed = 42;
  /// Fault-tolerant execution: ranks may die permanently (rank_kill fates in
  /// fault_spec); survivors catch MPI_ERR_PROC_FAILED, revoke, shrink, and
  /// finish the remaining rounds on the shrunk communicator. Restricted to
  /// Allreduce phases (the ULFM recovery loop needs a collective whose
  /// result is checkable against whatever membership survived).
  bool ft_shrink = false;
  std::vector<PhaseSpec> phases;
};

// --- Compiled schedule -------------------------------------------------------

struct P2POp {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint32_t bytes = 0;
};

struct Round {
  std::uint32_t coll_bytes = 0;        ///< collective payload this round
  std::vector<P2POp> p2p;              ///< P2P ops, global posting order
  std::vector<std::int32_t> stragglers;
};

struct PhaseSchedule {
  std::vector<Round> rounds;
};

struct Schedule {
  std::vector<PhaseSchedule> phases;
};

/// Compile the scenario into the full cross-rank schedule. Pure function of
/// the spec (notably the seed): every rank runs it locally and gets the
/// same bytes, which is how receivers know what to post.
Schedule build_schedule(const Scenario& sc);

/// Canonical byte serialization of a schedule (the determinism contract:
/// same seed => identical bytes).
std::vector<std::uint8_t> serialize(const Schedule& s);

/// FNV-1a over serialize() — cheap fingerprint for logs and baselines.
std::uint64_t schedule_digest(const Schedule& s);

// --- Execution + metrics -----------------------------------------------------

struct PhaseMetrics {
  std::string phase;
  // Summed over ranks. For P2P phases sent/recv conservation is exact
  // (tests assert it); each collective counts one op per participating rank
  // on both sides with its payload bytes.
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  double seconds = 0;  ///< max-over-ranks phase virtual time
  double p50_us = 0;   ///< op completion latency percentiles, all ranks
  double p99_us = 0;
  double msg_rate = 0;  ///< completed ops per second, aggregate
  double gbps = 0;      ///< received payload bandwidth, aggregate
  /// Engine Stats, summed per-rank deltas over the phase.
  Engine::Stats stats{};
};

struct ScenarioResult {
  std::string scenario;
  std::uint64_t digest = 0;  ///< schedule_digest of the executed schedule
  sim::Time elapsed = 0;     ///< whole-run virtual time
  std::vector<PhaseMetrics> phases;
  /// What the injector actually fired (zero when fault_spec is empty).
  sim::FaultInjector::Counters injected{};
  /// DcfaCheck evaluations over the run (asserting the checker ran).
  std::uint64_t check_events = 0;
  /// Sum over ranks of (live node-memory allocations at body end) minus
  /// (at body start): lazily-grown cache state shows up here once; real
  /// leaks grow with the workload (the soak test's invariant). Killed ranks
  /// are excluded — a dead rank's outstanding buffers are not a leak.
  std::int64_t leaked_allocations = 0;
  /// Ranks that ran the body to completion (= nprocs minus killed ranks).
  int survivors = 0;
  /// Failure-detection latency: max over survivors of the engine's
  /// death-to-adoption gap (0 when nothing died). The headline robustness
  /// metric for the ft_shrink scenarios.
  std::uint64_t failure_detect_max_ns = 0;
  /// Deterministic host-work counters: simulator events executed, fiber
  /// resumes, and every rank's engine Stats summed over the whole run
  /// (setup and teardown included), e.g. totals.endpoint_polls vs
  /// totals.packets_rx.
  std::uint64_t events = 0;
  std::uint64_t ctx_switches = 0;
  /// MR registrations over the run, summed over the cluster's HCAs:
  /// endpoint blocks and cache misses.
  std::uint64_t mr_regs = 0;
  Engine::Stats totals{};
};

/// Engine::Stats is a plain bag of uint64 counters; these fold them
/// field-wise for per-phase deltas and cross-rank sums.
Engine::Stats stats_add(const Engine::Stats& a, const Engine::Stats& b);
Engine::Stats stats_sub(const Engine::Stats& a, const Engine::Stats& b);

/// The named scenarios: steady_p2p, bursty_a2a, mixed_comms,
/// straggler_allreduce, faulty_soak, survivor_soak.
std::vector<std::string> scenario_names();

/// Build one named scenario. `quick` shrinks rounds/sizes for CI smoke.
/// Throws std::invalid_argument on an unknown name.
Scenario make_scenario(const std::string& name, int nprocs,
                       std::uint64_t seed, bool quick);

/// Compile and execute the scenario on a fresh simulated cluster.
ScenarioResult run_scenario(const Scenario& sc,
                            MpiMode mode = MpiMode::DcfaPhi);

/// Compile and execute on a caller-supplied cluster configuration (mode,
/// platform knobs, engine options); the scenario still supplies nprocs and
/// the fault fields. This is how the scale tier runs thousand-rank
/// clusters on a tuned RunConfig.
ScenarioResult run_scenario(const Scenario& sc, const RunConfig& base);

/// RunConfig tuned for thousand-rank runs (tests/test_scale.cpp,
/// bench/scale_ranks.cpp): HostMpi transport (no per-rank co-processor
/// machinery), one node per rank (exclusive allocation arenas), small eager
/// rings, and lazy first-touch endpoints so a rank's memory scales with the
/// peers it actually talks to — O(log N) under the tree/ring collectives —
/// instead of the full N-1 mesh.
RunConfig scale_run_config(int nprocs);

}  // namespace dcfa::mpi::traffic
