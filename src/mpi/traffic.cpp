#include "mpi/traffic.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>
#include <set>
#include <stdexcept>

#include "sim/check.hpp"
#include "sim/engine.hpp"

namespace dcfa::mpi::traffic {

namespace {

/// User-tag base for generated P2P traffic (phase index is added; stays
/// far below kInternalTagBase so collective tag windows never collide).
constexpr int kTrafficTagBase = 5000;

/// Deterministic fill/verify byte for one P2P op or all-to-all block.
std::byte pat_byte(int a, int b, std::uint32_t bytes) {
  return static_cast<std::byte>(
      0x20 + ((static_cast<std::uint32_t>(a) * 31u +
               static_cast<std::uint32_t>(b) * 17u + bytes) & 0x5fu));
}

}  // namespace

// --- SizeDist ----------------------------------------------------------------

std::size_t SizeDist::sample(sim::Rng& rng) const {
  std::size_t v = lo;
  switch (kind) {
    case Kind::Fixed:
      v = lo;
      break;
    case Kind::Uniform:
      v = static_cast<std::size_t>(rng.range(lo, hi));
      break;
    case Kind::LogNormal: {
      // Box–Muller on the schedule RNG: exp(N(ln median, sigma)).
      const double u1 = std::max(rng.uniform(), 1e-12);
      const double u2 = rng.uniform();
      const double z = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * std::numbers::pi * u2);
      const double x = median * std::exp(sigma * z);
      v = static_cast<std::size_t>(std::clamp(
          x, static_cast<double>(lo), static_cast<double>(hi)));
      break;
    }
    case Kind::Bimodal:
      v = rng.chance(p_small) ? lo : hi;
      break;
  }
  return std::max<std::size_t>(v, 1);
}

SizeDist SizeDist::fixed(std::size_t n) {
  SizeDist d;
  d.kind = Kind::Fixed;
  d.lo = d.hi = n;
  return d;
}

SizeDist SizeDist::uniform(std::size_t lo, std::size_t hi) {
  SizeDist d;
  d.kind = Kind::Uniform;
  d.lo = lo;
  d.hi = hi;
  return d;
}

SizeDist SizeDist::lognormal(double median, double sigma, std::size_t lo,
                             std::size_t hi) {
  SizeDist d;
  d.kind = Kind::LogNormal;
  d.median = median;
  d.sigma = sigma;
  d.lo = lo;
  d.hi = hi;
  return d;
}

SizeDist SizeDist::bimodal(std::size_t small, std::size_t large,
                           double p_small) {
  SizeDist d;
  d.kind = Kind::Bimodal;
  d.lo = small;
  d.hi = large;
  d.p_small = p_small;
  return d;
}

// --- Schedule compilation ----------------------------------------------------

Schedule build_schedule(const Scenario& sc) {
  if (sc.nprocs < 2) {
    throw std::invalid_argument("traffic: scenario needs >= 2 ranks");
  }
  Schedule out;
  sim::Rng rng(sc.seed ^ 0x7261666669636bULL);  // "traffick"-ish salt
  const int P = sc.nprocs;
  for (const PhaseSpec& ps : sc.phases) {
    PhaseSchedule psched;
    for (int r = 0; r < ps.rounds; ++r) {
      Round rd;
      if (ps.kind == PhaseKind::P2P) {
        if (ps.comm != CommSel::World) {
          throw std::invalid_argument(
              "traffic: P2P phases run on the world communicator");
        }
        for (int s = 0; s < P; ++s) {
          for (int m = 0; m < ps.msgs_per_rank; ++m) {
            const int dst =
                (s + 1 + static_cast<int>(rng.below(P - 1))) % P;
            rd.p2p.push_back(
                {s, dst, static_cast<std::uint32_t>(ps.sizes.sample(rng))});
          }
        }
      } else if (ps.kind != PhaseKind::Barrier) {
        rd.coll_bytes = static_cast<std::uint32_t>(ps.sizes.sample(rng));
      }
      if (ps.straggler_frac > 0.0) {
        const int want = static_cast<int>(
            std::lround(ps.straggler_frac * P));
        for (int k = 0; k < std::min(want, P); ++k) {
          // Distinct picks: linear-probe past duplicates.
          int cand = static_cast<int>(rng.below(P));
          while (std::find(rd.stragglers.begin(), rd.stragglers.end(),
                           cand) != rd.stragglers.end()) {
            cand = (cand + 1) % P;
          }
          rd.stragglers.push_back(cand);
        }
      }
      psched.rounds.push_back(std::move(rd));
    }
    out.phases.push_back(std::move(psched));
  }
  return out;
}

std::vector<std::uint8_t> serialize(const Schedule& s) {
  std::vector<std::uint8_t> out;
  auto put32 = [&out](std::uint32_t v) {
    for (int k = 0; k < 4; ++k) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }
  };
  put32(static_cast<std::uint32_t>(s.phases.size()));
  for (const PhaseSchedule& ph : s.phases) {
    put32(static_cast<std::uint32_t>(ph.rounds.size()));
    for (const Round& rd : ph.rounds) {
      put32(rd.coll_bytes);
      put32(static_cast<std::uint32_t>(rd.p2p.size()));
      for (const P2POp& op : rd.p2p) {
        put32(static_cast<std::uint32_t>(op.src));
        put32(static_cast<std::uint32_t>(op.dst));
        put32(op.bytes);
      }
      put32(static_cast<std::uint32_t>(rd.stragglers.size()));
      for (std::int32_t r : rd.stragglers) {
        put32(static_cast<std::uint32_t>(r));
      }
    }
  }
  return out;
}

std::uint64_t schedule_digest(const Schedule& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (std::uint8_t b : serialize(s)) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Stats folding -----------------------------------------------------------

// Engine::Stats is (and must stay) a flat bag of uint64 counters, so the
// field-wise fold can treat it as words; the asserts pin that shape.
static_assert(std::is_trivially_copyable_v<Engine::Stats>);
static_assert(sizeof(Engine::Stats) % sizeof(std::uint64_t) == 0);
constexpr std::size_t kStatWords = sizeof(Engine::Stats) / sizeof(std::uint64_t);

namespace {
std::array<std::uint64_t, kStatWords> stat_words(const Engine::Stats& s) {
  std::array<std::uint64_t, kStatWords> w;
  std::memcpy(w.data(), &s, sizeof s);
  return w;
}

Engine::Stats from_words(const std::array<std::uint64_t, kStatWords>& w) {
  Engine::Stats s;
  std::memcpy(static_cast<void*>(&s), w.data(), sizeof s);
  return s;
}

/// Live allocation count across both memory domains of one node.
std::int64_t live_allocs(const mem::NodeMemory& m) {
  return static_cast<std::int64_t>(
      m.space(mem::Domain::HostDram).live_allocations() +
      m.space(mem::Domain::PhiGddr).live_allocations());
}
}  // namespace

Engine::Stats stats_add(const Engine::Stats& a, const Engine::Stats& b) {
  auto wa = stat_words(a);
  const auto wb = stat_words(b);
  for (std::size_t i = 0; i < kStatWords; ++i) wa[i] += wb[i];
  return from_words(wa);
}

Engine::Stats stats_sub(const Engine::Stats& a, const Engine::Stats& b) {
  auto wa = stat_words(a);
  const auto wb = stat_words(b);
  for (std::size_t i = 0; i < kStatWords; ++i) wa[i] -= wb[i];
  return from_words(wa);
}

// --- Named scenarios ---------------------------------------------------------

std::vector<std::string> scenario_names() {
  return {"steady_p2p", "bursty_a2a", "mixed_comms", "straggler_allreduce",
          "faulty_soak", "survivor_soak"};
}

Scenario make_scenario(const std::string& name, int nprocs,
                       std::uint64_t seed, bool quick) {
  Scenario sc;
  sc.name = name;
  sc.nprocs = nprocs;
  sc.seed = seed;
  auto phase = [&sc](PhaseSpec ps) { sc.phases.push_back(std::move(ps)); };
  if (name == "steady_p2p") {
    // Sustained point-to-point under three production-shaped size mixes;
    // lognormal straddles the eager/rendezvous threshold on purpose.
    phase({.name = "uniform_small",
           .kind = PhaseKind::P2P,
           .sizes = SizeDist::uniform(64, 4096),
           .rounds = quick ? 2 : 6,
           .msgs_per_rank = 3});
    phase({.name = "lognormal_mix",
           .kind = PhaseKind::P2P,
           .sizes = SizeDist::lognormal(4096, 1.1, 16, 256 << 10),
           .rounds = quick ? 2 : 5,
           .msgs_per_rank = 2});
    phase({.name = "bimodal_bulk",
           .kind = PhaseKind::P2P,
           .sizes = SizeDist::bimodal(256, 128 << 10, 0.85),
           .rounds = quick ? 1 : 4,
           .msgs_per_rank = 2});
  } else if (name == "bursty_a2a") {
    // Alternating all-to-all bursts and idle gaps, then a storm of
    // concurrent nonblocking allreduces.
    phase({.name = "a2a_burst",
           .kind = PhaseKind::AllToAll,
           .sizes = SizeDist::bimodal(512, 32 << 10, 0.7),
           .rounds = quick ? 2 : 4,
           .burst = quick ? 2 : 3,
           .gap = sim::microseconds(30)});
    phase({.name = "allreduce_storm",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::lognormal(16 << 10, 1.0, 1 << 10, 512 << 10),
           .rounds = quick ? 2 : 4,
           .burst = 3});
  } else if (name == "mixed_comms") {
    // Overlapping communicators (world, rank%2 halves, rank/2 stripes)
    // carrying different patterns back to back over the same endpoints.
    phase({.name = "world_p2p",
           .kind = PhaseKind::P2P,
           .sizes = SizeDist::uniform(128, 16 << 10),
           .rounds = quick ? 2 : 4,
           .msgs_per_rank = 2});
    phase({.name = "halves_allreduce",
           .kind = PhaseKind::Allreduce,
           .comm = CommSel::Halves,
           .sizes = SizeDist::fixed(32 << 10),
           .rounds = quick ? 2 : 4,
           .burst = 2});
    phase({.name = "stripes_a2a",
           .kind = PhaseKind::AllToAll,
           .comm = CommSel::Stripes,
           .sizes = SizeDist::fixed(8 << 10),
           .rounds = quick ? 2 : 4});
    phase({.name = "world_storm",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::bimodal(1 << 10, 256 << 10, 0.7),
           .rounds = quick ? 1 : 3,
           .burst = 2});
  } else if (name == "straggler_allreduce") {
    // Same collective with and without seeded stragglers: the delta is the
    // cost of waiting for the slowest rank (max-over-ranks timing).
    phase({.name = "baseline",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(64 << 10),
           .rounds = quick ? 2 : 6});
    phase({.name = "straggle",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(64 << 10),
           .rounds = quick ? 2 : 6,
           .straggler_frac = 0.25,
           .straggler_delay = sim::microseconds(300)});
  } else if (name == "faulty_soak") {
    // Everything at once under injected faults: WC drops/errors, compute
    // jitter, and one delegate crash (with restart) mid-run. The recovery
    // machinery must keep retries bounded and complete exactly-once.
    sc.fault_spec =
        "drop_wc=0.02,err_wc=0.01,compute_delay=0.05,compute_delay_ns=20000,"
        "delegate_crash=1,delegate_crash_skip=25,delegate_crash_max=1,"
        "delegate_restart_ns=500000";
    phase({.name = "soak_p2p",
           .kind = PhaseKind::P2P,
           .sizes = SizeDist::lognormal(4096, 1.0, 64, 64 << 10),
           .rounds = quick ? 2 : 5,
           .msgs_per_rank = 2});
    phase({.name = "soak_storm",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(32 << 10),
           .rounds = quick ? 2 : 4,
           .burst = 2});
    phase({.name = "soak_a2a",
           .kind = PhaseKind::AllToAll,
           .sizes = SizeDist::fixed(4096),
           .rounds = quick ? 1 : 3});
  } else if (name == "survivor_soak") {
    // Rank failure mid-collective: two ranks die permanently during the
    // storm phase; every survivor's allreduce fails with PROC_FAILED, the
    // ULFM loop (revoke -> shrink -> retry) rebuilds the communicator, and
    // the remaining rounds complete on the smaller group. Victims and death
    // times are exact, so the recovery trajectory is seeded-deterministic.
    if (nprocs < 4) {
      throw std::invalid_argument("traffic: survivor_soak needs >= 4 ranks");
    }
    sc.ft_shrink = true;
    // Death times must land after startup + the run's initial barrier/dup
    // (several hundred microseconds of virtual time at 9 ranks): a kill that
    // hits while the world communicator is still being cloned poisons ranks
    // outside the recovery loop's protection.
    sc.fault_spec = "rank_kill=2+" + std::to_string(nprocs - 3) +
                    ",rank_kill_at_ns=2500000+2600000";
    phase({.name = "warmup",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(8 << 10),
           .rounds = 2});
    phase({.name = "kill_storm",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(32 << 10),
           .rounds = quick ? 4 : 6,
           .burst = 2});
    phase({.name = "aftermath",
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::fixed(16 << 10),
           .rounds = quick ? 2 : 4});
  } else {
    throw std::invalid_argument("traffic: unknown scenario '" + name + "'");
  }
  return sc;
}

// --- Execution ---------------------------------------------------------------

namespace {

/// Per-rank, per-phase raw results; each rank writes only its own slot.
struct RankPhase {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  double seconds = 0;
  std::vector<double> lat_us;
  Engine::Stats stats{};
};

[[noreturn]] void corrupt(const char* where) {
  throw std::runtime_error(std::string("traffic: payload mismatch in ") +
                           where);
}

void run_p2p_round(RankCtx& ctx, Communicator& comm, const Round& rd,
                   int tag, RankPhase& out) {
  struct Slot {
    mem::Buffer buf;
    std::uint32_t bytes = 0;
    std::byte pat{};
    bool is_recv = false;
  };
  const int me = comm.rank();
  std::vector<Request> reqs;
  std::vector<Slot> slots;
  // All receives first (posting order per source matches the senders'
  // emission order, so same-tag sequence matching lines up exactly).
  for (const P2POp& op : rd.p2p) {
    if (op.dst != me) continue;
    Slot s;
    s.buf = comm.alloc(op.bytes);
    s.bytes = op.bytes;
    s.pat = pat_byte(op.src, op.dst, op.bytes);
    s.is_recv = true;
    reqs.push_back(
        comm.irecv(s.buf, 0, op.bytes, type_byte(), op.src, tag));
    slots.push_back(std::move(s));
  }
  for (const P2POp& op : rd.p2p) {
    if (op.src != me) continue;
    Slot s;
    s.buf = comm.alloc(op.bytes);
    s.bytes = op.bytes;
    s.pat = pat_byte(op.src, op.dst, op.bytes);
    std::memset(s.buf.data(), static_cast<int>(s.pat), op.bytes);
    reqs.push_back(
        comm.isend(s.buf, 0, op.bytes, type_byte(), op.dst, tag));
    slots.push_back(std::move(s));
  }
  const double t0 = ctx.wtime();
  std::size_t remaining = reqs.size();
  while (remaining > 0) {
    const std::size_t i = comm.waitany(std::span<Request>(reqs));
    if (i == SIZE_MAX) break;
    const Slot& s = slots[i];
    out.lat_us.push_back((ctx.wtime() - t0) * 1e6);
    if (s.is_recv) {
      if (s.buf.data()[0] != s.pat || s.buf.data()[s.bytes - 1] != s.pat) {
        corrupt("p2p");
      }
      ++out.msgs_recv;
      out.bytes_recv += s.bytes;
    } else {
      ++out.msgs_sent;
      out.bytes_sent += s.bytes;
    }
    comm.free(s.buf);
    reqs[i] = Request();
    --remaining;
  }
}

void run_allreduce_round(RankCtx& ctx, Communicator& comm, const Round& rd,
                         int burst, RankPhase& out) {
  const int me = comm.rank(), sz = comm.size();
  const std::size_t n =
      std::max<std::size_t>(rd.coll_bytes / sizeof(double), 1);
  std::vector<mem::Buffer> ins, outs;
  std::vector<Request> reqs;
  const double t0 = ctx.wtime();
  for (int b = 0; b < burst; ++b) {
    ins.push_back(comm.alloc(n * sizeof(double)));
    outs.push_back(comm.alloc(n * sizeof(double)));
    auto* din = reinterpret_cast<double*>(ins.back().data());
    for (std::size_t i = 0; i < n; ++i) din[i] = me + b;
  }
  // The whole burst is posted as concurrent nonblocking schedules and
  // drained through waitany — the collectives-engine stress mode.
  for (int b = 0; b < burst; ++b) {
    reqs.push_back(comm.iallreduce(ins[b], 0, outs[b], 0, n, type_double(),
                                   Op::Sum));
  }
  std::size_t remaining = reqs.size();
  while (remaining > 0) {
    const std::size_t i = comm.waitany(std::span<Request>(reqs));
    if (i == SIZE_MAX) break;
    out.lat_us.push_back((ctx.wtime() - t0) * 1e6);
    const auto* dout = reinterpret_cast<const double*>(outs[i].data());
    const double expect =
        static_cast<double>(sz) * (sz - 1) / 2.0 +
        static_cast<double>(sz) * static_cast<double>(i);
    if (dout[0] != expect || dout[n - 1] != expect) corrupt("allreduce");
    ++out.msgs_sent;
    ++out.msgs_recv;
    out.bytes_sent += rd.coll_bytes;
    out.bytes_recv += rd.coll_bytes;
    reqs[i] = Request();
    --remaining;
  }
  for (int b = 0; b < burst; ++b) {
    comm.free(ins[b]);
    comm.free(outs[b]);
  }
}

void run_alltoall_round(RankCtx& ctx, Communicator& comm, const Round& rd,
                        int burst, RankPhase& out) {
  const int me = comm.rank(), sz = comm.size();
  const std::size_t count = std::max<std::uint32_t>(rd.coll_bytes, 1);
  mem::Buffer sbuf = comm.alloc(sz * count);
  mem::Buffer rbuf = comm.alloc(sz * count);
  for (int b = 0; b < burst; ++b) {
    for (int d = 0; d < sz; ++d) {
      std::memset(sbuf.data() + d * count,
                  static_cast<int>(pat_byte(me, d, rd.coll_bytes)), count);
    }
    const double t0 = ctx.wtime();
    comm.alltoall(sbuf, 0, count, type_byte(), rbuf, 0);
    out.lat_us.push_back((ctx.wtime() - t0) * 1e6);
    for (int s = 0; s < sz; ++s) {
      const std::byte want = pat_byte(s, me, rd.coll_bytes);
      if (rbuf.data()[s * count] != want ||
          rbuf.data()[(s + 1) * count - 1] != want) {
        corrupt("alltoall");
      }
    }
    ++out.msgs_sent;
    ++out.msgs_recv;
    out.bytes_sent += static_cast<std::uint64_t>(sz) * count;
    out.bytes_recv += static_cast<std::uint64_t>(sz) * count;
  }
  comm.free(sbuf);
  comm.free(rbuf);
}

/// One allreduce round under ft_shrink. Returns false when any operation
/// failed with PROC_FAILED/REVOKED — the caller revokes, shrinks and retries
/// the round on the new communicator. Every posted request is drained to a
/// terminal phase before the buffers are freed, so a failure cannot leave
/// in-flight RDMA aimed at recycled memory.
bool ft_allreduce_round(RankCtx& ctx, Communicator& comm, const Round& rd,
                        int burst, RankPhase& out) {
  const int me = comm.rank(), sz = comm.size();
  const std::size_t n =
      std::max<std::size_t>(rd.coll_bytes / sizeof(double), 1);
  std::vector<mem::Buffer> ins, outs;
  std::vector<Request> reqs;
  for (int b = 0; b < burst; ++b) {
    ins.push_back(comm.alloc(n * sizeof(double)));
    outs.push_back(comm.alloc(n * sizeof(double)));
    auto* din = reinterpret_cast<double*>(ins.back().data());
    for (std::size_t i = 0; i < n; ++i) din[i] = me + b;
  }
  bool ok = true;
  const double t0 = ctx.wtime();
  try {
    for (int b = 0; b < burst; ++b) {
      reqs.push_back(comm.iallreduce(ins[b], 0, outs[b], 0, n, type_double(),
                                     Op::Sum));
    }
  } catch (const MpiError& e) {
    // Once a member's death (or a revocation) is already adopted, posting
    // on the communicator is refused outright — same recovery as a wait.
    if (e.errc() != MpiErrc::ProcFailed && e.errc() != MpiErrc::Revoked) {
      throw;
    }
    ok = false;
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    try {
      comm.wait(reqs[i]);
    } catch (const MpiError& e) {
      if (e.errc() != MpiErrc::ProcFailed && e.errc() != MpiErrc::Revoked) {
        throw;
      }
      ok = false;
      continue;
    }
    out.lat_us.push_back((ctx.wtime() - t0) * 1e6);
    const auto* dout = reinterpret_cast<const double*>(outs[i].data());
    const double expect =
        static_cast<double>(sz) * (sz - 1) / 2.0 +
        static_cast<double>(sz) * static_cast<double>(i);
    if (dout[0] != expect || dout[n - 1] != expect) corrupt("ft_allreduce");
    ++out.msgs_sent;
    ++out.msgs_recv;
    out.bytes_sent += rd.coll_bytes;
    out.bytes_recv += rd.coll_bytes;
  }
  for (int b = 0; b < burst; ++b) {
    comm.free(ins[b]);
    comm.free(outs[b]);
  }
  return ok;
}

/// Rank body for ft_shrink scenarios: no world barriers after startup (the
/// world contains doomed ranks and would poison them), each failed round is
/// retried on the shrunk communicator until it completes. Killed ranks never
/// reach the bookkeeping at the end, which is what excludes them from the
/// leak and survivor accounting.
///
/// Rounds across all phases are flattened into one global cursor because a
/// failure can leave survivors in different rounds — one rank's allreduce
/// completes while a peer's cancels, and the completed rank may already be
/// posting the next round (even the next phase) when the revocation reaches
/// it. After shrinking, survivors agree on the earliest round any of them
/// has not finished and all resume there; redone rounds are idempotent
/// (inputs are a pure function of comm rank and round index).
void run_ft_body(const Scenario& sc, const Schedule& sched, RankCtx& ctx,
                 bool exclusive_node,
                 std::vector<std::vector<RankPhase>>& per_rank,
                 std::vector<std::int64_t>& leaked,
                 std::vector<std::uint64_t>& detect_ns,
                 std::vector<char>& completed) {
  auto& world = ctx.world;
  const int me = ctx.rank;
  world.barrier();
  const std::int64_t live0 = live_allocs(ctx.memory);
  // Recovery replaces the working communicator wholesale, so run on a dup
  // and leave ctx.world untouched.
  std::optional<Communicator> comm(world.dup());
  struct FlatRound {
    std::size_t pi;
    const Round* rd;
  };
  std::vector<FlatRound> flat;
  for (std::size_t pi = 0; pi < sc.phases.size(); ++pi) {
    if (sc.phases[pi].kind != PhaseKind::Allreduce) {
      throw std::invalid_argument(
          "traffic: ft_shrink scenarios support Allreduce phases only");
    }
    for (const Round& rd : sched.phases[pi].rounds) {
      flat.push_back({pi, &rd});
    }
  }
  if (flat.size() > 63) {
    throw std::invalid_argument(
        "traffic: ft_shrink scenarios support at most 63 rounds (the resume "
        "agreement votes a one-bit-per-round mask)");
  }
  std::size_t k = 0;
  while (k < flat.size()) {
    const PhaseSpec& ps = sc.phases[flat[k].pi];
    RankPhase& out = per_rank[me][flat[k].pi];
    const Engine::Stats s0 = world.engine().stats();
    const double t0 = ctx.wtime();
    const bool ok = ft_allreduce_round(ctx, *comm, *flat[k].rd, ps.burst, out);
    out.seconds += ctx.wtime() - t0;
    out.stats = stats_add(out.stats, stats_sub(world.engine().stats(), s0));
    if (ok) {
      ++k;
      if (ps.gap > 0) ctx.proc.wait(ps.gap);
      continue;
    }
    // The ULFM loop: interrupt everyone still blocked on the old
    // communicator, agree on the survivor set, then agree on the resume
    // round — the earliest one any survivor has yet to finish (votes are
    // "rounds I have not completed" masks; the OR's lowest bit is the
    // global minimum).
    comm->revoke();
    Communicator shrunk = comm->shrink();
    comm.emplace(std::move(shrunk));
    const std::uint64_t agreed = comm->agree(~std::uint64_t{0} << k);
    k = static_cast<std::size_t>(std::countr_zero(agreed));
  }
  leaked[me] = exclusive_node ? live_allocs(ctx.memory) - live0 : 0;
  detect_ns[me] = world.engine().stats().failure_detect_max_ns;
  completed[me] = 1;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

ScenarioResult run_scenario(const Scenario& sc, MpiMode mode) {
  RunConfig cfg;
  cfg.mode = mode;
  return run_scenario(sc, cfg);
}

RunConfig scale_run_config(int nprocs) {
  RunConfig cfg;
  cfg.mode = MpiMode::HostMpi;
  cfg.nprocs = nprocs;
  // One rank per node: exclusive allocation arenas (the leak accounting
  // stays exact) and no co-located transient noise.
  cfg.platform.nodes = nprocs;
  // Shrink the per-pair footprint: ring + staging cost
  // eager_slots * stride each, and even with lazy wiring a collective-heavy
  // rank holds O(log N) pairs. Small payload ceilings keep the stride at
  // ~1KB instead of ~8KB.
  cfg.platform.eager_slots = 4;
  cfg.platform.eager_max_payload = 1024;
  cfg.platform.eager_threshold = 1024;
  cfg.platform.mr_cache_entries = 16;
  cfg.platform.mr_cache_bytes = 16ull * 1024 * 1024;
  cfg.engine_options.lazy_endpoints = true;
  return cfg;
}

ScenarioResult run_scenario(const Scenario& sc, const RunConfig& base) {
  const Schedule sched = build_schedule(sc);
  RunConfig cfg = base;
  cfg.nprocs = sc.nprocs;
  cfg.fault_spec = sc.fault_spec;
  cfg.fault_seed = sc.fault_seed;
  const int P = sc.nprocs;
  const std::size_t nphases = sc.phases.size();
  std::vector<std::vector<RankPhase>> per_rank(
      P, std::vector<RankPhase>(nphases));
  std::vector<std::int64_t> leaked(P, 0);
  std::vector<std::uint64_t> detect_ns(P, 0);
  std::vector<char> completed(P, 0);

  Runtime rt(cfg);
  sim::FaultInjector* faults = rt.faults_mut();
  std::set<const ib::Hca*> hcas;
  rt.run([&](RankCtx& ctx) {
    auto& world = ctx.world;
    const int me = ctx.rank;
    hcas.insert(&world.engine().ib().hca_ref());
    // Past the cluster size, ranks share nodes round-robin; arena counters
    // on a shared node see the co-located rank's transient allocations
    // (e.g. an in-flight barrier scratch byte), so leaks are attributable
    // only to ranks that own their node exclusively.
    const int node_count = std::min(sc.nprocs, rt.platform().nodes);
    const bool exclusive_node = (me % node_count) + node_count >= sc.nprocs;
    if (sc.ft_shrink) {
      run_ft_body(sc, sched, ctx, exclusive_node, per_rank, leaked, detect_ns,
                  completed);
      return;
    }
    Communicator halves = world.split(me % 2, me);
    Communicator stripes = world.split(me / 2, me);
    world.barrier();
    const std::int64_t live0 = live_allocs(ctx.memory);

    for (std::size_t pi = 0; pi < nphases; ++pi) {
      const PhaseSpec& ps = sc.phases[pi];
      Communicator& comm = ps.comm == CommSel::World    ? world
                           : ps.comm == CommSel::Halves ? halves
                                                        : stripes;
      RankPhase& out = per_rank[me][pi];
      world.barrier();
      const Engine::Stats s0 = world.engine().stats();
      const double t0 = ctx.wtime();
      for (const Round& rd : sched.phases[pi].rounds) {
        if (std::find(rd.stragglers.begin(), rd.stragglers.end(), me) !=
            rd.stragglers.end()) {
          ctx.proc.wait(ps.straggler_delay);
        }
        if (faults != nullptr) {
          const sim::Time j = faults->compute_jitter();
          if (j > 0) ctx.proc.wait(j);
        }
        switch (ps.kind) {
          case PhaseKind::P2P:
            run_p2p_round(ctx, comm, rd,
                          kTrafficTagBase + static_cast<int>(pi), out);
            break;
          case PhaseKind::Allreduce:
            run_allreduce_round(ctx, comm, rd, ps.burst, out);
            break;
          case PhaseKind::AllToAll:
            run_alltoall_round(ctx, comm, rd, ps.burst, out);
            break;
          case PhaseKind::Barrier:
            comm.barrier();
            ++out.msgs_sent;
            ++out.msgs_recv;
            break;
        }
        if (ps.gap > 0) ctx.proc.wait(ps.gap);
      }
      world.barrier();
      out.seconds = ctx.wtime() - t0;
      out.stats = stats_sub(world.engine().stats(), s0);
    }
    world.barrier();
    leaked[me] = exclusive_node ? live_allocs(ctx.memory) - live0 : 0;
    completed[me] = 1;
  });

  ScenarioResult res;
  res.scenario = sc.name;
  res.digest = schedule_digest(sched);
  res.elapsed = rt.elapsed();
  res.check_events = rt.sim().checker().events();
  res.events = rt.sim().events_executed();
  res.ctx_switches = rt.sim().switches();
  for (const ib::Hca* hca : hcas) res.mr_regs += hca->mrs_registered_total();
  for (const Engine::Stats& st : rt.rank_stats()) {
    res.totals = stats_add(res.totals, st);
  }
  if (rt.faults() != nullptr) res.injected = rt.faults()->counters();
  for (int r = 0; r < P; ++r) {
    if (completed[r] == 0) continue;  // killed ranks: no leak/detect data
    ++res.survivors;
    res.leaked_allocations += leaked[r];
    res.failure_detect_max_ns =
        std::max(res.failure_detect_max_ns, detect_ns[r]);
  }
  for (std::size_t pi = 0; pi < nphases; ++pi) {
    PhaseMetrics m;
    m.phase = sc.phases[pi].name;
    std::vector<double> lats;
    for (int r = 0; r < P; ++r) {
      const RankPhase& rp = per_rank[r][pi];
      m.msgs_sent += rp.msgs_sent;
      m.msgs_recv += rp.msgs_recv;
      m.bytes_sent += rp.bytes_sent;
      m.bytes_recv += rp.bytes_recv;
      m.seconds = std::max(m.seconds, rp.seconds);
      m.stats = stats_add(m.stats, rp.stats);
      lats.insert(lats.end(), rp.lat_us.begin(), rp.lat_us.end());
    }
    std::sort(lats.begin(), lats.end());
    m.p50_us = percentile(lats, 0.50);
    m.p99_us = percentile(lats, 0.99);
    if (m.seconds > 0) {
      m.msg_rate = static_cast<double>(m.msgs_recv) / m.seconds;
      m.gbps = static_cast<double>(m.bytes_recv) / (m.seconds * 1e9);
    }
    res.phases.push_back(std::move(m));
  }
  return res;
}

}  // namespace dcfa::mpi::traffic
