// Rank-failure semantics (ULFM-style): a rank that dies permanently
// (rank_kill fate) must surface as MPI_ERR_PROC_FAILED on every operation
// that depends on it — never a hang — and the recovery API
// (revoke / shrink / agree) must rebuild a working communicator from the
// survivors. The acceptance scenario kills 2 of 9 ranks mid-iallreduce and
// requires every survivor to observe the failure, shrink to a 7-rank
// communicator, and finish with correct sums, deterministically across
// reruns. The suite-wide deadline watchdog (tests/watchdog.cpp) is armed,
// so any hang here aborts with an engine-state dump instead of wedging CI.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ib/hca.hpp"
#include "mpi/runtime.hpp"
#include "mpi/traffic.hpp"
#include "sim/fault.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

/// Everything one acceptance run produces, for exact rerun comparison.
struct FtRun {
  sim::Time elapsed = 0;
  std::vector<int> shrunk_size;       ///< final comm size per world rank
  std::vector<int> err_code;          ///< first MpiErrc observed per rank
  std::vector<Engine::Stats> stats;   ///< per-rank engine stats
};

constexpr int kWorld = 9;
constexpr int kVictimA = 2;
constexpr int kVictimB = 6;
constexpr std::size_t kElems = 1024;  // doubles per allreduce

double expected_sum(int size, int salt) {
  // Every member contributes (comm_rank + salt), summed over the group.
  return static_cast<double>(size) * (size - 1) / 2.0 +
         static_cast<double>(size) * static_cast<double>(salt);
}

FtRun run_acceptance() {
  RunConfig cfg;
  cfg.nprocs = kWorld;
  // Both victims die mid-storm, well after startup and a few clean rounds.
  cfg.fault_spec = "rank_kill=2+6,rank_kill_at_ns=2000000+2100000";
  FtRun out;
  out.shrunk_size.assign(kWorld, -1);
  out.err_code.assign(kWorld, -1);

  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& world = ctx.world;
    const int me = ctx.rank;
    std::optional<Communicator> comm(world.dup());
    mem::Buffer in = world.alloc(kElems * sizeof(double));
    mem::Buffer out_buf = world.alloc(kElems * sizeof(double));
    auto fill = [&](int salt) {
      auto* d = reinterpret_cast<double*>(in.data());
      for (std::size_t i = 0; i < kElems; ++i) {
        d[i] = comm->rank() + salt;
      }
    };
    auto check = [&](int salt) {
      const auto* d = reinterpret_cast<const double*>(out_buf.data());
      const double want = expected_sum(comm->size(), salt);
      ASSERT_EQ(d[0], want);
      ASSERT_EQ(d[kElems - 1], want);
    };

    // Phase 1: iallreduce rounds until the kills surface. All survivors
    // fail in the same round — an allreduce result depends on every
    // member, so a round either completes everywhere or nowhere.
    bool failed_seen = false;
    int round = 0;
    for (; round < 400 && !failed_seen; ++round) {
      // The post itself can throw too: once the death is adopted (e.g. via
      // gossip) the ULFM guard refuses new work on the doomed comm.
      try {
        fill(round);
        Request r = comm->iallreduce(in, 0, out_buf, 0, kElems,
                                     type_double(), Op::Sum);
        comm->wait(r);
        check(round);
      } catch (const MpiError& e) {
        failed_seen = true;
        out.err_code[me] = static_cast<int>(e.errc());
        // The taxonomy must make the failure actionable without parsing
        // the message: a code, the culprit, and the communicator.
        EXPECT_TRUE(e.errc() == MpiErrc::ProcFailed ||
                    e.errc() == MpiErrc::Revoked)
            << e.what();
        if (e.errc() == MpiErrc::ProcFailed) {
          EXPECT_TRUE(e.peer() == kVictimA || e.peer() == kVictimB)
              << e.what();
        }
        EXPECT_NE(e.comm_id(), 0u) << e.what();
      }
    }
    EXPECT_TRUE(failed_seen) << "rank " << me << " never saw the failure";

    // Phase 2: the ULFM loop. Retry until a full round of post-shrink
    // allreduces completes (a second shrink happens if the other victim's
    // death is adopted late).
    int done_rounds = 0;
    comm->revoke();
    EXPECT_TRUE(comm->revoked());
    {
      Communicator s = comm->shrink();
      comm.emplace(std::move(s));
    }
    while (done_rounds < 6) {
      try {
        fill(100 + done_rounds);
        Request r = comm->iallreduce(in, 0, out_buf, 0, kElems,
                                     type_double(), Op::Sum);
        comm->wait(r);
        check(100 + done_rounds);
        ++done_rounds;
      } catch (const MpiError& e) {
        EXPECT_TRUE(e.errc() == MpiErrc::ProcFailed ||
                    e.errc() == MpiErrc::Revoked)
            << e.what();
        comm->revoke();
        Communicator s = comm->shrink();
        comm.emplace(std::move(s));
      }
    }
    out.shrunk_size[me] = comm->size();
    for (int i = 0; i < comm->size(); ++i) {
      EXPECT_NE(comm->world_rank(i), kVictimA);
      EXPECT_NE(comm->world_rank(i), kVictimB);
    }
    world.free(in);
    world.free(out_buf);
  });

  out.elapsed = rt.elapsed();
  out.stats = rt.rank_stats();
  EXPECT_EQ(rt.faults()->counters().rank_kills, 2u);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Acceptance: kill 2 of 9 mid-iallreduce -> every survivor observes
// PROC_FAILED, revokes, shrinks to 7 ranks, and completes correct sums.
// ---------------------------------------------------------------------------

TEST(RankFailure, KillTwoOfNineShrinkToSevenAndFinish) {
  const FtRun run = run_acceptance();
  std::uint64_t total_adopted = 0;
  for (int r = 0; r < kWorld; ++r) {
    if (r == kVictimA || r == kVictimB) {
      // Victims never reach the recovery bookkeeping.
      EXPECT_EQ(run.shrunk_size[r], -1);
      continue;
    }
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(run.shrunk_size[r], kWorld - 2);
    EXPECT_NE(run.err_code[r], -1);
    // Every survivor adopted at least one death first-hand, with a measured
    // detection latency. (Shrink needs only the *union* of beliefs to cover
    // both victims — a rank may learn of the other death through the agreed
    // mask, which doesn't bump its own adoption counter.)
    EXPECT_GE(run.stats[r].rank_failures_known, 1u);
    EXPECT_LE(run.stats[r].rank_failures_known, 2u);
    EXPECT_GT(run.stats[r].failure_detect_max_ns, 0u);
    EXPECT_GE(run.stats[r].proc_failed_ops, 1u);
    EXPECT_GE(run.stats[r].comms_revoked, 1u);
    total_adopted += run.stats[r].rank_failures_known;
  }
  // Both deaths were detected somewhere (usually by most survivors).
  EXPECT_GE(total_adopted, 2u);
}

// ---------------------------------------------------------------------------
// Acceptance: the whole recovery trajectory is deterministic — same spec,
// same seed, byte-identical metrics on rerun.
// ---------------------------------------------------------------------------

TEST(RankFailure, RecoveryTrajectoryIsDeterministic) {
  const FtRun a = run_acceptance();
  const FtRun b = run_acceptance();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.shrunk_size, b.shrunk_size);
  EXPECT_EQ(a.err_code, b.err_code);
  for (int r = 0; r < kWorld; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(a.stats[r].rank_failures_known, b.stats[r].rank_failures_known);
    EXPECT_EQ(a.stats[r].failure_detect_max_ns,
              b.stats[r].failure_detect_max_ns);
    EXPECT_EQ(a.stats[r].proc_failed_ops, b.stats[r].proc_failed_ops);
    EXPECT_EQ(a.stats[r].comms_revoked, b.stats[r].comms_revoked);
    EXPECT_EQ(a.stats[r].retransmits, b.stats[r].retransmits);
    EXPECT_EQ(a.stats[r].reconnects, b.stats[r].reconnects);
  }
}

// ---------------------------------------------------------------------------
// Mixed completion sets: one request aimed at a killed rank fails with
// PROC_FAILED; the other requests in the same waitall complete normally and
// stay inspectable.
// ---------------------------------------------------------------------------

TEST(RankFailure, MixedWaitallIsolatesTheFailedRequest) {
  RunConfig cfg;
  cfg.nprocs = 4;
  cfg.fault_spec = "rank_kill=3,rank_kill_at_ns=100000";
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer b1 = comm.alloc(512);
    mem::Buffer b2 = comm.alloc(512);
    mem::Buffer b3 = comm.alloc(512);
    if (ctx.rank == 0) {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(b1, 0, 512, type_byte(), 1, 1));
      reqs.push_back(comm.irecv(b2, 0, 512, type_byte(), 2, 1));
      reqs.push_back(comm.irecv(b3, 0, 512, type_byte(), 3, 1));
      try {
        comm.waitall(std::span<Request>(reqs));
        ADD_FAILURE() << "waitall must report the dead rank";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.errc(), MpiErrc::ProcFailed);
        EXPECT_EQ(e.peer(), 3);
      }
      // Every request reached a terminal phase: the live peers' completed
      // with their payloads...
      EXPECT_TRUE(reqs[0].done());
      EXPECT_FALSE(reqs[0].failed());
      EXPECT_TRUE(reqs[1].done());
      EXPECT_FALSE(reqs[1].failed());
      EXPECT_EQ(b1.data()[0], std::byte{0x11});
      EXPECT_EQ(b2.data()[0], std::byte{0x22});
      // ... and only the one aimed at the corpse failed, with taxonomy.
      EXPECT_TRUE(reqs[2].failed());
      EXPECT_EQ(reqs[2].errc(), MpiErrc::ProcFailed);
      EXPECT_EQ(reqs[2].err_peer(), 3);
    } else if (ctx.rank == 1 || ctx.rank == 2) {
      std::memset(b1.data(), ctx.rank == 1 ? 0x11 : 0x22, 512);
      comm.send(b1, 0, 512, type_byte(), 0, 1);
    } else {
      // Victim: park inside the engine so the scheduled death unwinds it.
      comm.recv(b1, 0, 512, type_byte(), 0, 99);
      ADD_FAILURE() << "rank 3 should have been killed";
    }
    comm.free(b1);
    comm.free(b2);
    comm.free(b3);
  });
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
}

// ---------------------------------------------------------------------------
// recv(ANY_SOURCE) wakeup: a wildcard receive cannot name the rank it
// depends on, so ULFM semantics fail it pessimistically when any group
// member dies — here the only rank that could ever have sent.
// ---------------------------------------------------------------------------

TEST(RankFailure, WildcardRecvWakesWhenOnlyPossibleSenderDies) {
  RunConfig cfg;
  cfg.nprocs = 3;
  cfg.fault_spec = "rank_kill=1,rank_kill_at_ns=100000";
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(256);
    if (ctx.rank == 0) {
      Request r = comm.irecv(buf, 0, 256, type_byte(), kAnySource, 7);
      try {
        comm.wait(r);
        ADD_FAILURE() << "wildcard recv must not block on a dead group";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.errc(), MpiErrc::ProcFailed);
      }
      EXPECT_TRUE(r.failed());
      EXPECT_EQ(r.errc(), MpiErrc::ProcFailed);
    } else if (ctx.rank == 1) {
      // The would-be sender: parked until its scheduled death.
      comm.recv(buf, 0, 256, type_byte(), 0, 99);
      ADD_FAILURE() << "rank 1 should have been killed";
    }
    comm.free(buf);
  });
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
}

// ---------------------------------------------------------------------------
// A live-but-stalled peer is never declared dead: its HCA answers the
// watcher's probes all through a stall longer than the 400 us liveness
// bound, with no grace to tune.
// ---------------------------------------------------------------------------

TEST(RankFailure, LiveStragglerIsNotSuspected) {
  RunConfig cfg;
  cfg.nprocs = 2;
  // Arm liveness without ever firing a fault (the skip window is far
  // beyond any WR this run posts), and squeeze the eager ring to 2 credits
  // so the sender wedges with genuinely pending traffic toward the
  // straggler — delivered-and-acked packets don't count as pending.
  cfg.fault_spec = "qp_fatal=1,qp_fatal_skip=1000000000,credit_slots=2";
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(512);
    if (ctx.rank == 0) {
      // Sender: the eager packets stay unacked while the peer stalls — the
      // "pending traffic" that makes the liveness monitor watch rank 1 at
      // all. The trailing recv keeps rank 0 blocked inside the engine
      // (probing rank 1) for the whole stall window.
      for (int i = 0; i < 3; ++i) {
        std::memset(buf.data(), i, 512);
        comm.send(buf, 0, 512, type_byte(), 1, 3);
      }
      comm.recv(buf, 0, 512, type_byte(), 1, 5);
      EXPECT_EQ(buf.data()[0], std::byte{0x77});
    } else {
      // Straggler: stalls past the 400 us liveness bound before draining,
      // like a compute quantum stretched by OS noise. No progress runs
      // during the stall.
      ctx.proc.wait(sim::microseconds(550));
      for (int i = 0; i < 3; ++i) {
        comm.recv(buf, 0, 512, type_byte(), 0, 3);
      }
      std::memset(buf.data(), 0x77, 512);
      comm.send(buf, 0, 512, type_byte(), 0, 5);
    }
    comm.free(buf);
  });
  const Engine::Stats& watcher = rt.rank_stats()[0];
  EXPECT_GT(watcher.liveness_probes, 0u);  // rank 0 did watch rank 1
  EXPECT_EQ(watcher.liveness_suspicions, 0u);
  EXPECT_EQ(rt.rank_stats()[0].reconnects + rt.rank_stats()[1].reconnects,
            0u);
}

// ---------------------------------------------------------------------------
// survivor_soak scenario: the packaged form of the acceptance run, gated by
// the bench trajectory. Survivor count, detection latency and all metrics
// must be deterministic.
// ---------------------------------------------------------------------------

TEST(RankFailure, SurvivorSoakShrinksAndStaysDeterministic) {
  namespace traffic = mpi::traffic;
  const traffic::Scenario sc =
      traffic::make_scenario("survivor_soak", 9, 1, /*quick=*/true);
  ASSERT_TRUE(sc.ft_shrink);
  const traffic::ScenarioResult a = traffic::run_scenario(sc);
  EXPECT_EQ(a.survivors, 7);
  EXPECT_EQ(a.injected.rank_kills, 2u);
  EXPECT_GT(a.failure_detect_max_ns, 0u);
  // Survivors release everything they owned; dead ranks are excluded.
  EXPECT_EQ(a.leaked_allocations, 0);

  const traffic::ScenarioResult b = traffic::run_scenario(sc);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.failure_detect_max_ns, b.failure_detect_max_ns);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    SCOPED_TRACE(a.phases[i].phase);
    EXPECT_EQ(a.phases[i].msgs_recv, b.phases[i].msgs_recv);
    EXPECT_EQ(a.phases[i].bytes_recv, b.phases[i].bytes_recv);
    EXPECT_EQ(a.phases[i].seconds, b.phases[i].seconds);
    EXPECT_EQ(a.phases[i].p99_us, b.phases[i].p99_us);
  }
}

// ---------------------------------------------------------------------------
// Pairwise exchange under kills plus transport faults. One side of a pair
// spends its reconnect budget and gives the pair up while the other still
// waits on it (a send awaiting DONE): the abandoned-pair board must fail
// that side too, so the run ends in completion or a named error on every
// rank instead of running the liveness timer forever.
// ---------------------------------------------------------------------------

namespace {

struct PairwiseOutcome {
  sim::Time elapsed = -1;
  std::vector<int> rounds;  ///< exchange rounds each rank completed
  std::vector<int> errc;    ///< MpiErrc that ended the rank's exchange, or -1
};

PairwiseOutcome run_pairwise_under_faults() {
  RunConfig cfg;
  cfg.nprocs = 6;
  cfg.fault_spec =
      "rank_kill=3+4,rank_kill_at_ns=200000+250000,qp_fatal=0.1,"
      "qp_fatal_max=6,err_wc=0.1,drop_wc=0.05";
  cfg.fault_seed = 7;
  constexpr std::size_t kSizes[] = {64, 4096, 65536, 200000};
  constexpr int kRounds = 8;
  PairwiseOutcome out;
  out.rounds.assign(cfg.nprocs, 0);
  out.errc.assign(cfg.nprocs, -1);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int partner = ctx.rank ^ 1;
    mem::Buffer sbuf = comm.alloc(200000);
    mem::Buffer rbuf = comm.alloc(200000);
    try {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t bytes : kSizes) {
          std::memset(sbuf.data(), ctx.rank + round, bytes);
          std::vector<Request> reqs;
          reqs.push_back(comm.irecv(rbuf, 0, bytes, type_byte(), partner, 7));
          reqs.push_back(comm.isend(sbuf, 0, bytes, type_byte(), partner, 7));
          comm.waitall(std::span<Request>(reqs));
          EXPECT_EQ(rbuf.data()[bytes - 1],
                    static_cast<std::byte>(partner + round));
        }
        out.rounds[ctx.rank] = round + 1;
      }
    } catch (const MpiError& e) {
      out.errc[ctx.rank] = static_cast<int>(e.errc());
    }
    comm.free(sbuf);
    comm.free(rbuf);
  });
  out.elapsed = rt.elapsed();
  EXPECT_EQ(rt.faults()->counters().rank_kills, 2u);
  return out;
}

}  // namespace

TEST(RankFailure, PairwiseExchangeUnderKillsAndQpFaultsEnds) {
  const PairwiseOutcome a = run_pairwise_under_faults();
  for (int r = 0; r < 6; ++r) {
    if (r == 3 || r == 4) continue;  // killed mid-exchange
    SCOPED_TRACE(r);
    // Every survivor either finished or stopped on a named error.
    EXPECT_TRUE(a.rounds[r] == 8 || a.errc[r] >= 0);
  }
  // The partners of the victims cannot have finished.
  EXPECT_EQ(a.errc[2], static_cast<int>(MpiErrc::ProcFailed));
  EXPECT_EQ(a.errc[5], static_cast<int>(MpiErrc::ProcFailed));
  const PairwiseOutcome b = run_pairwise_under_faults();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.errc, b.errc);
}

// ---------------------------------------------------------------------------
// Transport liveness detection bound: a survivor watching a killed peer (a
// receive only the victim could satisfy) probes it once per period. The
// first probe after the death gets no answer and fails after the transport
// deadline, so the survivor declares the victim between one deadline and
// one period + deadline + one probe round trip after the death, identically
// on rerun.
// ---------------------------------------------------------------------------

namespace {

Engine::Stats watcher_of_killed_peer(sim::Time kill_at) {
  RunConfig cfg;
  cfg.nprocs = 2;
  cfg.fault_spec = "rank_kill=1,rank_kill_at_ns=" + std::to_string(kill_at);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(256);
    if (ctx.rank == 0) {
      try {
        comm.recv(buf, 0, 256, type_byte(), 1, 1);
        ADD_FAILURE() << "the receive must fail with the dead sender";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.errc(), MpiErrc::ProcFailed);
        EXPECT_EQ(e.peer(), 1);
      }
    } else {
      // Victim: park inside the engine so the scheduled death unwinds it.
      comm.recv(buf, 0, 256, type_byte(), 0, 99);
      ADD_FAILURE() << "rank 1 should have been killed";
    }
    comm.free(buf);
  });
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
  return rt.rank_stats()[0];
}

}  // namespace

TEST(RankFailure, WatchedDeadPeerIsDeclaredWithinTheLivenessBound) {
  const sim::Platform p{};
  // One probe round trip between two Phi ranks: the post, the request on
  // the wire, the remote read, the reply on the wire and the local landing.
  const sim::Time wire = p.ib_hops * p.ib_hop_latency;
  const sim::Time probe_rtt = p.phi_post_overhead + p.hca_wqe_overhead +
                              2 * wire + p.hca_read_phi_latency +
                              p.hca_write_phi_latency +
                              sim::microseconds(1);  // 16 B on three links
  const sim::Time lo = ib::kTransportDeadline;
  const sim::Time hi =
      p.mpi_heartbeat_period + ib::kTransportDeadline + probe_rtt;
  // Kill times spread over one heartbeat period, so the death lands at
  // every phase of the watcher's ticks. Setup ends near 300 us, so by then
  // the watch is on and the watcher has been probing.
  for (const sim::Time kill_at : {600000, 612500, 625000, 637500}) {
    SCOPED_TRACE("kill_at_ns=" + std::to_string(kill_at));
    const Engine::Stats a = watcher_of_killed_peer(kill_at);
    EXPECT_GE(static_cast<sim::Time>(a.failure_detect_max_ns), lo);
    EXPECT_LE(static_cast<sim::Time>(a.failure_detect_max_ns), hi);
    EXPECT_GT(a.liveness_probes, 0u);
    const Engine::Stats b = watcher_of_killed_peer(kill_at);
    EXPECT_EQ(a.failure_detect_max_ns, b.failure_detect_max_ns);
    EXPECT_EQ(a.liveness_probes, b.liveness_probes);
  }
}

// A first touch of a rank that died after publishing its half is refused.
// Lazy wiring, 2 ranks: rank 1 first-touches rank 0 (its half goes up with
// the request) and is killed in the wait, because rank 0 sits in a compute.
// Rank 0's own first touch of rank 1 then finds that half on the board but
// must not connect to it: the send fails at once, naming rank 1.
TEST(RankFailure, FirstTouchOfADeadRankThatPublishedFails) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.fault_spec = "rank_kill=1,rank_kill_at_ns=1000000";
  cfg.engine_options.lazy_endpoints = true;
  bool refused = false;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    if (ctx.rank == 1) {
      comm.send(buf, 0, 64, type_byte(), 0, 1);  // killed while it waits
    } else {
      ctx.proc.wait(sim::milliseconds(3));
      try {
        comm.send(buf, 0, 64, type_byte(), 1, 1);
      } catch (const MpiError& e) {
        refused = true;
        EXPECT_EQ(e.errc(), MpiErrc::ProcFailed);
        EXPECT_EQ(e.peer(), 1);
      }
    }
    comm.free(buf);
  });
  EXPECT_TRUE(refused);
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
}

// Alltoall runs as a collective schedule, so a dead member fails it on
// every survivor through the executor's ULFM path. 10 ranks make two
// stages (kAlltoallStepsPerStage steps, then one); rank 3 never joins and
// dies at 100 us while the survivors sit inside the collective.
TEST(RankFailure, AlltoallWithAKilledMemberFailsOnEverySurvivor) {
  constexpr int kRanks = 10;
  constexpr int kVictim = 3;
  constexpr std::size_t kBlock = 512;
  RunConfig cfg;
  cfg.nprocs = kRanks;
  cfg.fault_spec = "rank_kill=3,rank_kill_at_ns=100000";
  std::vector<int> errc(kRanks, -1);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer send = comm.alloc(kRanks * kBlock);
    mem::Buffer recv = comm.alloc(kRanks * kBlock);
    if (ctx.rank == kVictim) {
      comm.recv(recv, 0, kBlock, type_byte(), 0, 99);
      ADD_FAILURE() << "rank 3 should have been killed";
    } else {
      try {
        comm.alltoall(send, 0, kBlock, type_byte(), recv, 0);
        ADD_FAILURE() << "alltoall must report the dead member";
      } catch (const MpiError& e) {
        errc[ctx.rank] = static_cast<int>(e.errc());
      }
    }
    comm.free(send);
    comm.free(recv);
  });
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    EXPECT_EQ(errc[r], static_cast<int>(MpiErrc::ProcFailed)) << "rank " << r;
  }
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
}

// An agreement that can never be decided is a deadlock, not a spin. Host
// MPI, 2 ranks, no faults: rank 0 waits for rank 1's vote, and rank 1 blocks
// in a probe that nothing matches. Both waits sleep until something rings
// them, nothing does, and the simulator's deadlock check names both ranks.
TEST(RankFailure, UndecidableAgreementEndsInDeadlock) {
  RunConfig cfg;
  cfg.mode = MpiMode::HostMpi;
  cfg.nprocs = 2;
  try {
    run_mpi(cfg, [](RankCtx& ctx) {
      if (ctx.rank == 0) {
        (void)ctx.world.agree(1);
      } else {
        (void)ctx.world.probe(0, /*tag=*/99);
      }
    });
    FAIL() << "expected sim::DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank1"), std::string::npos) << what;
  }
}
