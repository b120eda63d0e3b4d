// Fatal-fault recovery: a wedged QP (qp_fatal) must be torn down and
// re-established under a bumped connection epoch with every in-flight
// message replayed exactly once; a crashed delegation process
// (delegate_crash) must either be waited out (delegate_restart_ns) or, once
// the death budget is spent, degraded to the host-proxy path. Whatever the
// injected pattern, a run ends in delivery or a recorded failover — never a
// hang, never a lost or duplicated message — and the whole thing stays
// deterministic under (spec, seed).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ib/hca.hpp"
#include "mpi/runtime.hpp"
#include "mpi/traffic.hpp"
#include "sim/fault.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

constexpr std::size_t kEagerBytes = 512;
constexpr int kIters = 48;

RunConfig fatal_cfg(const std::string& spec) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.fault_spec = spec;
  cfg.fault_seed = 42;
  cfg.platform.mpi_retry_timeout = sim::microseconds(2);
  return cfg;
}

/// Eager pingpong with per-iteration payload checks on both ends: any lost,
/// duplicated or stale-epoch delivery shows up as a byte mismatch or a hang.
void pingpong_body(RankCtx& ctx) {
  auto& comm = ctx.world;
  mem::Buffer buf = comm.alloc(kEagerBytes);
  for (int i = 0; i < kIters; ++i) {
    if (ctx.rank == 0) {
      std::memset(buf.data(), i & 0xff, kEagerBytes);
      comm.send(buf, 0, kEagerBytes, type_byte(), 1, 1);
      comm.recv(buf, 0, kEagerBytes, type_byte(), 1, 1);
      EXPECT_EQ(buf.data()[kEagerBytes - 1],
                static_cast<std::byte>((i + 1) & 0xff));
    } else {
      comm.recv(buf, 0, kEagerBytes, type_byte(), 0, 1);
      EXPECT_EQ(buf.data()[0], static_cast<std::byte>(i & 0xff));
      std::memset(buf.data(), (i + 1) & 0xff, kEagerBytes);
      comm.send(buf, 0, kEagerBytes, type_byte(), 0, 1);
    }
  }
  comm.free(buf);
}

void expect_invalid_spec(const std::string& spec,
                         const std::string& expect_substr) {
  try {
    (void)sim::FaultInjector::Spec::parse(spec);
    FAIL() << "spec '" << spec << "' parsed but should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expect_substr), std::string::npos)
        << "spec '" << spec << "' error message was: " << e.what();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Satellite: parse errors must name the offending key=value token.
// ---------------------------------------------------------------------------

TEST(FatalFaultSpec, ParseErrorsNameTheOffendingToken) {
  expect_invalid_spec("qp_fatal=2", "bad token 'qp_fatal=2'");
  expect_invalid_spec("qp_fatal=2", "probability in [0,1]");
  expect_invalid_spec("drop_wc=0.1,delegate_restart_ns=soon",
                      "bad token 'delegate_restart_ns=soon'");
  expect_invalid_spec("delegate_restart_ns=soon", "non-negative integer");
  expect_invalid_spec("qp_fatal", "bad token 'qp_fatal'");
  expect_invalid_spec("qp_fatal", "expected key=value");
  expect_invalid_spec("qp_fattal=0.5", "unknown key 'qp_fattal'");
  expect_invalid_spec("cmd_fail=1,cmd_op=bogus", "bad token 'cmd_op=bogus'");
  expect_invalid_spec("cmd_op=bogus", "any|reg_mr|offload|create");
}

TEST(FatalFaultSpec, FatalKeysParseAndArm) {
  auto spec = sim::FaultInjector::Spec::parse(
      "qp_fatal=0.25,qp_fatal_max=2,qp_fatal_skip=1,"
      "delegate_crash=1,delegate_crash_max=1,delegate_restart_ns=40000");
  EXPECT_DOUBLE_EQ(spec.qp_fatal, 0.25);
  EXPECT_EQ(spec.qp_fatal_max, 2u);
  EXPECT_EQ(spec.qp_fatal_skip, 1u);
  EXPECT_DOUBLE_EQ(spec.delegate_crash, 1.0);
  EXPECT_EQ(spec.delegate_crash_max, 1u);
  EXPECT_EQ(spec.delegate_restart_ns, sim::Time(40000));
  EXPECT_TRUE(spec.fatal_armed());
  EXPECT_TRUE(spec.armed());

  auto quiet = sim::FaultInjector::Spec::parse("drop_wc=0.1");
  EXPECT_TRUE(quiet.armed());
  EXPECT_FALSE(quiet.fatal_armed());
}

TEST(FatalFaultSpec, RankKillParsesAndSchedulesDeaths) {
  auto spec = sim::FaultInjector::Spec::parse(
      "rank_kill=2+5,rank_kill_at_ns=80000+120000");
  ASSERT_EQ(spec.rank_kill.size(), 2u);
  EXPECT_EQ(spec.rank_kill[0], 2);
  EXPECT_EQ(spec.rank_kill[1], 5);
  EXPECT_EQ(spec.kill_time_of(2), sim::Time(80000));
  EXPECT_EQ(spec.kill_time_of(5), sim::Time(120000));
  EXPECT_EQ(spec.kill_time_of(0), sim::Time(-1));  // not a victim
  EXPECT_TRUE(spec.fatal_armed());
  EXPECT_TRUE(spec.armed());

  // A single death time broadcasts to every victim.
  auto one = sim::FaultInjector::Spec::parse(
      "rank_kill=1+3,rank_kill_at_ns=50000");
  EXPECT_EQ(one.kill_time_of(1), sim::Time(50000));
  EXPECT_EQ(one.kill_time_of(3), sim::Time(50000));

  // No death time at all means die at setup.
  auto at_setup = sim::FaultInjector::Spec::parse("rank_kill=4");
  EXPECT_EQ(at_setup.kill_time_of(4), sim::Time(0));
  EXPECT_TRUE(at_setup.fatal_armed());
}

// ---------------------------------------------------------------------------
// Tentpole: QP wedged in error state -> epoch-bumped reconnect, pending
// messages replayed, everything delivered exactly once.
// ---------------------------------------------------------------------------

TEST(FatalFaults, QpFatalReconnectsAndDeliversExactlyOnce) {
  Runtime rt(fatal_cfg("qp_fatal=1,qp_fatal_skip=6,qp_fatal_max=1"));
  rt.run(pingpong_body);

  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  // Exactly one faultable WR wedged its QP...
  EXPECT_EQ(rt.faults()->counters().qp_fatal, 1u);
  // ... and at least the victim endpoint re-established its connection.
  EXPECT_GE(s0.reconnects + s1.reconnects, 1u);
  // The payload checks inside the body prove exactly-once delivery; the
  // counters prove nobody gave up or degraded.
  EXPECT_EQ(s0.retry_exhausted, 0u);
  EXPECT_EQ(s1.retry_exhausted, 0u);
  EXPECT_EQ(s0.proxy_failovers, 0u);
  EXPECT_EQ(s1.proxy_failovers, 0u);
}

TEST(FatalFaults, QpFatalReconnectsAHostMpiEndpoint) {
  // The same wedge on a host pair: the HostMpi endpoint tears its QP down
  // and rebuilds it through the host verbs, and its rebuilt ring runs the
  // same credit rule as a DcfaPhi one.
  RunConfig cfg = fatal_cfg("qp_fatal=1,qp_fatal_skip=6,qp_fatal_max=1");
  cfg.mode = MpiMode::HostMpi;
  Runtime rt(cfg);
  rt.run(pingpong_body);

  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  EXPECT_EQ(rt.faults()->counters().qp_fatal, 1u);
  EXPECT_GE(s0.reconnects + s1.reconnects, 1u);
  EXPECT_EQ(s0.retry_exhausted, 0u);
  EXPECT_EQ(s1.retry_exhausted, 0u);
}

TEST(FatalFaults, OpsPostedOverAnAbandonedPairFailAtOnce) {
  // With no reconnect budget, the first wedged QP gives the pair up on both
  // sides. A send or receive posted over it afterwards can never complete:
  // it must be born failed with RETRY_EXHAUSTED instead of waiting forever.
  RunConfig cfg = fatal_cfg("qp_fatal=1,qp_fatal_skip=6,qp_fatal_max=1");
  cfg.platform.mpi_max_reconnects = 0;
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int partner = ctx.rank ^ 1;
    mem::Buffer rbuf = comm.alloc(kEagerBytes);
    mem::Buffer sbuf = comm.alloc(kEagerBytes);
    bool abandoned = false;
    for (int i = 0; i < kIters && !abandoned; ++i) {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(rbuf, 0, kEagerBytes, type_byte(), partner, 1));
      reqs.push_back(comm.isend(sbuf, 0, kEagerBytes, type_byte(), partner, 1));
      try {
        comm.waitall(reqs);
      } catch (const MpiError& e) {
        EXPECT_EQ(e.errc(), MpiErrc::RetryExhausted);
        abandoned = true;
      }
    }
    ASSERT_TRUE(abandoned);
    Request recv = comm.irecv(rbuf, 0, kEagerBytes, type_byte(), partner, 1);
    Request send = comm.isend(sbuf, 0, kEagerBytes, type_byte(), partner, 1);
    for (const Request* r : {&recv, &send}) {
      EXPECT_TRUE(r->failed());
      EXPECT_EQ(r->errc(), MpiErrc::RetryExhausted);
    }
    comm.free(rbuf);
    comm.free(sbuf);
  });
}

// ---------------------------------------------------------------------------
// MR lifecycle: setup, the reconnect rebuild and finalize register and
// deregister endpoint memory through one helper pair. After a run that
// rebuilt an endpoint (a fresh remote-block MR) and then finalized (the
// remote blocks, the staging-arena chunks and the pulse deregistered),
// every HCA must be back at its pre-run live-MR count: zero, since nothing
// registers before Engine::setup.
// ---------------------------------------------------------------------------

TEST(FatalFaults, ReconnectThenFinalizeReleasesEveryMr) {
  Runtime rt(fatal_cfg("qp_fatal=1,qp_fatal_skip=6,qp_fatal_max=1"));
  std::set<ib::Hca*> hcas;
  rt.run([&](RankCtx& ctx) {
    hcas.insert(&ctx.world.engine().ib().hca_ref());
    pingpong_body(ctx);
  });
  EXPECT_GE(rt.rank_stats()[0].reconnects + rt.rank_stats()[1].reconnects,
            1u);
  ASSERT_EQ(hcas.size(), 2u);
  for (const ib::Hca* hca : hcas) {
    EXPECT_GT(hca->mrs_registered_total(), 0u);
    EXPECT_EQ(hca->mrs_live(), 0u);
  }
}

// ---------------------------------------------------------------------------
// A delegate crash on each memory registration of a Phi cluster's wiring.
// cmd_op=reg_mr counts registrations only, so the skip walks the crash
// through every one of them in turn: the liveness pulses, the remote blocks
// and the staging-arena chunks (two per rank at four ranks). Eager wiring
// registers them all in setup, lazy wiring in the body's first exchange.
// The delegate either comes back (restart) or stays dead (proxy failover).
// Every point must deliver every payload or stop with a named MpiError, and
// a point that finishes must leave no registration and no allocation behind:
// a chunk recorded without its MR, or registered but never recorded, would
// show up here.
// ---------------------------------------------------------------------------

TEST(FatalFaults, DelegateCrashOnAWiringRegistrationEndsCleanOrNamed) {
  constexpr int kRanks = 4;
  // Per rank: the pulse, three remote blocks and two arena chunks; the
  // sweep runs a little past them into the body's user-buffer misses.
  constexpr int kSetupRegs = kRanks * 6;
  constexpr std::size_t kBytes = 256;
  int finished = 0;
  std::uint64_t failovers = 0;
  for (bool lazy : {false, true}) {
    for (const char* restart : {"delegate_restart_ns=50000,", ""}) {
      for (int skip = 0; skip < kSetupRegs + 4; ++skip) {
        const std::string spec =
            std::string("delegate_crash=1,cmd_op=reg_mr,") + restart +
            "delegate_crash_max=1,delegate_crash_skip=" +
            std::to_string(skip);
        SCOPED_TRACE((lazy ? "lazy " : "eager ") + spec);
        RunConfig cfg;
        cfg.mode = MpiMode::DcfaPhi;
        cfg.nprocs = kRanks;
        cfg.fault_spec = spec;
        cfg.engine_options.lazy_endpoints = lazy;
        Runtime rt(cfg);
        std::set<ib::Hca*> hcas;
        std::set<mem::NodeMemory*> memories;
        try {
          rt.run([&](RankCtx& ctx) {
            hcas.insert(&ctx.world.engine().ib().hca_ref());
            memories.insert(&ctx.memory);
            auto& comm = ctx.world;
            mem::Buffer out = comm.alloc(kBytes);
            mem::Buffer in = comm.alloc(kBytes);
            for (int d = 1; d < kRanks; ++d) {
              const int to = (ctx.rank + d) % kRanks;
              const int from = (ctx.rank + kRanks - d) % kRanks;
              std::memset(out.data(), ctx.rank * kRanks + to, kBytes);
              comm.sendrecv(out, 0, kBytes, type_byte(), to, d, in, 0, kBytes,
                            type_byte(), from, d);
              EXPECT_EQ(in.data()[kBytes - 1],
                        static_cast<std::byte>(from * kRanks + ctx.rank));
            }
            comm.free(out);
            comm.free(in);
          });
        } catch (const MpiError& e) {
          EXPECT_NE(e.errc(), MpiErrc::Other) << e.what();
          continue;
        }
        ++finished;
        EXPECT_EQ(rt.faults()->counters().delegate_crashes, 1u);
        for (const Engine::Stats& st : rt.rank_stats()) {
          failovers += st.proxy_failovers;
        }
        ASSERT_EQ(hcas.size(), std::size_t{kRanks});
        for (const ib::Hca* hca : hcas) EXPECT_EQ(hca->mrs_live(), 0u);
        for (mem::NodeMemory* m : memories) {
          for (mem::Domain d : {mem::Domain::HostDram, mem::Domain::PhiGddr}) {
            EXPECT_EQ(m->space(d).live_allocations(), 0u)
                << mem::domain_name(d);
          }
        }
      }
    }
  }
  EXPECT_GT(finished, 0);
  // Without a restart the crashed rank served its wiring through the proxy.
  EXPECT_GT(failovers, 0u);
}

// ---------------------------------------------------------------------------
// Tentpole: delegate crash with a restart budget -> CMD retries ride out the
// outage; no degradation.
// ---------------------------------------------------------------------------

TEST(FatalFaults, DelegateCrashWithRestartRecoversInPlace) {
  // The delegate dies on its first CMD and restarts 50us later — inside the
  // client's 100us reply timeout, so the first resend already succeeds.
  Runtime rt(fatal_cfg(
      "delegate_crash=1,delegate_crash_max=1,delegate_restart_ns=50000"));
  rt.run(pingpong_body);

  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  EXPECT_EQ(rt.faults()->counters().delegate_crashes, 1u);
  // The outage shows up as CMD timeouts + resends on the crashed rank.
  EXPECT_GE(s0.cmd_timeouts + s1.cmd_timeouts, 1u);
  EXPECT_GE(s0.cmd_retries + s1.cmd_retries, 1u);
  // But the delegate came back, so nobody degraded or exhausted a budget.
  EXPECT_EQ(s0.proxy_failovers, 0u);
  EXPECT_EQ(s1.proxy_failovers, 0u);
  EXPECT_EQ(s0.retry_exhausted, 0u);
  EXPECT_EQ(s1.retry_exhausted, 0u);
}

// ---------------------------------------------------------------------------
// Tentpole: delegate stays dead -> graceful degradation to the proxy path,
// recorded in Stats, and the run still completes correctly.
// ---------------------------------------------------------------------------

TEST(FatalFaults, DeadDelegateFailsOverToProxyPath) {
  // delegate_restart_ns defaults to 0: the delegate never comes back. The
  // victim rank burns its death budget on full CMD retry cycles, then serves
  // resource verbs through the host proxy daemon for the rest of the run.
  Runtime rt(fatal_cfg("delegate_crash=1,delegate_crash_max=1"));
  rt.run(pingpong_body);

  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  EXPECT_EQ(rt.faults()->counters().delegate_crashes, 1u);
  // Exactly one rank lost its delegate and recorded the downgrade.
  EXPECT_EQ(s0.proxy_failovers + s1.proxy_failovers, 1u);
  // The payload checks in the body passed, so the degraded endpoint kept
  // delivering; nothing was abandoned.
  EXPECT_EQ(s0.retry_exhausted, 0u);
  EXPECT_EQ(s1.retry_exhausted, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: deterministic fatal-fault matrix. Same (spec, seed) ->
// identical reconnect/failover counts, identical virtual time, and a
// byte-identical trace.
// ---------------------------------------------------------------------------

namespace {

struct FatalRun {
  Engine::Stats s0, s1;
  sim::FaultInjector::Counters injected;
  sim::Time elapsed = 0;
  std::string trace;
};

FatalRun run_fatal(const std::string& spec, const std::string& trace_path) {
  std::remove(trace_path.c_str());
  FatalRun out;
  RunConfig cfg = fatal_cfg(spec);
  cfg.trace_path = trace_path;
  Runtime rt(cfg);
  rt.run(pingpong_body);
  out.s0 = rt.rank_stats()[0];
  out.s1 = rt.rank_stats()[1];
  out.injected = rt.faults()->counters();
  out.elapsed = rt.elapsed();
  std::ifstream in(trace_path);
  EXPECT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  out.trace = ss.str();
  return out;
}

}  // namespace

TEST(FatalFaults, SameSeedReproducesReconnectsAndTrace) {
  const std::vector<std::string> matrix = {
      // Probabilistic QP wedges (bounded so the reconnect budget holds).
      "qp_fatal=0.2,qp_fatal_max=2",
      // Delegate crash ridden out by a restart, plus background CQE loss.
      "drop_wc=0.05,delegate_crash=1,delegate_crash_max=1,"
      "delegate_restart_ns=40000",
  };
  for (const auto& spec : matrix) {
    SCOPED_TRACE(spec);
    auto a = run_fatal(spec, "/tmp/dcfa_fatal_det_a.json");
    auto b = run_fatal(spec, "/tmp/dcfa_fatal_det_b.json");

    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.injected.qp_fatal, b.injected.qp_fatal);
    EXPECT_EQ(a.injected.delegate_crashes, b.injected.delegate_crashes);
    EXPECT_EQ(a.injected.wc_dropped, b.injected.wc_dropped);
    EXPECT_EQ(a.s0.reconnects, b.s0.reconnects);
    EXPECT_EQ(a.s1.reconnects, b.s1.reconnects);
    EXPECT_EQ(a.s0.proxy_failovers, b.s0.proxy_failovers);
    EXPECT_EQ(a.s1.proxy_failovers, b.s1.proxy_failovers);
    EXPECT_EQ(a.s0.epoch_fenced, b.s0.epoch_fenced);
    EXPECT_EQ(a.s1.epoch_fenced, b.s1.epoch_fenced);
    EXPECT_EQ(a.s0.retransmits, b.s0.retransmits);
    EXPECT_EQ(a.s1.retransmits, b.s1.retransmits);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);
    // The recovery counters surface as Perfetto counter tracks.
    EXPECT_NE(a.trace.find("reconnects"), std::string::npos);
    EXPECT_NE(a.trace.find("proxy_failovers"), std::string::npos);
  }
  // The matrix actually exercised both fatal hazards.
  auto wedge = run_fatal(matrix[0], "/tmp/dcfa_fatal_det_c.json");
  EXPECT_GE(wedge.injected.qp_fatal, 1u);
  EXPECT_GE(wedge.s0.reconnects + wedge.s1.reconnects, 1u);
  EXPECT_NE(wedge.trace.find("reconnect-start"), std::string::npos);
  EXPECT_NE(wedge.trace.find("reconnect-done"), std::string::npos);
  EXPECT_NE(wedge.trace.find("fault:qp-fatal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite: recovery x MPI_ANY_SOURCE sequence locking x in-flight
// rendezvous. A wildcard recv matched before the wedge completes exactly
// once after the reconnect, wherever the fatal lands in the RTS / RTR /
// data / DONE exchange.
// ---------------------------------------------------------------------------

TEST(FatalFaults, AnySourceRendezvousSurvivesReconnect) {
  constexpr std::size_t kRndvBytes = 32 * 1024;  // > eager_threshold
  std::uint64_t total_reconnects = 0;

  // Sweep the single injected wedge across the protocol exchange: each skip
  // value moves the fatal onto a different faultable WR (warmup packets,
  // RTS, RTR, the rendezvous data op, DONE, post-recovery traffic).
  for (std::uint64_t skip = 0; skip <= 8; skip += 2) {
    SCOPED_TRACE("qp_fatal_skip=" + std::to_string(skip));
    Runtime rt(fatal_cfg("qp_fatal=1,qp_fatal_max=1,qp_fatal_skip=" +
                         std::to_string(skip)));
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer small = comm.alloc(kEagerBytes);
      mem::Buffer big = comm.alloc(kRndvBytes);
      if (ctx.rank == 0) {
        // Warmup eager traffic so early skips land before the rendezvous.
        std::memset(small.data(), 0x5a, kEagerBytes);
        comm.send(small, 0, kEagerBytes, type_byte(), 1, 7);
        for (std::size_t i = 0; i < kRndvBytes; ++i)
          big.data()[i] = static_cast<std::byte>(i & 0xff);
        comm.send(big, 0, kRndvBytes, type_byte(), 1, 9);
        // Post-recovery traffic proves the channel still works.
        comm.recv(small, 0, kEagerBytes, type_byte(), 1, 11);
        EXPECT_EQ(small.data()[0], static_cast<std::byte>(0xa5));
      } else {
        // The wildcard recv for the rendezvous is posted before the warmup
        // completes, so it is matched (and the ANY_SOURCE sequence lock
        // taken) before any reconnect the sweep triggers.
        Request rndv = comm.irecv(big, 0, kRndvBytes, type_byte(),
                                  kAnySource, 9);
        comm.recv(small, 0, kEagerBytes, type_byte(), kAnySource, 7);
        EXPECT_EQ(small.data()[0], static_cast<std::byte>(0x5a));
        Status st = comm.wait(rndv);
        EXPECT_EQ(st.source, 0);
        for (std::size_t i = 0; i < kRndvBytes; i += 1031)
          EXPECT_EQ(big.data()[i], static_cast<std::byte>(i & 0xff));
        std::memset(small.data(), 0xa5, kEagerBytes);
        comm.send(small, 0, kEagerBytes, type_byte(), 0, 11);
      }
      comm.free(small);
      comm.free(big);
    });
    const auto& s0 = rt.rank_stats()[0];
    const auto& s1 = rt.rank_stats()[1];
    EXPECT_EQ(s0.retry_exhausted, 0u);
    EXPECT_EQ(s1.retry_exhausted, 0u);
    EXPECT_EQ(s0.proxy_failovers, 0u);
    EXPECT_EQ(s1.proxy_failovers, 0u);
    total_reconnects += s0.reconnects + s1.reconnects;
  }
  // At least one sweep point actually hit the exchange and reconnected.
  EXPECT_GE(total_reconnects, 1u);
}

// ---------------------------------------------------------------------------
// A reconnect replays every RTS the sender cannot prove consumed. When the
// receiver already consumed it and its RDMA read is still in flight (the
// receive stays posted in ReadingData until the read lands), the replay is
// a duplicate: admitting it again would start a second read and a second
// DONE, which DcfaCheck reports as "accept seq N admitted twice". The wedge
// sweep lands the fatal on every faultable WR of three Sender-First
// rounds; several points hit that window.
// ---------------------------------------------------------------------------

TEST(FatalFaults, ReplayedRtsDuringReadIsDroppedNotReadmitted) {
  constexpr std::size_t kRndvBytes = 32 * 1024;  // > eager_threshold
  constexpr int kRounds = 3;
  std::uint64_t total_dups = 0;
  for (std::uint64_t skip = 0; skip <= 24; ++skip) {
    SCOPED_TRACE("qp_fatal_skip=" + std::to_string(skip));
    Runtime rt(fatal_cfg("qp_fatal=1,qp_fatal_max=1,qp_fatal_skip=" +
                         std::to_string(skip)));
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer small = comm.alloc(kEagerBytes);
      mem::Buffer big = comm.alloc(kRndvBytes);
      for (int round = 0; round < kRounds; ++round) {
        const auto fill = static_cast<std::byte>(0x30 + round);
        if (ctx.rank == 0) {
          comm.send(small, 0, kEagerBytes, type_byte(), 1, 7);
          std::memset(big.data(), static_cast<int>(fill), kRndvBytes);
          comm.send(big, 0, kRndvBytes, type_byte(), 1, 9);
          comm.recv(small, 0, kEagerBytes, type_byte(), 1, 11);
        } else {
          // Posted before the RTS can arrive: Sender-First, read in place.
          Request rndv = comm.irecv(big, 0, kRndvBytes, type_byte(), 0, 9);
          comm.recv(small, 0, kEagerBytes, type_byte(), 0, 7);
          const Status st = comm.wait(rndv);
          EXPECT_EQ(st.bytes, kRndvBytes);
          EXPECT_EQ(big.data()[0], fill);
          EXPECT_EQ(big.data()[kRndvBytes - 1], fill);
          comm.send(small, 0, kEagerBytes, type_byte(), 0, 11);
        }
      }
      comm.free(small);
      comm.free(big);
    });
    const auto& s0 = rt.rank_stats()[0];
    const auto& s1 = rt.rank_stats()[1];
    EXPECT_EQ(s0.retry_exhausted + s1.retry_exhausted, 0u);
    EXPECT_GE(s0.reconnects + s1.reconnects, 1u);
    total_dups += s1.dup_packets_dropped;
  }
  // Some sweep point replayed a packet the receiver had already admitted.
  EXPECT_GE(total_dups, 1u);
}

// ---------------------------------------------------------------------------
// The delegate crash of faulty_soak's fault spec, moved from endpoint wiring
// (about 1,000 delegated CMDs on this cluster, about 63 per rank) into the
// traffic. On a 16-rank, one-rank-per-node DcfaPhi cluster running a mixed
// p2p and iallreduce load, the outage stalls the crashed rank's
// registrations while a dozen QP wedges (the added qp_fatal term) force
// reconnects across the cluster, so replays land mid-rendezvous: with
// handle_rts's ReadingData drop removed, six of the eight points trip the
// checker's "admitted twice". Every sweep point must either deliver every
// payload exactly once (run_scenario checks each one and the per-phase
// send/receive counts must match) or stop with a named MpiError; a checker
// violation fails the test.
// Which points reach a given recovery window shifts with any timing change;
// ReplayedRtsDuringReadIsDroppedNotReadmitted pins the replayed-RTS window
// deterministically.
// ---------------------------------------------------------------------------

TEST(FatalFaults, DelegateCrashInTrafficEndsCleanOrNamed) {
  namespace tg = traffic;
  tg::Scenario sc;
  sc.name = "crash_sweep";
  sc.nprocs = 16;
  sc.seed = 4;
  sc.fault_seed = 31677;
  const std::string soak =
      tg::make_scenario("faulty_soak", sc.nprocs, sc.seed, false).fault_spec;
  const std::string wiring_skip = "delegate_crash_skip=25,";
  const std::size_t at = soak.find(wiring_skip);
  ASSERT_NE(at, std::string::npos) << soak;
  constexpr int kSteps = 12;
  sc.phases.push_back({.name = "p2p",
                       .kind = tg::PhaseKind::P2P,
                       .sizes = tg::SizeDist::lognormal(4096, 1.5, 16, 1 << 20),
                       .rounds = kSteps,
                       .msgs_per_rank = 2});
  sc.phases.push_back({.name = "churn",
                       .kind = tg::PhaseKind::P2P,
                       .sizes = tg::SizeDist::uniform(8 << 10, 64 << 10),
                       .rounds = kSteps});
  sc.phases.push_back(
      {.name = "iallreduce",
       .kind = tg::PhaseKind::Allreduce,
       .sizes = tg::SizeDist::lognormal(16 << 10, 1.2, 1 << 10, 256 << 10),
       .rounds = kSteps,
       .burst = 3});
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.platform.nodes = sc.nprocs;
  const std::uint64_t reference = tg::schedule_digest(tg::build_schedule(sc));

  std::uint64_t reconnects = 0;
  for (int skip : {1900, 2100, 2200, 2300, 2400, 2500, 2600, 3000}) {
    SCOPED_TRACE("delegate_crash_skip=" + std::to_string(skip));
    tg::Scenario run = sc;
    run.fault_spec = soak;
    run.fault_spec.replace(at, wiring_skip.size(),
                           "delegate_crash_skip=" + std::to_string(skip) + ",");
    run.fault_spec += ",qp_fatal=0.002,qp_fatal_max=12";
    try {
      const tg::ScenarioResult res = tg::run_scenario(run, cfg);
      EXPECT_EQ(res.injected.delegate_crashes, 1u);
      EXPECT_EQ(res.digest, reference);
      for (const tg::PhaseMetrics& m : res.phases) {
        EXPECT_EQ(m.msgs_sent, m.msgs_recv) << m.phase;
        EXPECT_EQ(m.bytes_sent, m.bytes_recv) << m.phase;
      }
      reconnects += res.totals.reconnects;
    } catch (const MpiError& e) {
      // A named failure (retry or reconnect budget spent) is an accepted
      // outcome; it must carry its classification.
      EXPECT_NE(e.errc(), MpiErrc::Other) << e.what();
    }
  }
  // Endpoints did reconnect while carrying traffic.
  EXPECT_GE(reconnects, 1u);
}

// ---------------------------------------------------------------------------
// Satellite: the MpiError thrown on retry exhaustion carries a machine-
// checkable taxonomy — errc, culprit peer — instead of only a prose string.
// ---------------------------------------------------------------------------

TEST(FatalFaults, RetryExhaustionCarriesTaxonomy) {
  // Error every faultable WR: the retry budget burns down with no recovery
  // path, so the engine must give up and blame the peer it was talking to.
  Runtime rt(fatal_cfg("err_wc=1"));
  try {
    rt.run(pingpong_body);
    FAIL() << "an exhausted retry budget must surface as MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.errc(), MpiErrc::RetryExhausted);
    EXPECT_GE(e.peer(), 0);
    EXPECT_LT(e.peer(), 2);
    EXPECT_NE(std::string(e.what()).find("RETRY_EXHAUSTED"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// A reconnect request waits for the pair's first connection. Eager setup,
// 4 ranks. Two dropped registration CMDs hold rank 0 up after it published
// its half for rank 1 but before its half for rank 3, so rank 1 leaves setup
// while rank 3 still waits on rank 0 with its endpoint to rank 1 not yet
// connected. Rank 1's first send, to rank 3, is the run's first WR and
// wedges the QP, and rank 3 is asked to reconnect in that wait. Served
// there, the rebuild would be undone by the epoch-0 connect that follows
// (QP and peer block pointed back at rank 1's destroyed generation), and
// the pair would need a second reconnect to talk again.
// ---------------------------------------------------------------------------

TEST(FatalFaults, ReconnectRequestedDuringSetupWaitsForTheFirstConnect) {
  RunConfig cfg = fatal_cfg(
      "qp_fatal=1,qp_fatal_max=1,"
      "cmd_drop=1,cmd_op=reg_mr,cmd_drop_skip=3,cmd_drop_max=2");
  cfg.nprocs = 4;
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int last = ctx.nprocs - 1;
    mem::Buffer buf = comm.alloc(kEagerBytes);
    for (int i = 0; i < kIters && (ctx.rank == 1 || ctx.rank == last); ++i) {
      if (ctx.rank == 1) {
        std::memset(buf.data(), i & 0xff, kEagerBytes);
        comm.send(buf, 0, kEagerBytes, type_byte(), last, 1);
        comm.recv(buf, 0, kEagerBytes, type_byte(), last, 1);
        EXPECT_EQ(buf.data()[kEagerBytes - 1],
                  static_cast<std::byte>((i + 1) & 0xff));
      } else {
        comm.recv(buf, 0, kEagerBytes, type_byte(), 1, 1);
        EXPECT_EQ(buf.data()[0], static_cast<std::byte>(i & 0xff));
        std::memset(buf.data(), (i + 1) & 0xff, kEagerBytes);
        comm.send(buf, 0, kEagerBytes, type_byte(), 1, 1);
      }
    }
    comm.free(buf);
  });
  EXPECT_EQ(rt.faults()->counters().cmd_dropped, 2u);
  EXPECT_EQ(rt.faults()->counters().qp_fatal, 1u);
  // One rebuild on each side of the wedged pair, none anywhere else.
  for (int r = 0; r < cfg.nprocs; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Engine::Stats& s = rt.rank_stats()[r];
    EXPECT_EQ(s.reconnects, (r == 1 || r == cfg.nprocs - 1) ? 1u : 0u);
    EXPECT_EQ(s.retry_exhausted, 0u);
  }
}

// ---------------------------------------------------------------------------
// A rank blocked on a peer is alive, and its pulse says so. Lazy wiring, 3
// ranks, a fatal spec that never fires: rank 1 first-touches rank 2 while
// rank 2 sits in a compute five liveness timeouts long, so rank 1 waits in
// the connection handshake all that time. Meanwhile rank 0 has filled its
// ring to rank 1 (pending_tx), so it watches rank 1 and probes its pulse.
// The pulse moves on every pass of the wait: no suspicion, no reconnect.
// ---------------------------------------------------------------------------

TEST(FatalFaults, RankWaitingOnAPeerIsNotSuspected) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 3;
  cfg.fault_spec = "qp_fatal=1,qp_fatal_skip=1000000000";
  cfg.engine_options.lazy_endpoints = true;
  const sim::Time compute = 5 * cfg.platform.mpi_liveness_timeout;
  const int msgs = 4 * cfg.platform.eager_slots;
  constexpr std::size_t kBytes = 8;
  sim::Time waited = 0;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(msgs * kBytes);
    if (ctx.rank == 0) {
      std::vector<Request> reqs;
      for (int i = 0; i < msgs; ++i) {
        reqs.push_back(comm.isend(buf, i * kBytes, kBytes, type_byte(), 1, 1));
      }
      comm.waitall(reqs);
    } else if (ctx.rank == 1) {
      comm.recv(buf, 0, kBytes, type_byte(), 0, 1);  // wires the 0-1 pair
      const sim::Time t0 = ctx.proc.now();
      comm.send(buf, 0, kBytes, type_byte(), 2, 2);  // first touch of rank 2
      waited = ctx.proc.now() - t0;
      for (int i = 1; i < msgs; ++i) {
        comm.recv(buf, i * kBytes, kBytes, type_byte(), 0, 1);
      }
    } else {
      ctx.proc.wait(compute);
      comm.recv(buf, 0, kBytes, type_byte(), 1, 2);
    }
    comm.free(buf);
  });
  EXPECT_GT(waited, 2 * cfg.platform.mpi_liveness_timeout);
  std::uint64_t probes = 0, suspicions = 0, reconnects = 0;
  for (const Engine::Stats& s : rt.rank_stats()) {
    probes += s.liveness_probes;
    suspicions += s.liveness_suspicions;
    reconnects += s.reconnects;
  }
  EXPECT_GT(probes, 0u);  // rank 0 did watch rank 1
  EXPECT_EQ(suspicions, 0u);
  EXPECT_EQ(reconnects, 0u);
}

// ---------------------------------------------------------------------------
// Pull liveness costs nothing while every watched peer talks: a 16-rank
// ping-pong with a never-firing fatal spec posts no probe, and its 4-byte
// round trip is bit-identical to the same run armed with a transient-only
// spec (no pulse, no probe cells, no tick timer).
// ---------------------------------------------------------------------------

namespace {

struct PingPongTiming {
  sim::Time rtt = 0;
  std::uint64_t probes = 0;
  bool explore = false;  ///< ran under a DCFA_SIM_SCHED=explore schedule
};

PingPongTiming tiny_pingpong_16(const std::string& spec) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 16;
  cfg.fault_spec = spec;
  constexpr int kRounds = 64;
  PingPongTiming out;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    comm.barrier();
    if (ctx.rank < 2) {
      const int peer = 1 - ctx.rank;
      const sim::Time t0 = ctx.proc.now();
      for (int i = 0; i < kRounds; ++i) {
        if (ctx.rank == 0) {
          comm.send(buf, 0, 4, type_byte(), peer, 1);
          comm.recv(buf, 0, 4, type_byte(), peer, 1);
        } else {
          comm.recv(buf, 0, 4, type_byte(), peer, 1);
          comm.send(buf, 0, 4, type_byte(), peer, 1);
        }
      }
      if (ctx.rank == 0) out.rtt = (ctx.proc.now() - t0) / kRounds;
    }
    comm.barrier();
    comm.free(buf);
  });
  for (const Engine::Stats& s : rt.rank_stats()) {
    out.probes += s.liveness_probes;
  }
  out.explore = rt.sim().sched_config().explore();
  return out;
}

}  // namespace

TEST(FatalFaults, ArmedLivenessCostsATalkingPingPongNothing) {
  const PingPongTiming fatal =
      tiny_pingpong_16("delegate_crash=1,delegate_crash_skip=1000000000");
  const PingPongTiming transient =
      tiny_pingpong_16("err_wc=1,err_wc_skip=1000000000");
  EXPECT_EQ(fatal.probes, 0u);
  EXPECT_EQ(transient.probes, 0u);
  EXPECT_GT(transient.rtt, 0);
  if (transient.explore) {
    // An explored schedule permutes same-instant events, and the two specs
    // schedule different event sets, so only the FIFO order is comparable
    // to the nanosecond.
    EXPECT_NEAR(fatal.rtt, transient.rtt, transient.rtt / 100);
  } else {
    EXPECT_EQ(fatal.rtt, transient.rtt);
  }
}
