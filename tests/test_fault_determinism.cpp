// Determinism of fault-injected runs: the injector draws from its own
// seeded RNG and the simulation executes events in a fixed order, so the
// same spec + seed + program must reproduce the exact same fault pattern —
// identical recovery counters, identical virtual time, and a byte-identical
// trace file. This is what makes a fault run a replayable artifact instead
// of a flaky one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "mpi/runtime.hpp"
#include "sim/fault.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

constexpr std::size_t kBytes = 512;
constexpr int kIters = 64;

/// The acceptance workload: a 64-iteration eager pingpong under 10% CQE
/// loss, seed 42, with a retry timer short enough that lost completions are
/// recovered by retransmission rather than by waiting out the credit.
RunConfig pingpong_cfg(const std::string& trace_path) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.fault_spec = "drop_wc=0.1";
  cfg.fault_seed = 42;
  cfg.platform.mpi_retry_timeout = sim::microseconds(2);
  cfg.trace_path = trace_path;
  return cfg;
}

struct RunResult {
  Engine::Stats s0, s1;
  sim::FaultInjector::Counters injected;
  sim::Time elapsed = 0;
  std::string trace;
};

RunResult run_pingpong(const std::string& trace_path) {
  std::remove(trace_path.c_str());
  RunResult out;
  Runtime rt(pingpong_cfg(trace_path));
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kBytes);
    for (int i = 0; i < kIters; ++i) {
      if (ctx.rank == 0) {
        std::memset(buf.data(), i & 0xff, kBytes);
        comm.send(buf, 0, kBytes, type_byte(), 1, 1);
        comm.recv(buf, 0, kBytes, type_byte(), 1, 1);
        EXPECT_EQ(buf.data()[kBytes - 1],
                  static_cast<std::byte>((i + 1) & 0xff));
      } else {
        comm.recv(buf, 0, kBytes, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[0], static_cast<std::byte>(i & 0xff));
        std::memset(buf.data(), (i + 1) & 0xff, kBytes);
        comm.send(buf, 0, kBytes, type_byte(), 0, 1);
      }
    }
    comm.free(buf);
  });
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

void expect_stats_equal(const Engine::Stats& a, const Engine::Stats& b) {
  EXPECT_EQ(a.eager_sends, b.eager_sends);
  EXPECT_EQ(a.rndv_sends, b.rndv_sends);
  EXPECT_EQ(a.packets_rx, b.packets_rx);
  EXPECT_EQ(a.credits_sent, b.credits_sent);
  EXPECT_EQ(a.tx_stalls, b.tx_stalls);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.wc_errors, b.wc_errors);
  EXPECT_EQ(a.wc_timeouts, b.wc_timeouts);
  EXPECT_EQ(a.credit_acked, b.credit_acked);
  EXPECT_EQ(a.dup_packets_dropped, b.dup_packets_dropped);
  EXPECT_EQ(a.data_op_retries, b.data_op_retries);
  EXPECT_EQ(a.retry_exhausted, b.retry_exhausted);
  EXPECT_EQ(a.offload_fallbacks, b.offload_fallbacks);
  EXPECT_EQ(a.cmd_retries, b.cmd_retries);
  EXPECT_EQ(a.cmd_timeouts, b.cmd_timeouts);
}

}  // namespace

TEST(FaultDeterminism, SameSeedReproducesCountersTimeAndTrace) {
  auto a = run_pingpong("/tmp/dcfa_fault_det_a.json");
  auto b = run_pingpong("/tmp/dcfa_fault_det_b.json");

  // The workload actually exercised recovery: some completions were lost
  // and repaired (acceptance scenario of the fault-injection layer).
  EXPECT_GT(a.injected.wc_dropped, 0u);
  EXPECT_GT(a.s0.retransmits + a.s0.credit_acked, 0u);
  EXPECT_EQ(a.s0.retry_exhausted, 0u);
  EXPECT_EQ(a.s1.retry_exhausted, 0u);

  // Byte-for-byte reproducibility across the two runs.
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.injected.wc_dropped, b.injected.wc_dropped);
  EXPECT_EQ(a.injected.wc_errored, b.injected.wc_errored);
  EXPECT_EQ(a.injected.dma_delayed, b.injected.dma_delayed);
  EXPECT_EQ(a.injected.cmd_failed, b.injected.cmd_failed);
  EXPECT_EQ(a.injected.cmd_dropped, b.injected.cmd_dropped);
  expect_stats_equal(a.s0, b.s0);
  expect_stats_equal(a.s1, b.s1);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  // The trace records the fault counters as Perfetto counter tracks.
  EXPECT_NE(a.trace.find(".faults"), std::string::npos);
  EXPECT_NE(a.trace.find("retransmits"), std::string::npos);
}

TEST(FaultDeterminism, DifferentSeedStillRecoversCorrectly) {
  // A different seed shifts which completions get dropped; whatever the
  // pattern, recovery must still deliver every byte exactly once.
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.fault_spec = "drop_wc=0.1";
  cfg.fault_seed = 7;
  cfg.platform.mpi_retry_timeout = sim::microseconds(2);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kBytes);
    for (int i = 0; i < kIters; ++i) {
      if (ctx.rank == 0) {
        std::memset(buf.data(), i & 0xff, kBytes);
        comm.send(buf, 0, kBytes, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kBytes, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[kBytes / 2], static_cast<std::byte>(i & 0xff));
      }
    }
    comm.free(buf);
  });
  EXPECT_EQ(rt.rank_stats()[1].packets_rx,
            static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(rt.rank_stats()[0].retry_exhausted, 0u);
}
