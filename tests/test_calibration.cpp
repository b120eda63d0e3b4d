// Calibration tests: the paper's headline numbers, asserted with tolerances
// so the figure-reproducing benches stay honest under refactoring.
// Each test names the paper claim it guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "apps/commonly.hpp"
#include "apps/pingpong.hpp"
#include "apps/stencil.hpp"

using namespace dcfa;
using namespace dcfa::apps;

namespace {
mpi::RunConfig mode_cfg(mpi::MpiMode mode) {
  mpi::RunConfig cfg;
  cfg.mode = mode;
  return cfg;
}
}  // namespace

TEST(Calibration, Fig5_PhiSourcedRdmaOver4xSlower) {
  // "Xeon Phi co-processor to Xeon Phi co-processor InfiniBand data
  // transfer is always slower than host to host, by more than 4 times."
  RawRdmaConfig hh, pp, hp, ph;
  hp.src_domain = mem::Domain::HostDram;
  hp.dst_domain = mem::Domain::PhiGddr;
  ph.src_domain = mem::Domain::PhiGddr;
  ph.dst_domain = mem::Domain::HostDram;
  pp.src_domain = mem::Domain::PhiGddr;
  pp.dst_domain = mem::Domain::PhiGddr;
  const std::size_t mb = 4 << 20;
  const double bw_hh = raw_rdma_pingpong(hh, mb, 5).bandwidth_gbps;
  const double bw_hp = raw_rdma_pingpong(hp, mb, 5).bandwidth_gbps;
  const double bw_ph = raw_rdma_pingpong(ph, mb, 5).bandwidth_gbps;
  const double bw_pp = raw_rdma_pingpong(pp, mb, 5).bandwidth_gbps;
  EXPECT_GT(bw_hh / bw_pp, 4.0);
  EXPECT_NEAR(bw_hp / bw_hh, 1.0, 0.1);   // host->phi == host->host
  EXPECT_NEAR(bw_pp / bw_ph, 1.0, 0.1);   // phi->phi == phi->host
}

TEST(Calibration, Fig9_SmallMessageRtt15vs28us) {
  // "For 4 bytes round trip blocking communication, the 'Intel MPI on Xeon
  // Phi co-processors' mode spends 28 microseconds while the DCFA-MPI only
  // spends 15 microseconds."
  auto d = pingpong_blocking(mode_cfg(mpi::MpiMode::DcfaPhi), 4, 10);
  auto i = pingpong_blocking(mode_cfg(mpi::MpiMode::IntelPhi), 4, 10);
  EXPECT_NEAR(sim::to_us(d.round_trip), 15.0, 2.0);
  EXPECT_NEAR(sim::to_us(i.round_trip), 28.0, 3.0);
}

TEST(Calibration, Fig9_3xBandwidthAtLargeMessages) {
  // "DCFA-MPI ... delivers a 3 times speed-up after the 1Mbytes size."
  auto d = pingpong_blocking(mode_cfg(mpi::MpiMode::DcfaPhi), 1 << 20, 8);
  auto i = pingpong_blocking(mode_cfg(mpi::MpiMode::IntelPhi), 1 << 20, 8);
  EXPECT_NEAR(d.bandwidth_gbps / i.bandwidth_gbps, 3.0, 0.5);
  // "cannot get bandwidth greater than 1 Gbytes/s"
  EXPECT_LT(i.bandwidth_gbps, 1.0);
}

TEST(Calibration, Fig8_OffloadBufferReaches2p8GBps) {
  // "bandwidth can grow up to 2.8 Gbytes/s"
  auto r = pingpong_nonblocking(mode_cfg(mpi::MpiMode::DcfaPhi), 4 << 20, 8);
  EXPECT_NEAR(r.bandwidth_gbps, 2.8, 0.3);
  // Without the offload buffer the Phi-read bottleneck caps throughput.
  auto n =
      pingpong_nonblocking(mode_cfg(mpi::MpiMode::DcfaPhiNoOffload), 4 << 20,
                           8);
  EXPECT_LT(n.bandwidth_gbps, 1.4);
}

TEST(Calibration, Fig7_OffloadWithin2xOfHostAt1MB) {
  // "It is only 2 times slower than the host at 1Mbytes."
  auto d = pingpong_nonblocking(mode_cfg(mpi::MpiMode::DcfaPhi), 1 << 20, 8);
  auto h = pingpong_nonblocking(mode_cfg(mpi::MpiMode::HostMpi), 1 << 20, 8);
  const double ratio =
      static_cast<double>(d.round_trip) / static_cast<double>(h.round_trip);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.4);
}

TEST(Calibration, Fig10_CommOnlyRatios) {
  // "12 times faster ... less than 128 bytes" (we overshoot: see
  // EXPERIMENTS.md) and "2 times faster when ... larger than 512Kbytes".
  auto d_small = comm_only_direct(mode_cfg(mpi::MpiMode::DcfaPhi), 64, 20);
  auto o_small = comm_only_offload({}, 64, 20);
  const double small_ratio = static_cast<double>(o_small.per_iteration) /
                             static_cast<double>(d_small.per_iteration);
  EXPECT_GT(small_ratio, 10.0);

  auto d_big = comm_only_direct(mode_cfg(mpi::MpiMode::DcfaPhi), 512 << 10,
                                10);
  auto o_big = comm_only_offload({}, 512 << 10, 10);
  const double big_ratio = static_cast<double>(o_big.per_iteration) /
                           static_cast<double>(d_big.per_iteration);
  EXPECT_NEAR(big_ratio, 2.0, 0.5);
}

TEST(Calibration, Fig12_StencilSpeedupsAt8x56) {
  // "DCFA-MPI delivers a 117 times speed-up, 'Intel MPI on Xeon Phi' mode
  // delivers a 113 times speed-up, and 'Intel MPI on Xeon + offload' only
  // delivers 74 times speed-up" (8 processes x 56 threads).
  StencilConfig cfg;
  cfg.n = 1282;
  cfg.iterations = 100;  // the paper's iteration count (setup amortises)
  cfg.real_compute = false;
  const auto serial = run_stencil_serial(cfg);
  cfg.nprocs = 8;
  cfg.threads = 56;
  auto speedup = [&](StencilSystem sys) {
    return static_cast<double>(serial.total) /
           static_cast<double>(run_stencil(sys, cfg).total);
  };
  EXPECT_NEAR(speedup(StencilSystem::DcfaPhi), 117.0, 6.0);
  EXPECT_NEAR(speedup(StencilSystem::IntelPhi), 113.0, 6.0);
  EXPECT_NEAR(speedup(StencilSystem::HostOffload), 74.0, 5.0);
}

TEST(Calibration, Fig11_OffloadGapGrowsWithProcesses) {
  // "the gap between DCFA-MPI and 'Intel MPI on Xeon + offload' becomes
  // larger" as processes increase.
  StencilConfig cfg;
  cfg.n = 1282;
  cfg.iterations = 100;
  cfg.threads = 56;
  cfg.real_compute = false;
  std::map<int, double> ratio;
  for (int procs : {1, 2, 4, 8}) {
    cfg.nprocs = procs;
    const auto d = run_stencil(StencilSystem::DcfaPhi, cfg);
    const auto o = run_stencil(StencilSystem::HostOffload, cfg);
    ratio[procs] = static_cast<double>(o.total) / static_cast<double>(d.total);
  }
  // Once halos start moving (>= 2 procs) the relative gap widens with the
  // process count, ending around 2x at 8 processes.
  EXPECT_GT(ratio[4], ratio[2]);
  EXPECT_GT(ratio[8], ratio[4]);
  EXPECT_GT(ratio[8], 1.5);
  EXPECT_GT(ratio[1], 1.0);  // launch overhead alone already hurts
}

TEST(Calibration, StencilDcfaTracksIntelPhiMode) {
  // "The results of DCFA-MPI and 'Intel MPI on Xeon Phi' mode do not show a
  // big difference" — within a few percent, DCFA-MPI ahead.
  StencilConfig cfg;
  cfg.n = 1282;
  cfg.iterations = 10;
  cfg.nprocs = 8;
  cfg.threads = 56;
  cfg.real_compute = false;
  const auto d = run_stencil(StencilSystem::DcfaPhi, cfg);
  const auto i = run_stencil(StencilSystem::IntelPhi, cfg);
  EXPECT_LT(d.total, i.total);
  EXPECT_LT(static_cast<double>(i.total) / d.total, 1.15);
}

TEST(Calibration, HostMpiSmallRttRealistic) {
  // Sanity floor for the host reference: a few microseconds on FDR.
  auto h = pingpong_blocking(mode_cfg(mpi::MpiMode::HostMpi), 4, 10);
  EXPECT_GT(sim::to_us(h.round_trip), 2.0);
  EXPECT_LT(sim::to_us(h.round_trip), 12.0);
}

namespace {
/// Virtual time of one forced-algorithm allreduce of `bytes` on 8 Phi
/// ranks (max over ranks — the collective's completion time).
sim::Time allreduce_algo_time(mpi::CollAlgo algo, std::size_t bytes) {
  mpi::RunConfig cfg = mode_cfg(mpi::MpiMode::DcfaPhi);
  cfg.nprocs = 8;
  cfg.engine_options.allreduce_algo = algo;
  const std::size_t n = std::max<std::size_t>(bytes / sizeof(double), 1);
  std::vector<double> elapsed(cfg.nprocs, 0.0);
  mpi::run_mpi(cfg, [&](mpi::RankCtx& ctx) {
    mem::Buffer in = ctx.world.alloc(n * sizeof(double));
    mem::Buffer out = ctx.world.alloc(n * sizeof(double));
    std::memset(in.data(), 0, n * sizeof(double));
    ctx.world.barrier();
    const double t0 = ctx.wtime();
    ctx.world.allreduce(in, 0, out, 0, n, mpi::type_double(), mpi::Op::Sum);
    elapsed[ctx.rank] = ctx.wtime() - t0;
    ctx.world.free(in);
    ctx.world.free(out);
  });
  double worst = 0.0;
  for (double e : elapsed) worst = std::max(worst, e);
  return sim::seconds(worst);
}
}  // namespace

TEST(Calibration, CollectivesBandwidthOptimalBeatReduceBcastAt1MB) {
  // The collectives-engine headline (docs/collectives.md): at 1 MiB on 8
  // ranks, the bandwidth-optimal algorithms beat the old reduce+bcast
  // composition by well over 1.5x — the binomial root serializes log2(P)
  // full-vector combines at Phi reduce throughput while ring/Rabenseifner
  // spread 2(P-1)/P of the vector's combines across all ranks.
  const double binomial = static_cast<double>(
      allreduce_algo_time(mpi::CollAlgo::Binomial, 1 << 20));
  const double ring =
      static_cast<double>(allreduce_algo_time(mpi::CollAlgo::Ring, 1 << 20));
  const double rab = static_cast<double>(
      allreduce_algo_time(mpi::CollAlgo::Rabenseifner, 1 << 20));
  EXPECT_GT(binomial / ring, 1.5);
  EXPECT_GT(binomial / rab, 1.5);
}

TEST(Calibration, CollectivesRecursiveDoublingWinsAt4B) {
  // At 4 bytes the collective is pure latency: recursive doubling's
  // log2(P) rounds beat reduce+bcast's two trees and the ring's 2(P-1)
  // hops — this is why coll_allreduce_small_max exists.
  const auto rd = allreduce_algo_time(mpi::CollAlgo::RecursiveDoubling, 4);
  EXPECT_LT(rd, allreduce_algo_time(mpi::CollAlgo::Binomial, 4));
  EXPECT_LT(rd, allreduce_algo_time(mpi::CollAlgo::Ring, 4));
  EXPECT_LT(rd, allreduce_algo_time(mpi::CollAlgo::Rabenseifner, 4));
}
