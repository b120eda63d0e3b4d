// Collective operations over the DCFA-MPI P2P layer: correctness against
// locally computed references for every op, swept over communicator sizes
// and element counts (TEST_P), plus root sweeps and repeated invocations.
// Size 13 runs alltoall over more than one stage of
// kAlltoallStepsPerStage exchanges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/runtime.hpp"
#include "mpi/traffic.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

RunConfig dcfa_cfg(int nprocs) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  return cfg;
}

void put_doubles(mem::Buffer& buf, const std::vector<double>& v,
                 std::size_t off = 0) {
  std::memcpy(buf.data() + off, v.data(), v.size() * sizeof(double));
}

std::vector<double> get_doubles(const mem::Buffer& buf, std::size_t n,
                                std::size_t off = 0) {
  std::vector<double> v(n);
  std::memcpy(v.data(), buf.data() + off, n * sizeof(double));
  return v;
}

/// rank r's contribution vector.
std::vector<double> contribution(int rank, std::size_t count) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = rank * 1000.0 + static_cast<double>(i);
  }
  return v;
}

class CollectiveSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  int nprocs() const { return std::get<0>(GetParam()); }
  std::size_t count() const { return std::get<1>(GetParam()); }
};

TEST_P(CollectiveSweep, Bcast) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    for (int root = 0; root < comm.size(); ++root) {
      mem::Buffer buf = comm.alloc(n * sizeof(double));
      if (comm.rank() == root) put_doubles(buf, contribution(root, n));
      comm.bcast(buf, 0, n, type_double(), root);
      EXPECT_EQ(get_doubles(buf, n), contribution(root, n))
          << "root=" << root;
      comm.free(buf);
    }
  });
}

TEST_P(CollectiveSweep, ReduceSum) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    put_doubles(in, contribution(comm.rank(), n));
    const int root = comm.size() - 1;
    comm.reduce(in, 0, out, 0, n, type_double(), Op::Sum, root);
    if (comm.rank() == root) {
      std::vector<double> expect(n, 0.0);
      for (int r = 0; r < comm.size(); ++r) {
        auto c = contribution(r, n);
        for (std::size_t i = 0; i < n; ++i) expect[i] += c[i];
      }
      EXPECT_EQ(get_doubles(out, n), expect);
    }
    comm.barrier();
    comm.free(in);
    comm.free(out);
  });
}

TEST_P(CollectiveSweep, AllreduceMax) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    put_doubles(in, contribution(comm.rank(), n));
    comm.allreduce(in, 0, out, 0, n, type_double(), Op::Max);
    EXPECT_EQ(get_doubles(out, n), contribution(comm.size() - 1, n));
    comm.free(in);
    comm.free(out);
  });
}

TEST_P(CollectiveSweep, GatherScatterRoundTrip) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int root = 0;
    mem::Buffer mine = comm.alloc(n * sizeof(double));
    mem::Buffer all = comm.alloc(comm.size() * n * sizeof(double));
    mem::Buffer back = comm.alloc(n * sizeof(double));
    put_doubles(mine, contribution(comm.rank(), n));
    comm.gather(mine, 0, n, type_double(), all, 0, root);
    if (comm.rank() == root) {
      for (int r = 0; r < comm.size(); ++r) {
        EXPECT_EQ(get_doubles(all, n, r * n * sizeof(double)),
                  contribution(r, n))
            << "gathered block " << r;
      }
    }
    comm.scatter(all, 0, n, type_double(), back, 0, root);
    EXPECT_EQ(get_doubles(back, n), contribution(comm.rank(), n));
    comm.barrier();
    comm.free(mine);
    comm.free(all);
    comm.free(back);
  });
}

TEST_P(CollectiveSweep, Allgather) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer mine = comm.alloc(n * sizeof(double));
    mem::Buffer all = comm.alloc(comm.size() * n * sizeof(double));
    put_doubles(mine, contribution(comm.rank(), n));
    comm.allgather(mine, 0, n, type_double(), all, 0);
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(get_doubles(all, n, r * n * sizeof(double)),
                contribution(r, n));
    }
    comm.free(mine);
    comm.free(all);
  });
}

TEST_P(CollectiveSweep, Alltoall) {
  const std::size_t n = count();
  run_mpi(dcfa_cfg(nprocs()), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int P = comm.size();
    mem::Buffer send = comm.alloc(P * n * sizeof(double));
    mem::Buffer recv = comm.alloc(P * n * sizeof(double));
    // Block for destination d: rank*100 + d in every element slot.
    for (int d = 0; d < P; ++d) {
      std::vector<double> block(n, comm.rank() * 100.0 + d);
      put_doubles(send, block, d * n * sizeof(double));
    }
    comm.alltoall(send, 0, n, type_double(), recv, 0);
    for (int s = 0; s < P; ++s) {
      const auto got = get_doubles(recv, n, s * n * sizeof(double));
      EXPECT_EQ(got, std::vector<double>(n, s * 100.0 + comm.rank()));
    }
    comm.free(send);
    comm.free(recv);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCounts, CollectiveSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 13),
                       ::testing::Values(std::size_t{1}, std::size_t{100},
                                         std::size_t{3000})),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Collectives, BarrierSynchronises) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    // Rank r sleeps r milliseconds; after the barrier, everyone's clock is
    // at least the slowest sleeper's.
    ctx.proc.wait(sim::milliseconds(ctx.rank));
    comm.barrier();
    EXPECT_GE(ctx.proc.now(), sim::milliseconds(3));
  });
}

TEST(Collectives, IntReduction) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(sizeof(int) * 4);
    mem::Buffer out = comm.alloc(sizeof(int) * 4);
    int vals[4] = {ctx.rank + 1, ctx.rank, -ctx.rank, 2};
    std::memcpy(in.data(), vals, sizeof vals);
    comm.allreduce(in, 0, out, 0, 4, type_int(), Op::Prod);
    int got[4];
    std::memcpy(got, out.data(), sizeof got);
    EXPECT_EQ(got[0], 1 * 2 * 3 * 4);
    EXPECT_EQ(got[1], 0);
    EXPECT_EQ(got[3], 16);
    comm.free(in);
    comm.free(out);
  });
}

TEST(Collectives, MinReduction) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(sizeof(double));
    mem::Buffer out = comm.alloc(sizeof(double));
    double v = 10.0 - ctx.rank;
    std::memcpy(in.data(), &v, sizeof v);
    comm.allreduce(in, 0, out, 0, 1, type_double(), Op::Min);
    double got;
    std::memcpy(&got, out.data(), sizeof got);
    EXPECT_DOUBLE_EQ(got, 8.0);
    comm.free(in);
    comm.free(out);
  });
}

TEST(Collectives, ReduceOnOpaqueTypeThrows) {
  EXPECT_THROW(run_mpi(dcfa_cfg(2),
                       [](RankCtx& ctx) {
                         auto& comm = ctx.world;
                         mem::Buffer in = comm.alloc(8);
                         mem::Buffer out = comm.alloc(8);
                         comm.allreduce(in, 0, out, 0, 8, type_byte(),
                                        Op::Sum);
                       }),
               MpiError);
}

TEST(Collectives, BackToBackMixedCollectives) {
  // Several different collectives in a row reusing the same communicator;
  // internal tags must not cross-match.
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer a = comm.alloc(1024 * sizeof(double));
    mem::Buffer b = comm.alloc(4 * 1024 * sizeof(double));
    for (int round = 0; round < 5; ++round) {
      put_doubles(a, contribution(comm.rank() + round, 1024));
      comm.allgather(a, 0, 1024, type_double(), b, 0);
      comm.bcast(a, 0, 1024, type_double(), round % comm.size());
      comm.barrier();
      EXPECT_EQ(get_doubles(b, 1024, 2 * 1024 * sizeof(double)),
                contribution(2 + round, 1024));
      EXPECT_EQ(get_doubles(a, 1024),
                contribution(round % comm.size() + round, 1024));
    }
    comm.free(a);
    comm.free(b);
  });
}
}  // namespace

TEST(Collectives, LazyAlltoallFirstCallLatency) {
  // host_a2a's configuration (HostMpi, one rank per node, lazy endpoints)
  // on 16 ranks: the first alltoall after a barrier wires every pair the
  // barrier did not, in two stages of eight steps. Each transfer wires its
  // peer as it is posted, so a stage's eager traffic interleaves with its
  // remaining first-touch handshakes. The first call's latency is pinned
  // exactly. Nearly all of it is the wiring's own CPU time: with a separate
  // registration for every endpoint's local block, instead of slices of the
  // staging arena, it was 402.692 us.
  constexpr int kRanks = 16;
  constexpr std::size_t kBlock = 512;
  std::vector<sim::Time> took(kRanks, 0);
  run_mpi(traffic::scale_run_config(kRanks), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer send = comm.alloc(kRanks * kBlock);
    mem::Buffer recv = comm.alloc(kRanks * kBlock);
    for (int d = 0; d < kRanks; ++d) {
      std::memset(send.data() + d * kBlock, comm.rank() * kRanks + d, kBlock);
    }
    comm.barrier();
    const sim::Time t0 = ctx.proc.now();
    comm.alltoall(send, 0, kBlock, type_byte(), recv, 0);
    took[ctx.rank] = ctx.proc.now() - t0;
    for (int s = 0; s < kRanks; ++s) {
      EXPECT_EQ(recv.data()[s * kBlock + kBlock - 1],
                static_cast<std::byte>(s * kRanks + comm.rank()));
    }
    comm.free(send);
    comm.free(recv);
  });
  EXPECT_EQ(*std::max_element(took.begin(), took.end()), sim::Time{317642});
}
