// Tests for the implemented Section VI future work — the DCFA-MPI CMD
// delegations: host-offloaded collective reductions (ReduceShadow) and
// host-offloaded derived-datatype packing (PackShadow) — plus the extended
// collectives (scan, gatherv, scatterv).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

RunConfig dcfa_cfg(int nprocs) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  return cfg;
}

void put_doubles(const mem::Buffer& buf, const std::vector<double>& v,
                 std::size_t off = 0) {
  std::memcpy(buf.data() + off, v.data(), v.size() * sizeof(double));
}

std::vector<double> get_doubles(const mem::Buffer& buf, std::size_t n,
                                std::size_t off = 0) {
  std::vector<double> v(n);
  std::memcpy(v.data(), buf.data() + off, n * sizeof(double));
  return v;
}

}  // namespace

// --- Offloaded reductions -----------------------------------------------------

TEST(OffloadedReduce, SameAnswerAsLocal) {
  const std::size_t n = 32 * 1024;  // 256 KB of doubles: above threshold
  std::vector<double> local_result, offloaded_result;
  for (bool offload : {false, true}) {
    RunConfig cfg = dcfa_cfg(4);
    cfg.engine_options.offload_reductions = offload;
    std::vector<double> result;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer in = comm.alloc(n * sizeof(double));
      mem::Buffer out = comm.alloc(n * sizeof(double));
      std::vector<double> mine(n);
      for (std::size_t i = 0; i < n; ++i) {
        mine[i] = (ctx.rank + 1) * 0.5 + i * 1e-6;
      }
      put_doubles(in, mine);
      comm.allreduce(in, 0, out, 0, n, type_double(), Op::Sum);
      if (ctx.rank == 0) result = get_doubles(out, n);
      comm.free(in);
      comm.free(out);
    });
    (offload ? offloaded_result : local_result) = std::move(result);
  }
  ASSERT_EQ(local_result.size(), offloaded_result.size());
  for (std::size_t i = 0; i < local_result.size(); i += 1000) {
    EXPECT_DOUBLE_EQ(local_result[i], offloaded_result[i]) << i;
  }
}

TEST(OffloadedReduce, StatsCountDelegations) {
  RunConfig cfg = dcfa_cfg(2);
  cfg.engine_options.offload_reductions = true;
  // Pin the binomial algorithm: the counts below rely on the reduce+bcast
  // shape (one combine, at the root). The auto-selected ring would spread
  // segment combines over both ranks.
  cfg.engine_options.allreduce_algo = CollAlgo::Binomial;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t n = 64 * 1024;  // 512 KB >= threshold
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    comm.allreduce(in, 0, out, 0, n, type_double(), Op::Max);
    // Small reductions stay local even with the option on.
    comm.allreduce(in, 0, out, 0, 4, type_double(), Op::Max);
    comm.free(in);
    comm.free(out);
  });
  // Rank 0 is the binomial root: it performs the only combine.
  EXPECT_EQ(rt.rank_stats()[0].reductions_offloaded, 1u);
  EXPECT_EQ(rt.rank_stats()[1].reductions_offloaded, 0u);
}

TEST(OffloadedReduce, FasterThanPhiLocalForLargeVectors) {
  const std::size_t n = 256 * 1024;  // 2 MB of doubles
  auto run_one = [&](bool offload) {
    RunConfig cfg = dcfa_cfg(2);
    cfg.engine_options.offload_reductions = offload;
    sim::Time elapsed = 0;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer in = comm.alloc(n * sizeof(double));
      mem::Buffer out = comm.alloc(n * sizeof(double));
      comm.barrier();
      const sim::Time t0 = ctx.proc.now();
      comm.reduce(in, 0, out, 0, n, type_double(), Op::Sum, 0);
      if (ctx.rank == 0) elapsed = ctx.proc.now() - t0;
      comm.barrier();
      comm.free(in);
      comm.free(out);
    });
    return elapsed;
  };
  const sim::Time local = run_one(false);
  const sim::Time offloaded = run_one(true);
  EXPECT_LT(offloaded, local);
}

TEST(OffloadedReduce, HostRanksNeverDelegate) {
  RunConfig cfg;
  cfg.mode = MpiMode::HostMpi;
  cfg.nprocs = 2;
  cfg.engine_options.offload_reductions = true;  // silently ignored
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t n = 64 * 1024;
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    comm.allreduce(in, 0, out, 0, n, type_double(), Op::Sum);
    comm.free(in);
    comm.free(out);
  });
  EXPECT_EQ(rt.rank_stats()[0].reductions_offloaded, 0u);
}

// --- Offloaded datatype packing ---------------------------------------------

TEST(OffloadedPack, VectorTypeDeliveredIntact) {
  // 1024 blocks of 16 doubles, stride 32: 128 KB payload in a 256 KB extent.
  const Datatype vec = Datatype::vector(1024, 16, 32, type_double());
  for (bool offload : {false, true}) {
    RunConfig cfg = dcfa_cfg(2);
    cfg.engine_options.offload_datatypes = offload;
    Runtime rt(cfg);
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf = comm.alloc(vec.extent() + 64);
      auto* d = reinterpret_cast<double*>(buf.data());
      if (ctx.rank == 0) {
        for (std::size_t i = 0; i < vec.extent() / sizeof(double); ++i) {
          d[i] = static_cast<double>(i);
        }
        comm.send(buf, 0, 1, vec, 1, 5);
      } else {
        Status st = comm.recv(buf, 0, 1, vec, 0, 5);
        EXPECT_EQ(st.bytes, vec.size());
        EXPECT_EQ(d[0], 0.0);
        EXPECT_EQ(d[15], 15.0);   // end of block 0
        EXPECT_EQ(d[16], 0.0);    // gap untouched
        EXPECT_EQ(d[32], 32.0);   // block 1
        EXPECT_EQ(d[1024 * 32 - 32 + 15], 1024.0 * 32 - 32 + 15);
      }
      comm.barrier();
      comm.free(buf);
    });
    if (offload) {
      EXPECT_EQ(rt.rank_stats()[0].packs_offloaded, 1u);
    } else {
      EXPECT_EQ(rt.rank_stats()[0].packs_offloaded, 0u);
    }
  }
}

TEST(OffloadedPack, SmallMessagesStayLocal) {
  const Datatype vec = Datatype::vector(8, 2, 4, type_double());
  RunConfig cfg = dcfa_cfg(2);
  cfg.engine_options.offload_datatypes = true;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(vec.extent() * 2);
    if (ctx.rank == 0) {
      comm.send(buf, 0, 2, vec, 1, 5);
    } else {
      comm.recv(buf, 0, 2, vec, 0, 5);
    }
    comm.barrier();
    comm.free(buf);
  });
  EXPECT_EQ(rt.rank_stats()[0].packs_offloaded, 0u);
}

TEST(OffloadedPack, ManyMessagesNoResourceLeak) {
  const Datatype vec = Datatype::vector(1024, 16, 32, type_double());
  RunConfig cfg = dcfa_cfg(2);
  cfg.engine_options.offload_datatypes = true;
  run_mpi(cfg, [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(vec.extent() + 64);
    for (int i = 0; i < 10; ++i) {
      if (ctx.rank == 0) {
        comm.send(buf, 0, 1, vec, 1, 5);
      } else {
        comm.recv(buf, 0, 1, vec, 0, 5);
      }
    }
    comm.barrier();
    comm.free(buf);
  });
  // Finalize (inside run_mpi) would throw if packed regions leaked MRs.
  SUCCEED();
}

// --- Extended collectives ------------------------------------------------------

TEST(ExtendedCollectives, ScanInclusivePrefix) {
  run_mpi(dcfa_cfg(5), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t n = 3;
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    put_doubles(in, {1.0 * (ctx.rank + 1), 2.0, 100.0 - ctx.rank});
    comm.scan(in, 0, out, 0, n, type_double(), Op::Sum);
    auto got = get_doubles(out, n);
    double expect0 = 0;
    for (int r = 0; r <= ctx.rank; ++r) expect0 += r + 1;
    EXPECT_DOUBLE_EQ(got[0], expect0);
    EXPECT_DOUBLE_EQ(got[1], 2.0 * (ctx.rank + 1));
    comm.barrier();
    comm.free(in);
    comm.free(out);
  });
}

TEST(ExtendedCollectives, ScanMinKeepsOrder) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(sizeof(int));
    mem::Buffer out = comm.alloc(sizeof(int));
    const int mine = 10 - ctx.rank;  // decreasing: prefix min == my value
    std::memcpy(in.data(), &mine, sizeof mine);
    comm.scan(in, 0, out, 0, 1, type_int(), Op::Min);
    int got = 0;
    std::memcpy(&got, out.data(), sizeof got);
    EXPECT_EQ(got, mine);
    comm.barrier();
    comm.free(in);
    comm.free(out);
  });
}

TEST(ExtendedCollectives, GathervVariableBlocks) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    // Rank r contributes r+1 doubles.
    std::vector<std::size_t> counts{1, 2, 3, 4};
    std::vector<std::size_t> displs{0, 1, 3, 6};
    const std::size_t total = 10;
    mem::Buffer mine = comm.alloc((ctx.rank + 1) * sizeof(double));
    mem::Buffer all = comm.alloc(total * sizeof(double));
    std::vector<double> v(ctx.rank + 1, 10.0 * ctx.rank);
    put_doubles(mine, v);
    comm.gatherv(mine, 0, ctx.rank + 1, type_double(), all, 0, counts,
                 displs, /*root=*/2);
    if (ctx.rank == 2) {
      auto got = get_doubles(all, total);
      EXPECT_DOUBLE_EQ(got[0], 0.0);
      EXPECT_DOUBLE_EQ(got[1], 10.0);
      EXPECT_DOUBLE_EQ(got[2], 10.0);
      EXPECT_DOUBLE_EQ(got[3], 20.0);
      EXPECT_DOUBLE_EQ(got[6], 30.0);
      EXPECT_DOUBLE_EQ(got[9], 30.0);
    }
    comm.barrier();
    comm.free(mine);
    comm.free(all);
  });
}

TEST(ExtendedCollectives, ScattervRoundTripsGatherv) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    std::vector<std::size_t> counts{2, 1, 3};
    std::vector<std::size_t> displs{0, 2, 3};
    const std::size_t total = 6;
    mem::Buffer pool = comm.alloc(total * sizeof(double));
    mem::Buffer mine = comm.alloc(counts[ctx.rank] * sizeof(double));
    mem::Buffer back = comm.alloc(total * sizeof(double));
    if (ctx.rank == 0) put_doubles(pool, {1, 2, 3, 4, 5, 6});
    comm.scatterv(pool, 0, counts, displs, type_double(), mine, 0,
                  counts[ctx.rank], 0);
    comm.gatherv(mine, 0, counts[ctx.rank], type_double(), back, 0, counts,
                 displs, 0);
    if (ctx.rank == 0) {
      EXPECT_EQ(get_doubles(back, total), (std::vector<double>{1, 2, 3, 4,
                                                               5, 6}));
    }
    comm.barrier();
    comm.free(pool);
    comm.free(mine);
    comm.free(back);
  });
}

TEST(ExtendedCollectives, GathervValidatesArguments) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    std::vector<std::size_t> short_counts{1};  // needs 2 entries
    std::vector<std::size_t> displs{0, 1};
    if (ctx.rank == 0) {
      EXPECT_THROW(comm.gatherv(buf, 0, 1, type_double(), buf, 0,
                                short_counts, displs, 0),
                   MpiError);
    }
    comm.barrier();
    comm.free(buf);
  });
}
