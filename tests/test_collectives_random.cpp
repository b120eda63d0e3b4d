// Randomized reference-checked sweep of the collectives engine
// (docs/collectives.md): every algorithm the selection layer can pick is
// also forced explicitly, over communicator sizes 1..13 (prime, power-of-
// two and in-between), counts that are zero, tiny, and not divisible by
// the communicator size, all reduction ops and arithmetic datatypes — each
// checked element-for-element against a sequentially computed reference.
//
// Values are drawn from {-2,-1,0,1,2} so Sum and Prod stay exactly
// representable in float/double no matter how a segmented algorithm
// reassociates the combines (|partial| <= 2^13 << 2^24).
//
// Also pins boundary behaviour: the eager/rendezvous switch at exactly
// eager_threshold(), the selector crossovers one byte either side of the
// knobs, and the segment-count edge where pipelining kicks in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <string>
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

constexpr std::uint64_t kSeed = 0xdcfa'c011'ec71'0e5ull;

template <typename T>
T combine1(Op op, T a, T b) {
  switch (op) {
    case Op::Sum: return a + b;
    case Op::Prod: return a * b;
    case Op::Max: return std::max(a, b);
    case Op::Min: return std::min(a, b);
    case Op::Replace: return b;  // MPI_REPLACE keeps the incoming value
  }
  return a;
}

/// Per-rank input vectors, drawn from {-2,..,2} (exact in every dtype).
template <typename T>
std::vector<std::vector<T>> draw_inputs(std::mt19937_64& rng, int nprocs,
                                        std::size_t count) {
  std::uniform_int_distribution<int> val(-2, 2);
  std::vector<std::vector<T>> in(nprocs, std::vector<T>(count));
  for (auto& v : in) {
    for (auto& x : v) x = static_cast<T>(val(rng));
  }
  return in;
}

/// Sequential left-to-right reference reduction over ranks.
template <typename T>
std::vector<T> reference_reduce(const std::vector<std::vector<T>>& in,
                                Op op) {
  std::vector<T> out = in[0];
  for (std::size_t r = 1; r < in.size(); ++r) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = combine1(op, out[i], in[r][i]);
    }
  }
  return out;
}

template <typename T>
void put_vec(mem::Buffer& buf, const std::vector<T>& v) {
  if (!v.empty()) std::memcpy(buf.data(), v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> get_vec(const mem::Buffer& buf, std::size_t n) {
  std::vector<T> v(n);
  if (n) std::memcpy(v.data(), buf.data(), n * sizeof(T));
  return v;
}

/// One forced-algorithm allreduce run, checked on every rank. Returns the
/// result bytes of rank 0 (for the determinism digest).
template <typename T>
std::vector<T> allreduce_trial(int nprocs, std::size_t count, Op op,
                               const Datatype& dt, CollAlgo algo,
                               std::uint64_t seg,
                               const std::vector<std::vector<T>>& in) {
  RunConfig cfg = dcfa_cfg(nprocs);
  cfg.engine_options.allreduce_algo = algo;
  cfg.platform.coll_segment_bytes = seg;
  const std::vector<T> expect = reference_reduce(in, op);
  std::vector<T> rank0(count);
  run_mpi(cfg, [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer ib = comm.alloc(std::max<std::size_t>(count * sizeof(T), 1));
    mem::Buffer ob = comm.alloc(std::max<std::size_t>(count * sizeof(T), 1));
    put_vec(ib, in[comm.rank()]);
    comm.allreduce(ib, 0, ob, 0, count, dt, op);
    const auto got = get_vec<T>(ob, count);
    EXPECT_EQ(got, expect) << "algo=" << coll_algo_name(algo)
                           << " P=" << nprocs
                           << " count=" << count << " rank=" << comm.rank();
    if (comm.rank() == 0) rank0 = got;
    comm.free(ib);
    comm.free(ob);
  });
  return rank0;
}

struct TypeCase {
  const Datatype& (*dt)();
};

}  // namespace

// ---------------------------------------------------------------------------
// Allreduce: every algorithm x comm sizes 1..13 x randomized trials
// ---------------------------------------------------------------------------

class AllreduceAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(AllreduceAlgoSweep, MatchesSequentialReference) {
  const CollAlgo algo = GetParam();
  std::mt19937_64 rng(kSeed);
  // Counts: empty, single, prime (never divisible by P>1), mid-size, and
  // one that splits into blocks crossing the forced segment size.
  const std::size_t counts[] = {0, 1, 13, 1000, 4097};
  const Op ops[] = {Op::Sum, Op::Prod, Op::Max, Op::Min};
  for (int nprocs = 1; nprocs <= 13; ++nprocs) {
    const std::size_t count = counts[rng() % std::size(counts)];
    const Op op = ops[rng() % std::size(ops)];
    // Tiny forced segment: even mid-size counts span many segments, so the
    // pipelined paths run their multi-segment schedule.
    const std::uint64_t seg = (rng() % 2) ? 512 : 4096;
    switch (rng() % 4) {
      case 0: {
        auto in = draw_inputs<int>(rng, nprocs, count);
        allreduce_trial<int>(nprocs, count, op, type_int(), algo, seg, in);
        break;
      }
      case 1: {
        auto in = draw_inputs<std::int64_t>(rng, nprocs, count);
        allreduce_trial<std::int64_t>(nprocs, count, op, type_int64(), algo,
                                      seg, in);
        break;
      }
      case 2: {
        auto in = draw_inputs<float>(rng, nprocs, count);
        allreduce_trial<float>(nprocs, count, op, type_float(), algo, seg,
                               in);
        break;
      }
      default: {
        auto in = draw_inputs<double>(rng, nprocs, count);
        allreduce_trial<double>(nprocs, count, op, type_double(), algo, seg,
                                in);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, AllreduceAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Binomial,
                                           CollAlgo::RecursiveDoubling,
                                           CollAlgo::Ring,
                                           CollAlgo::Rabenseifner),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Bcast: both algorithms, every root, random payloads
// ---------------------------------------------------------------------------

class BcastAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(BcastAlgoSweep, DeliversRootPayloadToAllRanks) {
  const CollAlgo algo = GetParam();
  std::mt19937_64 rng(kSeed + 1);
  for (int nprocs = 1; nprocs <= 13; ++nprocs) {
    const std::size_t counts[] = {0, 1, 13, 4097};
    const std::size_t count = counts[rng() % std::size(counts)];
    auto in = draw_inputs<double>(rng, 1, count);
    const int root = static_cast<int>(rng() % nprocs);
    RunConfig cfg = dcfa_cfg(nprocs);
    cfg.engine_options.bcast_algo = algo;
    cfg.platform.coll_segment_bytes = 512;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf =
          comm.alloc(std::max<std::size_t>(count * sizeof(double), 1));
      if (comm.rank() == root) put_vec(buf, in[0]);
      comm.bcast(buf, 0, count, type_double(), root);
      EXPECT_EQ(get_vec<double>(buf, count), in[0])
          << "algo=" << coll_algo_name(algo) << " P=" << nprocs
          << " root=" << root
          << " rank=" << comm.rank();
      comm.free(buf);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, BcastAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Binomial,
                                           CollAlgo::ScatterAllgather),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Allgather: ring and recursive doubling (falls back to ring off-pow2)
// ---------------------------------------------------------------------------

class AllgatherAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(AllgatherAlgoSweep, ConcatenatesAllContributions) {
  const CollAlgo algo = GetParam();
  std::mt19937_64 rng(kSeed + 2);
  for (int nprocs = 1; nprocs <= 13; ++nprocs) {
    const std::size_t counts[] = {0, 1, 130, 1001};
    const std::size_t count = counts[rng() % std::size(counts)];
    auto in = draw_inputs<int>(rng, nprocs, count);
    std::vector<int> expect;
    for (const auto& v : in) expect.insert(expect.end(), v.begin(), v.end());
    RunConfig cfg = dcfa_cfg(nprocs);
    cfg.engine_options.allgather_algo = algo;
    cfg.platform.coll_segment_bytes = 512;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      const std::size_t total = count * comm.size();
      mem::Buffer ib =
          comm.alloc(std::max<std::size_t>(count * sizeof(int), 1));
      mem::Buffer ob =
          comm.alloc(std::max<std::size_t>(total * sizeof(int), 1));
      put_vec(ib, in[comm.rank()]);
      comm.allgather(ib, 0, count, type_int(), ob, 0);
      EXPECT_EQ(get_vec<int>(ob, total), expect)
          << "algo=" << coll_algo_name(algo) << " P=" << nprocs
          << " rank=" << comm.rank();
      comm.free(ib);
      comm.free(ob);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, AllgatherAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Ring,
                                           CollAlgo::RecursiveDoubling),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Reduce_scatter_block
// ---------------------------------------------------------------------------

TEST(ReduceScatterBlock, EachRankGetsItsReducedBlock) {
  std::mt19937_64 rng(kSeed + 3);
  for (int nprocs = 1; nprocs <= 13; ++nprocs) {
    for (std::size_t recvcount : {std::size_t{0}, std::size_t{1},
                                  std::size_t{257}}) {
      const std::size_t total = recvcount * nprocs;
      auto in = draw_inputs<double>(rng, nprocs, total);
      const auto expect = reference_reduce(in, Op::Sum);
      RunConfig cfg = dcfa_cfg(nprocs);
      cfg.platform.coll_segment_bytes = 512;
      run_mpi(cfg, [&](RankCtx& ctx) {
        auto& comm = ctx.world;
        mem::Buffer ib =
            comm.alloc(std::max<std::size_t>(total * sizeof(double), 1));
        mem::Buffer ob =
            comm.alloc(std::max<std::size_t>(recvcount * sizeof(double), 1));
        put_vec(ib, in[comm.rank()]);
        comm.reduce_scatter_block(ib, 0, ob, 0, recvcount, type_double(),
                                  Op::Sum);
        const std::vector<double> want(
            expect.begin() + comm.rank() * recvcount,
            expect.begin() + (comm.rank() + 1) * recvcount);
        EXPECT_EQ(get_vec<double>(ob, recvcount), want)
            << "P=" << nprocs << " rank=" << comm.rank();
        comm.free(ib);
        comm.free(ob);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical results
// ---------------------------------------------------------------------------

TEST(CollectivesDeterminism, SameSeedSameBytes) {
  auto digest = [] {
    std::mt19937_64 rng(kSeed + 4);
    std::vector<double> all;
    for (CollAlgo algo : {CollAlgo::RecursiveDoubling, CollAlgo::Ring,
                          CollAlgo::Rabenseifner}) {
      for (int nprocs : {3, 8, 13}) {
        auto in = draw_inputs<double>(rng, nprocs, 513);
        auto r = allreduce_trial<double>(nprocs, 513, Op::Sum, type_double(),
                                         algo, 512, in);
        all.insert(all.end(), r.begin(), r.end());
      }
    }
    return all;
  };
  const auto first = digest();
  const auto second = digest();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(std::memcmp(first.data(), second.data(),
                          first.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Boundaries: eager threshold, selector crossovers, segment-count edges
// ---------------------------------------------------------------------------

namespace {

/// Rank-0 engine stats of one 2-rank send of `bytes` bytes.
Engine::Stats p2p_stats(std::size_t bytes) {
  RunConfig cfg = dcfa_cfg(2);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(std::max<std::size_t>(bytes, 1));
    if (comm.rank() == 0) {
      comm.send(buf, 0, bytes, type_byte(), 1, 7);
    } else {
      comm.recv(buf, 0, bytes, type_byte(), 0, 7);
    }
    comm.free(buf);
  });
  return rt.rank_stats()[0];
}

/// Rank-0 stats of one allreduce of `bytes` bytes under `cfg`.
Engine::Stats allreduce_stats(std::size_t bytes, const RunConfig& cfg) {
  Runtime rt(cfg);
  const std::size_t n = bytes / sizeof(double);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer ib = comm.alloc(std::max<std::size_t>(bytes, 1));
    mem::Buffer ob = comm.alloc(std::max<std::size_t>(bytes, 1));
    std::memset(ib.data(), 0, bytes);
    comm.allreduce(ib, 0, ob, 0, n, type_double(), Op::Sum);
    comm.free(ib);
    comm.free(ob);
  });
  return rt.rank_stats()[0];
}

}  // namespace

TEST(CollectiveBoundaries, EagerThresholdExact) {
  RunConfig cfg = dcfa_cfg(2);
  const std::uint64_t thr = cfg.platform.eager_threshold;
  // One byte below: eager. At the threshold (strict <): rendezvous.
  const Engine::Stats below = p2p_stats(thr - 1);
  EXPECT_EQ(below.eager_sends, 1u);
  EXPECT_EQ(below.rndv_sends, 0u);
  const Engine::Stats at = p2p_stats(thr);
  EXPECT_EQ(at.eager_sends, 0u);
  EXPECT_EQ(at.rndv_sends, 1u);
}

TEST(CollectiveBoundaries, AllreduceSmallMaxCrossover) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.platform.coll_allreduce_small_max = 4096;
  cfg.platform.coll_allreduce_ring_min = 1 << 20;
  // One element below the knob: recursive doubling. At the knob (strict <):
  // the next tier (Rabenseifner).
  const Engine::Stats below = allreduce_stats(4096 - sizeof(double), cfg);
  EXPECT_EQ(below.coll_allreduce_rd, 1u);
  EXPECT_EQ(below.coll_allreduce_rab, 0u);
  const Engine::Stats at = allreduce_stats(4096, cfg);
  EXPECT_EQ(at.coll_allreduce_rd, 0u);
  EXPECT_EQ(at.coll_allreduce_rab, 1u);
}

TEST(CollectiveBoundaries, AllreduceRingMinCrossover) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.platform.coll_allreduce_small_max = 64;
  cfg.platform.coll_allreduce_ring_min = 65536;
  const Engine::Stats below = allreduce_stats(65536 - sizeof(double), cfg);
  EXPECT_EQ(below.coll_allreduce_rab, 1u);
  EXPECT_EQ(below.coll_allreduce_ring, 0u);
  const Engine::Stats at = allreduce_stats(65536, cfg);
  EXPECT_EQ(at.coll_allreduce_rab, 0u);
  EXPECT_EQ(at.coll_allreduce_ring, 1u);
}

TEST(CollectiveBoundaries, BcastLargeMinCrossover) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.platform.coll_bcast_large_min = 32768;
  auto bcast_stats = [&cfg](std::size_t bytes) {
    Runtime rt(cfg);
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf = comm.alloc(std::max<std::size_t>(bytes, 1));
      comm.bcast(buf, 0, bytes, type_byte(), 0);
      comm.free(buf);
    });
    return rt.rank_stats()[0];
  };
  const Engine::Stats below = bcast_stats(32767);
  EXPECT_EQ(below.coll_bcast_binomial, 1u);
  EXPECT_EQ(below.coll_bcast_scatter_ag, 0u);
  const Engine::Stats at = bcast_stats(32768);
  EXPECT_EQ(at.coll_bcast_binomial, 0u);
  EXPECT_EQ(at.coll_bcast_scatter_ag, 1u);
}

TEST(CollectiveBoundaries, SegmentCountEdge) {
  // Ring allreduce at P=4 over n bytes: each of the 3+3 pipelined steps
  // moves one P-th of the vector in seg-sized segments, counted on both
  // the sending and receiving side of each step.
  RunConfig cfg = dcfa_cfg(4);
  cfg.engine_options.allreduce_algo = CollAlgo::Ring;
  cfg.platform.coll_segment_bytes = 1024;
  // Block = exactly one segment: 6 steps x (1 out + 1 in) = 12.
  const Engine::Stats one = allreduce_stats(4 * 1024, cfg);
  EXPECT_EQ(one.coll_segments, 12u);
  // One element more per block: every block needs a second segment.
  const Engine::Stats two = allreduce_stats(4 * 1024 + 4 * sizeof(double),
                                            cfg);
  EXPECT_EQ(two.coll_segments, 24u);
}

// ---------------------------------------------------------------------------
// Fold scratch sizing: each schedule's scratch covers the largest block its
// folding steps receive (one segment, or two once a block spans more). The
// counts put blocks empty, just under, at and just over one and two
// segments. A scratch one element short is caught when the receive into it
// is posted ("irecv: window escapes buffer").
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kScratchSeg = 256;  // bytes: 32 doubles per segment

/// Element counts around P, seg_elems and 2 * seg_elems * P.
std::vector<std::size_t> scratch_edge_counts(int P) {
  const std::size_t seg = kScratchSeg / sizeof(double);
  const std::size_t p = static_cast<std::size_t>(P);
  return {1,           p - 1,           p,           p + 1,
          seg - 1,     seg,             seg + 1,     seg * p,
          seg * p + 1, 2 * seg * p - 1, 2 * seg * p, 2 * seg * p + 1};
}

RunConfig scratch_cfg(MpiMode mode, int P) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.nprocs = P;
  cfg.platform.coll_segment_bytes = kScratchSeg;
  return cfg;
}

struct ScratchCase {
  MpiMode mode;
  int nprocs;
};

std::string scratch_case_name(
    const ::testing::TestParamInfo<ScratchCase>& info) {
  return std::string(info.param.mode == MpiMode::DcfaPhi ? "Phi" : "Host") +
         std::to_string(info.param.nprocs);
}

}  // namespace

class FoldScratchEdges : public ::testing::TestWithParam<ScratchCase> {};

TEST_P(FoldScratchEdges, AllreduceRingAndRabenseifner) {
  const auto [mode, P] = GetParam();
  std::mt19937_64 rng(kSeed + 5);
  const std::vector<std::size_t> counts = scratch_edge_counts(P);
  std::vector<std::vector<std::vector<double>>> inputs;
  for (std::size_t n : counts) inputs.push_back(draw_inputs<double>(rng, P, n));
  for (CollAlgo algo : {CollAlgo::Ring, CollAlgo::Rabenseifner}) {
    RunConfig cfg = scratch_cfg(mode, P);
    cfg.engine_options.allreduce_algo = algo;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::size_t n = counts[i];
        mem::Buffer ib = comm.alloc(n * sizeof(double));
        mem::Buffer ob = comm.alloc(n * sizeof(double));
        put_vec(ib, inputs[i][comm.rank()]);
        comm.allreduce(ib, 0, ob, 0, n, type_double(), Op::Sum);
        EXPECT_EQ(get_vec<double>(ob, n), reference_reduce(inputs[i], Op::Sum))
            << coll_algo_name(algo) << " P=" << P << " count=" << n
            << " rank=" << comm.rank();
        comm.free(ib);
        comm.free(ob);
      }
    });
  }
}

TEST_P(FoldScratchEdges, ReduceScatterBlock) {
  const auto [mode, P] = GetParam();
  std::mt19937_64 rng(kSeed + 6);
  const std::size_t seg = kScratchSeg / sizeof(double);
  const std::vector<std::size_t> recvcounts = {1,       seg - 1, seg,
                                               seg + 1, 2 * seg, 2 * seg + 1};
  std::vector<std::vector<std::vector<double>>> inputs;
  for (std::size_t n : recvcounts) {
    inputs.push_back(draw_inputs<double>(rng, P, n * P));
  }
  run_mpi(scratch_cfg(mode, P), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    for (std::size_t i = 0; i < recvcounts.size(); ++i) {
      const std::size_t n = recvcounts[i];
      mem::Buffer ib = comm.alloc(n * P * sizeof(double));
      mem::Buffer ob = comm.alloc(n * sizeof(double));
      put_vec(ib, inputs[i][comm.rank()]);
      comm.reduce_scatter_block(ib, 0, ob, 0, n, type_double(), Op::Sum);
      const auto expect = reference_reduce(inputs[i], Op::Sum);
      const std::vector<double> want(expect.begin() + comm.rank() * n,
                                     expect.begin() + (comm.rank() + 1) * n);
      EXPECT_EQ(get_vec<double>(ob, n), want)
          << "P=" << P << " recvcount=" << n << " rank=" << comm.rank();
      comm.free(ib);
      comm.free(ob);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, FoldScratchEdges,
    ::testing::Values(ScratchCase{MpiMode::HostMpi, 3},
                      ScratchCase{MpiMode::HostMpi, 5},
                      ScratchCase{MpiMode::HostMpi, 16},
                      ScratchCase{MpiMode::DcfaPhi, 3},
                      ScratchCase{MpiMode::DcfaPhi, 5},
                      ScratchCase{MpiMode::DcfaPhi, 16}),
    scratch_case_name);

// ---------------------------------------------------------------------------
// Rejections: forced algorithms a collective cannot run, zero segment size
// ---------------------------------------------------------------------------

namespace {

/// The MpiError message `body` raises on the ranks of `cfg` ("" if none).
std::string mpi_error(const RunConfig& cfg,
                      const std::function<void(Communicator&)>& body) {
  try {
    run_mpi(cfg, [&](RankCtx& ctx) { body(ctx.world); });
  } catch (const MpiError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(CollectiveRejections, AllreduceRefusesScatterAllgather) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.engine_options.allreduce_algo = CollAlgo::ScatterAllgather;
  const std::string what = mpi_error(cfg, [](Communicator& comm) {
    mem::Buffer ib = comm.alloc(64);
    mem::Buffer ob = comm.alloc(64);
    comm.allreduce(ib, 0, ob, 0, 8, type_double(), Op::Sum);
  });
  EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
  EXPECT_NE(what.find("'scatter_ag'"), std::string::npos) << what;
}

TEST(CollectiveRejections, BcastRefusesRing) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.engine_options.bcast_algo = CollAlgo::Ring;
  const std::string what = mpi_error(cfg, [](Communicator& comm) {
    mem::Buffer buf = comm.alloc(64);
    comm.bcast(buf, 0, 64, type_byte(), 0);
  });
  EXPECT_NE(what.find("bcast"), std::string::npos) << what;
  EXPECT_NE(what.find("'ring'"), std::string::npos) << what;
}

TEST(CollectiveRejections, AllgatherRefusesRabenseifner) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.engine_options.allgather_algo = CollAlgo::Rabenseifner;
  const std::string what = mpi_error(cfg, [](Communicator& comm) {
    mem::Buffer ib = comm.alloc(8);
    mem::Buffer ob = comm.alloc(8 * comm.size());
    comm.allgather(ib, 0, 8, type_byte(), ob, 0);
  });
  EXPECT_NE(what.find("allgather"), std::string::npos) << what;
  EXPECT_NE(what.find("'rab'"), std::string::npos) << what;
}

TEST(CollectiveRejections, ZeroSegmentBytesThrowsAtConstruction) {
  RunConfig cfg = dcfa_cfg(4);
  cfg.platform.coll_segment_bytes = 0;
  bool body_ran = false;
  const std::string what =
      mpi_error(cfg, [&](Communicator&) { body_ran = true; });
  EXPECT_NE(what.find("coll_segment_bytes must be positive"),
            std::string::npos)
      << what;
  EXPECT_FALSE(body_ran);
}
