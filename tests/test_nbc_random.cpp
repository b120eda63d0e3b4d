// Randomized reference-checked sweep of the NONBLOCKING collectives
// (mirrors tests/test_collectives_random.cpp for the blocking forms): every
// forced algorithm, communicator sizes 1..13, counts that are zero, tiny
// and not divisible by P — but posted with the i* entry points and
// completed through wait/test/waitall/waitany in randomized orders, with
// 2-3 collectives overlapping in flight on the same communicator.
//
// Values come from {-2..2} so Sum/Prod stay exact under any reassociation
// the segmented schedules produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
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

constexpr std::uint64_t kSeed = 0xdcfa'16cc'5eedull;

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

/// One forced-algorithm iallreduce, completed by a few test() polls then
/// wait. Checked on every rank; returns rank 0's result (for digests).
template <typename T>
std::vector<T> iallreduce_trial(int nprocs, std::size_t count, Op op,
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
    Request req = comm.iallreduce(ib, 0, ob, 0, count, dt, op);
    // Drive through the test path a few times before blocking — the
    // schedule must advance under test() exactly as under wait().
    for (int spin = 0; spin < 3 && !comm.test(req); ++spin) {
    }
    comm.wait(req);
    EXPECT_TRUE(req.done());
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

}  // namespace

// ---------------------------------------------------------------------------
// Iallreduce: every forced algorithm x comm sizes 1..13
// ---------------------------------------------------------------------------

class IallreduceAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(IallreduceAlgoSweep, MatchesSequentialReference) {
  const CollAlgo algo = GetParam();
  std::mt19937_64 rng(kSeed);
  const std::size_t counts[] = {0, 1, 13, 1000, 4097};
  const Op ops[] = {Op::Sum, Op::Prod, Op::Max, Op::Min};
  for (int nprocs = 1; nprocs <= 13; ++nprocs) {
    const std::size_t count = counts[rng() % std::size(counts)];
    const Op op = ops[rng() % std::size(ops)];
    const std::uint64_t seg = (rng() % 2) ? 512 : 4096;
    if (rng() % 2) {
      auto in = draw_inputs<int>(rng, nprocs, count);
      iallreduce_trial<int>(nprocs, count, op, type_int(), algo, seg, in);
    } else {
      auto in = draw_inputs<double>(rng, nprocs, count);
      iallreduce_trial<double>(nprocs, count, op, type_double(), algo, seg,
                               in);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, IallreduceAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Binomial,
                                           CollAlgo::RecursiveDoubling,
                                           CollAlgo::Ring,
                                           CollAlgo::Rabenseifner),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Ibcast / Iallgather / Ireduce_scatter_block / Ibarrier
// ---------------------------------------------------------------------------

class IbcastAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(IbcastAlgoSweep, DeliversRootPayloadToAllRanks) {
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
      Request req = comm.ibcast(buf, 0, count, type_double(), root);
      comm.wait(req);
      EXPECT_EQ(get_vec<double>(buf, count), in[0])
          << "algo=" << coll_algo_name(algo) << " P=" << nprocs
          << " root=" << root
          << " rank=" << comm.rank();
      comm.free(buf);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, IbcastAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Binomial,
                                           CollAlgo::ScatterAllgather),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

class IallgatherAlgoSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(IallgatherAlgoSweep, ConcatenatesAllContributions) {
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
      Request req = comm.iallgather(ib, 0, count, type_int(), ob, 0);
      comm.wait(req);
      EXPECT_EQ(get_vec<int>(ob, total), expect)
          << "algo=" << coll_algo_name(algo) << " P=" << nprocs
          << " rank=" << comm.rank();
      comm.free(ib);
      comm.free(ob);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, IallgatherAlgoSweep,
                         ::testing::Values(CollAlgo::Auto, CollAlgo::Ring,
                                           CollAlgo::RecursiveDoubling),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

TEST(IreduceScatterBlock, EachRankGetsItsReducedBlock) {
  std::mt19937_64 rng(kSeed + 3);
  for (int nprocs : {1, 3, 5, 8, 13}) {
    for (std::size_t recvcount :
         {std::size_t{0}, std::size_t{1}, std::size_t{257}}) {
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
        Request req = comm.ireduce_scatter_block(ib, 0, ob, 0, recvcount,
                                                 type_double(), Op::Sum);
        comm.wait(req);
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

TEST(Ibarrier, CompletesOnEveryRank) {
  for (int nprocs : {1, 2, 5, 8}) {
    run_mpi(dcfa_cfg(nprocs), [&](RankCtx& ctx) {
      Request req = ctx.world.ibarrier();
      ctx.world.wait(req);
      EXPECT_TRUE(req.done());
    });
  }
}

// ---------------------------------------------------------------------------
// Overlap: several collectives in flight at once on the same communicator,
// completed in a per-rank shuffled order.
// ---------------------------------------------------------------------------

TEST(ConcurrentCollectives, OverlappingSchedulesShuffledWaits) {
  std::mt19937_64 rng(kSeed + 4);
  const CollAlgo algos[] = {CollAlgo::Binomial, CollAlgo::RecursiveDoubling,
                            CollAlgo::Ring, CollAlgo::Rabenseifner};
  for (int nprocs : {2, 3, 4, 7, 8, 13}) {
    const std::size_t count = 1 + rng() % 700;
    auto in_a = draw_inputs<double>(rng, nprocs, count);
    auto in_b = draw_inputs<double>(rng, nprocs, count);
    auto in_c = draw_inputs<int>(rng, nprocs, count);
    const auto expect_a = reference_reduce(in_a, Op::Sum);
    const auto expect_b = reference_reduce(in_b, Op::Max);
    std::vector<int> expect_c;
    for (const auto& v : in_c) {
      expect_c.insert(expect_c.end(), v.begin(), v.end());
    }
    RunConfig cfg = dcfa_cfg(nprocs);
    cfg.engine_options.allreduce_algo = algos[rng() % std::size(algos)];
    cfg.platform.coll_segment_bytes = 512;
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      const std::size_t total = count * comm.size();
      mem::Buffer a_in = comm.alloc(count * sizeof(double));
      mem::Buffer a_out = comm.alloc(count * sizeof(double));
      mem::Buffer b_in = comm.alloc(count * sizeof(double));
      mem::Buffer b_out = comm.alloc(count * sizeof(double));
      mem::Buffer c_in = comm.alloc(count * sizeof(int));
      mem::Buffer c_out = comm.alloc(total * sizeof(int));
      put_vec(a_in, in_a[comm.rank()]);
      put_vec(b_in, in_b[comm.rank()]);
      put_vec(c_in, in_c[comm.rank()]);

      // Three schedules in flight on one communicator. Posting order is
      // identical on every rank (an MPI requirement); completion order is
      // shuffled per rank — the tag windows keep the traffic separated.
      std::vector<Request> reqs;
      reqs.push_back(
          comm.iallreduce(a_in, 0, a_out, 0, count, type_double(), Op::Sum));
      reqs.push_back(
          comm.iallreduce(b_in, 0, b_out, 0, count, type_double(), Op::Max));
      reqs.push_back(comm.iallgather(c_in, 0, count, type_int(), c_out, 0));

      std::vector<std::size_t> order = {0, 1, 2};
      std::mt19937_64 local(kSeed + 5 + comm.rank());
      std::shuffle(order.begin(), order.end(), local);
      for (std::size_t i : order) comm.wait(reqs[i]);

      EXPECT_EQ(get_vec<double>(a_out, count), expect_a)
          << "P=" << nprocs << " rank=" << comm.rank();
      EXPECT_EQ(get_vec<double>(b_out, count), expect_b)
          << "P=" << nprocs << " rank=" << comm.rank();
      EXPECT_EQ(get_vec<int>(c_out, total), expect_c)
          << "P=" << nprocs << " rank=" << comm.rank();
      for (const auto& b : {a_in, a_out, b_in, b_out, c_in, c_out}) {
        comm.free(b);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Unified handles: p2p and collective requests mixed in one completion set
// ---------------------------------------------------------------------------

TEST(MixedRequests, WaitallAcceptsP2pAndCollectives) {
  const int nprocs = 4;
  const std::size_t count = 300;
  std::mt19937_64 rng(kSeed + 6);
  auto in = draw_inputs<double>(rng, nprocs, count);
  const auto expect = reference_reduce(in, Op::Sum);
  run_mpi(dcfa_cfg(nprocs), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int to = (comm.rank() + 1) % comm.size();
    const int from = (comm.rank() - 1 + comm.size()) % comm.size();
    mem::Buffer ib = comm.alloc(count * sizeof(double));
    mem::Buffer ob = comm.alloc(count * sizeof(double));
    mem::Buffer ping = comm.alloc(sizeof(int));
    mem::Buffer pong = comm.alloc(sizeof(int));
    put_vec(ib, in[comm.rank()]);
    const int stamp = 1000 + comm.rank();
    std::memcpy(ping.data(), &stamp, sizeof stamp);

    std::vector<Request> reqs;
    reqs.push_back(comm.irecv(pong, 0, sizeof(int), type_byte(), from, 5));
    reqs.push_back(
        comm.iallreduce(ib, 0, ob, 0, count, type_double(), Op::Sum));
    reqs.push_back(comm.isend(ping, 0, sizeof(int), type_byte(), to, 5));
    reqs.push_back(comm.ibarrier());
    comm.waitall(reqs);

    int got_stamp = 0;
    std::memcpy(&got_stamp, pong.data(), sizeof got_stamp);
    EXPECT_EQ(got_stamp, 1000 + from);
    EXPECT_EQ(get_vec<double>(ob, count), expect) << "rank=" << comm.rank();
    for (const auto& b : {ib, ob, ping, pong}) comm.free(b);
  });
}

TEST(MixedRequests, WaitanyTestanyTestallDriveMixedSets) {
  const int nprocs = 2;
  const std::size_t count = 400;
  std::mt19937_64 rng(kSeed + 7);
  auto in = draw_inputs<double>(rng, nprocs, count);
  const auto expect = reference_reduce(in, Op::Sum);
  run_mpi(dcfa_cfg(nprocs), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int peer = 1 - comm.rank();
    mem::Buffer ib = comm.alloc(count * sizeof(double));
    mem::Buffer ob = comm.alloc(count * sizeof(double));
    // Distinct in/out message buffers: an isend from a buffer an in-flight
    // irecv writes into is erroneous MPI, and DcfaRace flags it.
    mem::Buffer msg_in = comm.alloc(8);
    mem::Buffer msg_out = comm.alloc(8);
    put_vec(ib, in[comm.rank()]);

    // waitany over an all-invalid set reports "nothing to wait for".
    std::vector<Request> none(3);
    EXPECT_EQ(comm.waitany(none), SIZE_MAX);
    EXPECT_TRUE(comm.testall(none));
    EXPECT_FALSE(comm.testany(none).has_value());

    std::vector<Request> reqs;
    reqs.push_back(comm.irecv(msg_in, 0, 8, type_byte(), peer, 9));
    reqs.push_back(
        comm.iallreduce(ib, 0, ob, 0, count, type_double(), Op::Sum));
    reqs.push_back(comm.isend(msg_out, 0, 8, type_byte(), peer, 9));

    // Drain the whole set through waitany; each index completes once.
    std::vector<bool> seen(reqs.size(), false);
    while (!comm.testall(reqs)) {
      if (auto idx = comm.testany(reqs)) {
        ASSERT_LT(*idx, reqs.size());
        EXPECT_FALSE(seen[*idx]);
        seen[*idx] = true;
        reqs[*idx] = Request{};  // retire so testany reports it once
        continue;
      }
      const std::size_t idx = comm.waitany(reqs);
      ASSERT_LT(idx, reqs.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
      reqs[idx] = Request{};
    }
    EXPECT_EQ(get_vec<double>(ob, count), expect) << "rank=" << comm.rank();
    for (const auto& b : {ib, ob, msg_in, msg_out}) comm.free(b);
  });
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical nonblocking results
// ---------------------------------------------------------------------------

TEST(NbcDeterminism, SameSeedSameBytes) {
  auto digest = [] {
    std::mt19937_64 rng(kSeed + 8);
    std::vector<double> all;
    for (CollAlgo algo : {CollAlgo::RecursiveDoubling, CollAlgo::Ring,
                          CollAlgo::Rabenseifner}) {
      for (int nprocs : {3, 8, 13}) {
        auto in = draw_inputs<double>(rng, nprocs, 513);
        auto r = iallreduce_trial<double>(nprocs, 513, Op::Sum,
                                          type_double(), algo, 512, in);
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
