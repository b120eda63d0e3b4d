// Nonblocking collectives under injected transport faults. A collective
// schedule posts ordinary channel sends/receives, so the PR 1/PR 2
// retry + recovery machinery must carry it through drop/error storms and a
// wedged QP exactly as it does the blocking forms — including while several
// schedules are in flight at once. Reference equality doubles as the
// exactly-once check (a lost or duplicated segment combine changes a Sum).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "sim/fault.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

RunConfig fault_cfg(int nprocs, const std::string& spec) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  cfg.fault_spec = spec;
  cfg.fault_seed = 42;
  cfg.platform.mpi_retry_timeout = sim::microseconds(2);
  return cfg;
}

std::vector<std::vector<double>> draw_inputs(std::uint64_t seed, int nprocs,
                                             std::size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(-2, 2);
  std::vector<std::vector<double>> in(nprocs, std::vector<double>(count));
  for (auto& v : in) {
    for (auto& x : v) x = val(rng);
  }
  return in;
}

struct FaultRun {
  std::vector<double> result;  ///< rank 0's allreduce output
  sim::FaultInjector::Counters counters;
};

/// One iallreduce of `count` doubles under `spec` with forced `algo`,
/// completed nonblocking (test-spin, then wait), checked on every rank.
FaultRun iallreduce_under_faults(int nprocs, std::size_t count,
                                 CollAlgo algo,
                                 const std::string& spec) {
  RunConfig cfg = fault_cfg(nprocs, spec);
  cfg.engine_options.allreduce_algo = algo;
  cfg.platform.coll_segment_bytes = 512;
  const auto in = draw_inputs(0x1bcfa117ull + nprocs, nprocs, count);
  std::vector<double> expect = in[0];
  for (int r = 1; r < nprocs; ++r) {
    for (std::size_t i = 0; i < count; ++i) expect[i] += in[r][i];
  }
  FaultRun out;
  out.result.resize(count);
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer ib = comm.alloc(count * sizeof(double));
    mem::Buffer ob = comm.alloc(count * sizeof(double));
    std::memcpy(ib.data(), in[comm.rank()].data(), count * sizeof(double));
    Request req =
        comm.iallreduce(ib, 0, ob, 0, count, type_double(), Op::Sum);
    for (int spin = 0; spin < 5 && !comm.test(req); ++spin) {
    }
    comm.wait(req);
    std::vector<double> got(count);
    std::memcpy(got.data(), ob.data(), count * sizeof(double));
    EXPECT_EQ(got, expect) << "algo=" << coll_algo_name(algo)
                           << " spec=" << spec
                           << " P=" << nprocs << " rank=" << comm.rank();
    if (comm.rank() == 0) out.result = got;
    comm.free(ib);
    comm.free(ob);
  });
  out.counters = rt.faults()->counters();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transient faults: every algorithm's schedule recovers under loss + error
// ---------------------------------------------------------------------------

class IallreduceFaultSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(IallreduceFaultSweep, SurvivesDropAndErrStorm) {
  const CollAlgo algo = GetParam();
  std::uint64_t injected = 0;
  for (int nprocs : {3, 4, 8}) {
    const auto run = iallreduce_under_faults(nprocs, 1024, algo,
                                             "drop_wc=0.05,err_wc=0.03");
    injected += run.counters.wc_dropped + run.counters.wc_errored;
  }
  EXPECT_GT(injected, 0u) << "algo=" << coll_algo_name(algo);
}

INSTANTIATE_TEST_SUITE_P(Engine, IallreduceFaultSweep,
                         ::testing::Values(CollAlgo::Binomial,
                                           CollAlgo::RecursiveDoubling,
                                           CollAlgo::Ring,
                                           CollAlgo::Rabenseifner),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Fatal fault mid-schedule: a QP wedges while the nonblocking ring is in
// flight; recovery replays and the result still matches.
// ---------------------------------------------------------------------------

TEST(NbcFatalFault, RingIallreduceSurvivesQpWedge) {
  const auto run = iallreduce_under_faults(
      4, 1024, CollAlgo::Ring, "qp_fatal=1,qp_fatal_skip=20,qp_fatal_max=1");
  EXPECT_EQ(run.counters.qp_fatal, 1u);
}

// ---------------------------------------------------------------------------
// Overlapping schedules under faults: two concurrent collectives both
// recover, with no cross-matching between their retransmitted packets.
// ---------------------------------------------------------------------------

TEST(NbcOverlapFaults, ConcurrentSchedulesSurviveDropStorm) {
  const int nprocs = 4;
  const std::size_t count = 768;
  RunConfig cfg = fault_cfg(nprocs, "drop_wc=0.05,err_wc=0.02");
  cfg.engine_options.allreduce_algo = CollAlgo::Ring;
  cfg.platform.coll_segment_bytes = 512;
  const auto in_a = draw_inputs(0xaaull, nprocs, count);
  const auto in_b = draw_inputs(0xbbull, nprocs, count);
  std::vector<double> expect_a = in_a[0], expect_b = in_b[0];
  for (int r = 1; r < nprocs; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      expect_a[i] += in_a[r][i];
      expect_b[i] = std::max(expect_b[i], in_b[r][i]);
    }
  }
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer a_in = comm.alloc(count * sizeof(double));
    mem::Buffer a_out = comm.alloc(count * sizeof(double));
    mem::Buffer b_in = comm.alloc(count * sizeof(double));
    mem::Buffer b_out = comm.alloc(count * sizeof(double));
    std::memcpy(a_in.data(), in_a[comm.rank()].data(),
                count * sizeof(double));
    std::memcpy(b_in.data(), in_b[comm.rank()].data(),
                count * sizeof(double));
    std::vector<Request> reqs;
    reqs.push_back(
        comm.iallreduce(a_in, 0, a_out, 0, count, type_double(), Op::Sum));
    reqs.push_back(
        comm.iallreduce(b_in, 0, b_out, 0, count, type_double(), Op::Max));
    // Odd ranks wait in reverse order.
    if (comm.rank() % 2) std::reverse(reqs.begin(), reqs.end());
    comm.waitall(reqs);
    std::vector<double> got(count);
    std::memcpy(got.data(), a_out.data(), count * sizeof(double));
    EXPECT_EQ(got, expect_a) << "rank=" << comm.rank();
    std::memcpy(got.data(), b_out.data(), count * sizeof(double));
    EXPECT_EQ(got, expect_b) << "rank=" << comm.rank();
    for (const auto& b : {a_in, a_out, b_in, b_out}) comm.free(b);
  });
  EXPECT_GT(rt.faults()->counters().wc_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: same (spec, seed) => identical results and counters through
// the nonblocking path.
// ---------------------------------------------------------------------------

TEST(NbcFaultDeterminism, SameSpecSeedSameOutcome) {
  const auto a = iallreduce_under_faults(8, 2048, CollAlgo::Ring,
                                         "drop_wc=0.05,err_wc=0.03");
  const auto b = iallreduce_under_faults(8, 2048, CollAlgo::Ring,
                                         "drop_wc=0.05,err_wc=0.03");
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.counters.wc_dropped, b.counters.wc_dropped);
  EXPECT_EQ(a.counters.wc_errored, b.counters.wc_errored);
}
