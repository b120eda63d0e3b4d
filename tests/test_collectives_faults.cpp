// Collectives under injected transport faults: the segmented/pipelined
// algorithms post far more work requests than the old reduce+bcast path,
// so they are the sharpest probe of the PR 1 retry machinery — a dropped
// or errored completion inside a pipelined step must be retried without
// losing a segment or combining one twice. With Op::Sum over non-trivial
// values, any lost/duplicated combine shows up as a wrong element, so
// reference equality IS the exactly-once check.

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
  // Tight retry clock so dropped completions recover in simulated
  // microseconds, not the wall-clock-calibrated default.
  cfg.platform.mpi_retry_timeout = sim::microseconds(2);
  return cfg;
}

template <typename T>
T combine1(Op op, T a, T b) {
  switch (op) {
    case Op::Sum: return a + b;
    case Op::Prod: return a * b;
    case Op::Max: return std::max(a, b);
    case Op::Min: return std::min(a, b);
  }
  return a;
}

/// Inputs from {-2..2} (exact under reassociation), reference = sequential.
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

/// One allreduce of `count` doubles under `spec`, forced `algo`, checked on
/// every rank against the sequential reference.
FaultRun allreduce_under_faults(int nprocs, std::size_t count,
                                CollAlgo algo,
                                const std::string& spec) {
  RunConfig cfg = fault_cfg(nprocs, spec);
  cfg.engine_options.allreduce_algo = algo;
  cfg.platform.coll_segment_bytes = 512;
  const auto in = draw_inputs(0xfa1175ull + nprocs, nprocs, count);
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
    comm.allreduce(ib, 0, ob, 0, count, type_double(), Op::Sum);
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
// Transient faults: every algorithm completes correctly under loss + error
// ---------------------------------------------------------------------------

class AllreduceFaultSweep : public ::testing::TestWithParam<CollAlgo> {};

TEST_P(AllreduceFaultSweep, SurvivesDropAndErrStorm) {
  const CollAlgo algo = GetParam();
  std::uint64_t injected = 0;
  for (int nprocs : {3, 4, 8}) {
    const auto run = allreduce_under_faults(nprocs, 1024, algo,
                                            "drop_wc=0.05,err_wc=0.03");
    injected += run.counters.wc_dropped + run.counters.wc_errored;
  }
  // The storm must have actually hit something, or this test proves nothing.
  EXPECT_GT(injected, 0u) << "algo=" << coll_algo_name(algo);
}

INSTANTIATE_TEST_SUITE_P(Engine, AllreduceFaultSweep,
                         ::testing::Values(CollAlgo::Binomial,
                                           CollAlgo::RecursiveDoubling,
                                           CollAlgo::Ring,
                                           CollAlgo::Rabenseifner),
                         [](const auto& info) {
                           return std::string(coll_algo_name(info.param));
                         });

TEST(AllgatherFaults, RingSurvivesDropStorm) {
  RunConfig cfg = fault_cfg(5, "drop_wc=0.08");
  cfg.engine_options.allgather_algo = CollAlgo::Ring;
  cfg.platform.coll_segment_bytes = 512;
  const std::size_t count = 700;
  const auto in = draw_inputs(99, 5, count);
  std::vector<double> expect;
  for (const auto& v : in) expect.insert(expect.end(), v.begin(), v.end());
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t total = count * comm.size();
    mem::Buffer ib = comm.alloc(count * sizeof(double));
    mem::Buffer ob = comm.alloc(total * sizeof(double));
    std::memcpy(ib.data(), in[comm.rank()].data(), count * sizeof(double));
    comm.allgather(ib, 0, count, type_double(), ob, 0);
    std::vector<double> got(total);
    std::memcpy(got.data(), ob.data(), total * sizeof(double));
    EXPECT_EQ(got, expect) << "rank=" << comm.rank();
    comm.free(ib);
    comm.free(ob);
  });
  EXPECT_GT(rt.faults()->counters().wc_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Fatal fault: one QP wedges mid-collective; recovery must replay exactly
// once and the reduction must still match the reference.
// ---------------------------------------------------------------------------

TEST(CollectiveFatalFault, RingAllreduceSurvivesQpWedge) {
  const auto run = allreduce_under_faults(
      4, 1024, CollAlgo::Ring, "qp_fatal=1,qp_fatal_skip=20,qp_fatal_max=1");
  EXPECT_EQ(run.counters.qp_fatal, 1u);
}

// ---------------------------------------------------------------------------
// Determinism: same (spec, seed) => identical results AND identical
// injection counters, even through the pipelined paths.
// ---------------------------------------------------------------------------

TEST(CollectiveFaultDeterminism, SameSpecSeedSameOutcome) {
  const auto a = allreduce_under_faults(8, 2048, CollAlgo::Ring,
                                        "drop_wc=0.05,err_wc=0.03");
  const auto b = allreduce_under_faults(8, 2048, CollAlgo::Ring,
                                        "drop_wc=0.05,err_wc=0.03");
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.counters.wc_dropped, b.counters.wc_dropped);
  EXPECT_EQ(a.counters.wc_errored, b.counters.wc_errored);
}
