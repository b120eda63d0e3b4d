// Option-matrix property tests: the engine must deliver identical data
// under every combination of its tunables (eager threshold, offload send
// buffer, MR cache, future-work delegations) — only timing may differ.

#include <gtest/gtest.h>

#include <cstring>

#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

struct OptionCombo {
  std::uint64_t eager_threshold;
  bool offload_send_buffer;
  bool mr_cache;
  bool offload_reductions;
  bool offload_datatypes;
};

class OptionMatrix : public ::testing::TestWithParam<OptionCombo> {};

std::uint64_t fingerprint(const mem::Buffer& buf, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(buf.data()[i])) * 1099511628211ull;
  }
  return h;
}

/// The standard workload: mixed-size exchanges, a strided-datatype message,
/// and an allreduce, between 3 ranks. Returns rank 0's data fingerprint.
std::uint64_t run_workload(const OptionCombo& combo) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 3;
  cfg.platform.eager_threshold = combo.eager_threshold;
  cfg.engine_options.offload_send_buffer = combo.offload_send_buffer;
  cfg.engine_options.mr_cache = combo.mr_cache;
  cfg.engine_options.offload_reductions = combo.offload_reductions;
  cfg.engine_options.offload_datatypes = combo.offload_datatypes;
  cfg.platform.mpi_offload_threshold = 16 * 1024;

  std::uint64_t fp = 0;
  run_mpi(cfg, [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    // 1. Ring exchange at sizes straddling every threshold in the sweep.
    for (std::size_t bytes : {128ul, 4096ul, 16384ul, 131072ul}) {
      mem::Buffer s = comm.alloc(bytes), r = comm.alloc(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        s.data()[i] = static_cast<std::byte>((ctx.rank * 37 + i * 11) & 0xff);
      }
      const int right = (ctx.rank + 1) % 3, left = (ctx.rank + 2) % 3;
      Request reqs[2];
      reqs[0] = comm.irecv(r, 0, bytes, type_byte(), left, 1);
      reqs[1] = comm.isend(s, 0, bytes, type_byte(), right, 1);
      comm.waitall(reqs);
      if (ctx.rank == 0) fp ^= fingerprint(r, bytes);
      comm.free(s);
      comm.free(r);
    }
    // 2. Strided vector message 1 -> 0 (exercises the pack paths).
    const Datatype vec = Datatype::vector(512, 8, 16, type_double());
    mem::Buffer v = comm.alloc(vec.extent() + 64);
    if (ctx.rank == 1) {
      auto* d = reinterpret_cast<double*>(v.data());
      for (std::size_t i = 0; i < vec.extent() / sizeof(double); ++i) {
        d[i] = static_cast<double>(i % 97);
      }
      comm.send(v, 0, 1, vec, 0, 2);
    } else if (ctx.rank == 0) {
      comm.recv(v, 0, 1, vec, 1, 2);
      fp ^= fingerprint(v, vec.extent());
    }
    // 3. Big allreduce (exercises the combine paths).
    const std::size_t n = 8192;
    mem::Buffer in = comm.alloc(n * sizeof(double));
    mem::Buffer out = comm.alloc(n * sizeof(double));
    auto* d = reinterpret_cast<double*>(in.data());
    for (std::size_t i = 0; i < n; ++i) d[i] = ctx.rank + i * 0.25;
    comm.allreduce(in, 0, out, 0, n, type_double(), Op::Sum);
    if (ctx.rank == 0) fp ^= fingerprint(out, n * sizeof(double));
    comm.barrier();
    comm.free(v);
    comm.free(in);
    comm.free(out);
  });
  return fp;
}

std::uint64_t reference_fp() {
  static const std::uint64_t fp = run_workload(
      OptionCombo{8192, true, true, false, false});
  return fp;
}

TEST_P(OptionMatrix, DataIdenticalAcrossTunings) {
  EXPECT_EQ(run_workload(GetParam()), reference_fp());
}

std::vector<OptionCombo> combos() {
  std::vector<OptionCombo> out;
  for (std::uint64_t eager : {1ull, 1024ull, 8192ull, 65536ull}) {
    for (bool offload : {false, true}) {
      out.push_back({eager, offload, true, false, false});
    }
  }
  out.push_back({8192, true, false, false, false});   // no MR cache
  out.push_back({8192, false, false, false, false});  // neither
  out.push_back({8192, true, true, true, false});     // delegated reduce
  out.push_back({8192, true, true, false, true});     // delegated pack
  out.push_back({8192, true, true, true, true});      // both delegations
  out.push_back({1, false, false, true, true});       // pathological mix
  return out;
}

INSTANTIATE_TEST_SUITE_P(Combos, OptionMatrix, ::testing::ValuesIn(combos()),
                         [](const auto& info) {
                           const auto& c = info.param;
                           std::string n = "e" +
                               std::to_string(c.eager_threshold);
                           n += c.offload_send_buffer ? "_osb" : "_noosb";
                           n += c.mr_cache ? "_mrc" : "_nomrc";
                           if (c.offload_reductions) n += "_dred";
                           if (c.offload_datatypes) n += "_dpack";
                           return n;
                         });

}  // namespace
