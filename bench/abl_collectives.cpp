// Ablation: the collectives algorithm engine (docs/collectives.md).
//
// The paper's collectives inherit whatever the point-to-point substrate
// gives them; this harness shows why the engine picks what it picks —
// recursive doubling for latency-bound sizes, Rabenseifner in between, and
// the pipelined ring once the 2(P-1)/P*n bandwidth term plus send/recv/
// combine overlap dominates. Also sweeps bcast (binomial vs van de Geijn
// scatter+allgather), the ring's segment size, and alltoall on host_a2a's
// 48-rank HostMpi configuration with eager and lazy endpoints.

#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "mpi/runtime.hpp"
#include "mpi/traffic.hpp"

using namespace dcfa;

namespace {

sim::Time allreduce_time(mpi::CollAlgo algo, std::size_t bytes, int nprocs,
                         int iters) {
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  cfg.engine_options.allreduce_algo = algo;
  const std::size_t n = std::max<std::size_t>(bytes / sizeof(double), 1);
  return bench::max_rank_time(cfg, iters, [n](mpi::RankCtx& ctx) {
    mem::Buffer in = ctx.world.alloc(n * sizeof(double));
    mem::Buffer out = ctx.world.alloc(n * sizeof(double));
    std::memset(in.data(), 0, n * sizeof(double));
    ctx.world.allreduce(in, 0, out, 0, n, mpi::type_double(), mpi::Op::Sum);
    ctx.world.free(in);
    ctx.world.free(out);
  });
}

sim::Time bcast_time(mpi::CollAlgo algo, std::size_t bytes, int nprocs,
                     int iters) {
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  cfg.engine_options.bcast_algo = algo;
  return bench::max_rank_time(cfg, iters, [bytes](mpi::RankCtx& ctx) {
    mem::Buffer buf = ctx.world.alloc(bytes);
    if (ctx.rank == 0) std::memset(buf.data(), 0x5a, bytes);
    ctx.world.bcast(buf, 0, bytes, mpi::type_byte(), 0);
    ctx.world.free(buf);
  });
}

sim::Time ring_seg_time(std::size_t bytes, std::uint64_t seg, int nprocs,
                        int iters) {
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  cfg.engine_options.allreduce_algo = mpi::CollAlgo::Ring;
  cfg.platform.coll_segment_bytes = seg;
  const std::size_t n = bytes / sizeof(double);
  return bench::max_rank_time(cfg, iters, [n](mpi::RankCtx& ctx) {
    mem::Buffer in = ctx.world.alloc(n * sizeof(double));
    mem::Buffer out = ctx.world.alloc(n * sizeof(double));
    std::memset(in.data(), 0, n * sizeof(double));
    ctx.world.allreduce(in, 0, out, 0, n, mpi::type_double(), mpi::Op::Sum);
    ctx.world.free(in);
    ctx.world.free(out);
  });
}

/// One alltoall of `bytes` per peer on the scale tier's HostMpi config.
/// With lazy endpoints only the first call is timed: it wires every pair
/// the opening barrier did not.
sim::Time alltoall_time(std::size_t bytes, int nprocs, bool lazy, int iters) {
  mpi::RunConfig cfg = mpi::traffic::scale_run_config(nprocs);
  cfg.engine_options.lazy_endpoints = lazy;
  return bench::max_rank_time(cfg, iters, [bytes](mpi::RankCtx& ctx) {
    const std::size_t total = bytes * ctx.world.size();
    mem::Buffer in = ctx.world.alloc(total);
    mem::Buffer out = ctx.world.alloc(total);
    std::memset(in.data(), ctx.rank, total);
    ctx.world.alltoall(in, 0, bytes, mpi::type_byte(), out, 0);
    ctx.world.free(in);
    ctx.world.free(out);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  bench::JsonReport rep("abl_collectives", argc, argv);
  const int nprocs = 8;
  const int iters = quick ? 2 : 4;

  bench::banner("Ablation: collectives engine",
                "allreduce/bcast algorithm selection on 8 Phi ranks, "
                "alltoall on 16 and 48 host ranks");
  bench::claim("recursive doubling wins latency-bound sizes; the pipelined "
               "ring / Rabenseifner win bandwidth-bound ones");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4, 64 << 10, 1 << 20}
            : std::vector<std::size_t>{4,       256,      4 << 10, 64 << 10,
                                       256 << 10, 1 << 20, 4 << 20};

  {
    const std::vector<mpi::CollAlgo> algos = {
        mpi::CollAlgo::Binomial, mpi::CollAlgo::RecursiveDoubling,
        mpi::CollAlgo::Rabenseifner, mpi::CollAlgo::Ring};
    bench::Table table({"allreduce", "binomial", "rd", "rab", "ring", "best"});
    for (std::size_t bytes : sizes) {
      std::vector<std::string> row{bench::fmt_size(bytes)};
      sim::Time best = sim::kNever;
      std::size_t best_col = 0;
      for (std::size_t c = 0; c < algos.size(); ++c) {
        const sim::Time t = allreduce_time(algos[c], bytes, nprocs, iters);
        row.push_back(bench::fmt_us(t));
        if (t < best) {
          best = t;
          best_col = c;
        }
      }
      row.push_back(mpi::coll_algo_name(algos[best_col]));
      table.add_row(std::move(row));
    }
    table.print();
    rep.table("allreduce", table, {"", "us", "us", "us", "us", ""});
  }

  std::printf("\n");
  {
    bench::Table table({"bcast", "binomial", "scatter_ag", "best"});
    for (std::size_t bytes : sizes) {
      std::vector<std::string> row{bench::fmt_size(bytes)};
      const sim::Time tb =
          bcast_time(mpi::CollAlgo::Binomial, bytes, nprocs, iters);
      const sim::Time ts =
          bcast_time(mpi::CollAlgo::ScatterAllgather, bytes, nprocs, iters);
      row.push_back(bench::fmt_us(tb));
      row.push_back(bench::fmt_us(ts));
      row.push_back(ts < tb ? "scatter_ag" : "binomial");
      table.add_row(std::move(row));
    }
    table.print();
    rep.table("bcast", table, {"", "us", "us", ""});
  }

  std::printf("\n");
  {
    bench::Table table({"alltoall", "eager", "lazy"});
    for (int ranks : {16, 48}) {
      for (std::size_t bytes : {std::size_t{512}, std::size_t{32} << 10}) {
        table.add_row(
            {std::to_string(ranks) + "r/" + bench::fmt_size(bytes),
             bench::fmt_us(alltoall_time(bytes, ranks, false, iters)),
             bench::fmt_us(alltoall_time(bytes, ranks, true, 1))});
      }
    }
    table.print();
    rep.table("alltoall", table, {"", "us", "us"});
  }

  if (!quick) {
    std::printf("\n");
    bench::Table table({"ring seg", "4M allreduce"});
    for (std::uint64_t seg : {8ull << 10, 32ull << 10, 64ull << 10,
                              256ull << 10, 4ull << 20}) {
      table.add_row({bench::fmt_size(seg),
                     bench::fmt_us(ring_seg_time(4 << 20, seg, nprocs, 2))});
    }
    table.print();
    rep.table("ring_segment", table, {"", "us"});
    std::printf("\n(Tiny segments pay per-message overhead; one huge segment "
                "loses the transfer/combine overlap. The default sits at the "
                "elbow.)\n");
  }

  std::printf("\n(Per-collective virtual time in us, max over ranks. The "
              "auto selector's crossovers — coll_allreduce_small_max, "
              "coll_allreduce_ring_min, coll_bcast_large_min — should match "
              "the 'best' columns.)\n");
  return 0;
}
