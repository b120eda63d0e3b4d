// dcfa-lint: allow-file(raw-post) -- baseline latency app measured below the MPI layer
#include "apps/pingpong.hpp"

#include <cstring>

namespace dcfa::apps {

using mpi::RankCtx;

PingPongResult pingpong_blocking(mpi::RunConfig config, std::size_t bytes,
                                 int iters, int warmup) {
  config.nprocs = 2;
  PingPongResult result;
  mpi::run_mpi(std::move(config), [&, bytes, iters, warmup](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(std::max<std::size_t>(bytes, 1));
    const int peer = 1 - ctx.rank;
    sim::Time start = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup && ctx.rank == 0) start = ctx.proc.now();
      if (ctx.rank == 0) {
        comm.send_bytes(buf, 0, bytes, peer, 1);
        comm.recv_bytes(buf, 0, bytes, peer, 1);
      } else {
        comm.recv_bytes(buf, 0, bytes, peer, 1);
        comm.send_bytes(buf, 0, bytes, peer, 1);
      }
    }
    if (ctx.rank == 0) {
      result.round_trip = (ctx.proc.now() - start) / iters;
      result.bandwidth_gbps =
          result.round_trip > 0
              ? static_cast<double>(2 * bytes) / result.round_trip
              : 0.0;
    }
    comm.free(buf);
  });
  return result;
}

PingPongResult pingpong_nonblocking(mpi::RunConfig config, std::size_t bytes,
                                    int iters, int warmup) {
  config.nprocs = 2;
  PingPongResult result;
  mpi::run_mpi(std::move(config), [&, bytes, iters, warmup](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer sbuf = comm.alloc(std::max<std::size_t>(bytes, 1));
    mem::Buffer rbuf = comm.alloc(std::max<std::size_t>(bytes, 1));
    const int peer = 1 - ctx.rank;
    comm.barrier();
    sim::Time start = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup && ctx.rank == 0) start = ctx.proc.now();
      mpi::Request reqs[2];
      reqs[0] = comm.irecv(rbuf, 0, bytes, mpi::type_byte(), peer, 1);
      reqs[1] = comm.isend(sbuf, 0, bytes, mpi::type_byte(), peer, 1);
      comm.waitall(reqs);
    }
    comm.barrier();
    if (ctx.rank == 0) {
      result.round_trip = (ctx.proc.now() - start) / iters;
      // Per-direction bandwidth: each exchange moves `bytes` each way
      // concurrently, so the achieved rate per direction is bytes / time.
      result.bandwidth_gbps =
          result.round_trip > 0
              ? static_cast<double>(bytes) / result.round_trip
              : 0.0;
    }
    comm.free(sbuf);
    comm.free(rbuf);
  });
  return result;
}

PingPongResult raw_rdma_pingpong(const RawRdmaConfig& config,
                                 std::size_t bytes, int iters, int warmup) {
  // Two nodes, no MPI: node 0 writes `bytes` into node 1's buffer, node 1
  // echoes. The writer of each direction owns a buffer in `src_domain`, the
  // target buffer is in `dst_domain` — the four combinations of Figure 5.
  sim::Engine engine;
  ib::Fabric fabric(engine, config.platform);
  mem::NodeMemory mem0(0), mem1(1);
  pcie::PciePort pcie0(engine, mem0, config.platform);
  pcie::PciePort pcie1(engine, mem1, config.platform);
  ib::Hca& hca0 = fabric.add_hca(mem0, pcie0);
  ib::Hca& hca1 = fabric.add_hca(mem1, pcie1);

  // Payload area plus an 8-byte iteration marker the poller watches.
  const std::size_t area = bytes + 8;
  PingPongResult result;

  struct Side {
    mem::Buffer src, dst;
    ib::ProtectionDomain* pd;
    ib::MemoryRegion *src_mr, *dst_mr;
    ib::CompletionQueue* cq;
    ib::QueuePair* qp;
  };
  Side sides[2];
  mem::NodeMemory* mems[2] = {&mem0, &mem1};
  ib::Hca* hcas[2] = {&hca0, &hca1};
  for (int s = 0; s < 2; ++s) {
    Side& sd = sides[s];
    sd.src = mems[s]->alloc(config.src_domain, area, 4096);
    sd.dst = mems[s]->alloc(config.dst_domain, area, 4096);
    sd.pd = hcas[s]->alloc_pd();
    sd.src_mr = hcas[s]->reg_mr(sd.pd, sd.src.domain(), sd.src.addr(), area,
                                ib::kLocalWrite);
    sd.dst_mr = hcas[s]->reg_mr(sd.pd, sd.dst.domain(), sd.dst.addr(), area,
                                ib::kLocalWrite | ib::kRemoteWrite);
    sd.cq = hcas[s]->create_cq(64);
    sd.qp = hcas[s]->create_qp(sd.pd, sd.cq, sd.cq);
  }
  hca0.connect(sides[0].qp, hca1.lid(), sides[1].qp->qpn());
  hca1.connect(sides[1].qp, hca0.lid(), sides[0].qp->qpn());

  sim::Condition landed0(engine, "pp.landed0"), landed1(engine, "pp.landed1");
  hca0.add_remote_write_observer([&](ib::MKey) { landed0.notify_all(); });
  hca1.add_remote_write_observer([&](ib::MKey) { landed1.notify_all(); });

  auto marker = [area](Side& sd) {
    std::uint64_t v = 0;
    std::memcpy(&v, sd.dst.data() + area - 8, 8);
    return v;
  };
  auto post_write = [&](int s, std::uint64_t iter) {
    Side& sd = sides[s];
    std::memcpy(sd.src.data() + area - 8, &iter, 8);
    ib::SendWr wr;
    wr.opcode = ib::Opcode::RdmaWrite;
    wr.signaled = false;
    wr.sg_list = {{sd.src.addr(), static_cast<std::uint32_t>(area),
                   sd.src_mr->lkey()}};
    wr.remote_addr = sides[1 - s].dst.addr();
    wr.rkey = sides[1 - s].dst_mr->rkey();
    hcas[s]->post_send(sd.qp, std::move(wr));
  };

  sim::Time start = 0;
  engine.spawn("writer", [&](sim::Process& proc) {
    const sim::Time post_cost = config.src_domain == mem::Domain::PhiGddr
                                    ? config.platform.phi_post_overhead
                                    : config.platform.host_post_overhead;
    for (int i = 1; i <= warmup + iters; ++i) {
      if (i == warmup + 1) start = proc.now();
      proc.wait(post_cost);
      post_write(0, static_cast<std::uint64_t>(i));
      while (marker(sides[0]) < static_cast<std::uint64_t>(i)) {
        proc.wait_on(landed0);
      }
    }
    result.round_trip = (proc.now() - start) / iters;
    result.bandwidth_gbps =
        result.round_trip > 0
            ? static_cast<double>(2 * bytes) / result.round_trip
            : 0.0;
  });
  engine.spawn("echoer", [&](sim::Process& proc) {
    const sim::Time post_cost = config.src_domain == mem::Domain::PhiGddr
                                    ? config.platform.phi_post_overhead
                                    : config.platform.host_post_overhead;
    for (int i = 1; i <= warmup + iters; ++i) {
      while (marker(sides[1]) < static_cast<std::uint64_t>(i)) {
        proc.wait_on(landed1);
      }
      proc.wait(post_cost);
      post_write(1, static_cast<std::uint64_t>(i));
    }
  });
  engine.run();
  return result;
}

}  // namespace dcfa::apps
