// dcfa-lint: allow-file(raw-post) -- drives the HCA directly to isolate engine units
// Focused unit tests for protocol-engine internals: the Bootstrap wiring
// table, ring-slot geometry, packet-header invariants, and engine stats
// bookkeeping under controlled traffic.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mpi/packet.hpp"
#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

// --- PacketHeader / SlotLayout ---------------------------------------------------

static_assert(std::is_trivially_copyable_v<PacketHeader>,
              "packet headers travel as raw bytes");

TEST(SlotLayout, GeometryIsConsistent) {
  SlotLayout layout{8192};
  EXPECT_EQ(layout.stride(),
            sizeof(PacketHeader) + 8192 + sizeof(PacketTail));
  for (int slot : {0, 1, 7, 15}) {
    EXPECT_EQ(layout.payload_off(slot),
              layout.header_off(slot) + sizeof(PacketHeader));
    // The tail always lands immediately after the payload...
    EXPECT_EQ(layout.tail_off(slot, 100), layout.payload_off(slot) + 100);
    // ...and never escapes the slot even at max payload.
    EXPECT_LE(layout.tail_off(slot, 8192) + sizeof(PacketTail),
              layout.header_off(slot + 1));
  }
}

TEST(SlotLayout, ZeroPayloadControlPackets) {
  SlotLayout layout{8192};
  EXPECT_EQ(layout.tail_off(3, 0), layout.payload_off(3));
}

TEST(EndpointLayout, CellsPrecedeTheSlotsAndNothingOverlaps) {
  const EndpointLayout layout(8192, 16);
  const SlotLayout& ring = layout.ring;
  const SlotLayout& stage = layout.staging;
  // Remote block: the credit word sits before slot 0, and the last slot's
  // tail at full payload ends exactly at the block's end, so an overrun
  // leaves the registration instead of landing on the cell.
  EXPECT_LE(EndpointLayout::kCreditCellOff + sizeof(std::uint64_t),
            ring.header_off(0));
  EXPECT_EQ(ring.tail_off(15, 8192) + sizeof(PacketTail),
            layout.remote_bytes());
  // Local block: credit source, then probe cell, then the staging slots.
  EXPECT_LE(EndpointLayout::kCreditSrcOff + sizeof(std::uint64_t),
            EndpointLayout::kProbeCellOff);
  EXPECT_LE(EndpointLayout::kProbeCellOff + EndpointLayout::kProbeCellBytes,
            stage.header_off(0));
  EXPECT_EQ(stage.tail_off(15, 8192) + sizeof(PacketTail),
            layout.local_bytes());
  EXPECT_EQ(ring.stride(), stage.stride());
}

TEST(PacketHeader, DefaultsAreSane) {
  PacketHeader hdr;
  EXPECT_EQ(hdr.magic, kPacketMagic);
  EXPECT_EQ(hdr.type, PacketType::Eager);
  EXPECT_EQ(hdr.dir, PacketHeader::kToSender);
}

// --- Bootstrap --------------------------------------------------------------------

TEST(Bootstrap, BlocksUntilPublished) {
  sim::Engine engine;
  Bootstrap boot(engine);
  sim::Time got_at = 0;
  engine.spawn("getter", [&](sim::Process& proc) {
    const auto info = boot.get(proc, 1, 0);
    got_at = proc.now();
    EXPECT_EQ(info.block_addr, 0xABCDu);
  });
  engine.spawn("putter", [&](sim::Process& proc) {
    proc.wait(sim::microseconds(100));
    Bootstrap::PeerInfo info;
    info.block_addr = 0xABCD;
    boot.put(1, 0, info);
  });
  engine.run();
  EXPECT_GE(got_at, sim::microseconds(100));
}

TEST(Bootstrap, ManyPairsResolveIndependently) {
  sim::Engine engine;
  Bootstrap boot(engine);
  int resolved = 0;
  const int N = 6;
  for (int me = 0; me < N; ++me) {
    engine.spawn("rank" + std::to_string(me), [&, me](sim::Process& proc) {
      // Publish to everyone, then collect from everyone (the engine-setup
      // pattern; any interleaving must converge).
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        Bootstrap::PeerInfo info;
        info.block_addr = me * 100 + peer;
        boot.put(me, peer, info);
      }
      proc.wait(me * 7);  // stagger
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        const auto info = boot.get(proc, peer, me);
        EXPECT_EQ(info.block_addr,
                  static_cast<mem::SimAddr>(peer * 100 + me));
        ++resolved;
      }
    });
  }
  engine.run();
  EXPECT_EQ(resolved, N * (N - 1));
}

// --- Endpoint memory ---------------------------------------------------------------

// Every wired endpoint registers exactly two blocks (EndpointLayout): the
// remote block (credit cell + ring) and the local block (credit source +
// probe cell + staging), whatever the mode, the wiring or the fault spec.
// The only other registrations in this body are the per-rank liveness
// pulse under fatal faults and the caches' misses (none for eager-only
// traffic, subtracted anyway so the count names endpoint memory alone).
TEST(EndpointMemory, TwoRegistrationsPerWiredEndpoint) {
  constexpr int kRanks = 4;
  // Armed (the pulse, probes and reconnect machinery are on) but the skip
  // keeps the wedge from ever firing, so no rebuild re-registers.
  const std::string fatal = "qp_fatal=1,qp_fatal_skip=1000000,qp_fatal_max=1";
  for (MpiMode mode : {MpiMode::HostMpi, MpiMode::DcfaPhi}) {
    for (bool lazy : {false, true}) {
      for (const std::string& spec : {std::string(), fatal}) {
        SCOPED_TRACE(std::string(mode == MpiMode::HostMpi ? "host" : "phi") +
                     (lazy ? " lazy " : " eager ") + spec);
        RunConfig cfg;
        cfg.mode = mode;
        cfg.nprocs = kRanks;
        cfg.fault_spec = spec;
        cfg.engine_options.lazy_endpoints = lazy;
        Runtime rt(cfg);
        std::vector<std::uint64_t> endpoint_regs(kRanks);
        rt.run([&](RankCtx& ctx) {
          auto& comm = ctx.world;
          mem::Buffer buf = comm.alloc(16);
          for (int d = 1; d < kRanks; ++d) {
            comm.sendrecv(buf, 0, 8, type_byte(), (ctx.rank + d) % kRanks, 1,
                          buf, 8, 8, type_byte(),
                          (ctx.rank + kRanks - d) % kRanks, 1);
          }
          comm.barrier();
          Engine& eng = comm.engine();
          std::uint64_t regs = eng.ib().hca_ref().mrs_registered_total();
          regs -= eng.mr_cache()->misses();
          if (eng.shadow_cache()) regs -= eng.shadow_cache()->misses();
          if (!spec.empty()) regs -= 1;  // the liveness pulse
          endpoint_regs[ctx.rank] = regs;
          comm.free(buf);
        });
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_EQ(rt.rank_stats()[r].reconnects, 0u);
          EXPECT_EQ(endpoint_regs[r], 2u * (kRanks - 1)) << "rank " << r;
        }
      }
    }
  }
}

// --- Engine stats -----------------------------------------------------------------

TEST(EngineStats, CountsMatchTraffic) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer small = comm.alloc(256);
    mem::Buffer large = comm.alloc(64 * 1024);
    if (ctx.rank == 0) {
      for (int i = 0; i < 3; ++i) comm.send(small, 0, 256, type_byte(), 1, 1);
      for (int i = 0; i < 2; ++i) {
        comm.send(large, 0, 64 * 1024, type_byte(), 1, 2);
      }
    } else {
      for (int i = 0; i < 3; ++i) comm.recv(small, 0, 256, type_byte(), 0, 1);
      for (int i = 0; i < 2; ++i) {
        comm.recv(large, 0, 64 * 1024, type_byte(), 0, 2);
      }
    }
    comm.free(small);
    comm.free(large);
  });
  const auto& s0 = rt.rank_stats()[0];
  EXPECT_EQ(s0.eager_sends, 3u);
  EXPECT_EQ(s0.rndv_sends, 2u);
  EXPECT_EQ(s0.offload_syncs, 2u);
  EXPECT_EQ(s0.offload_sync_bytes, 2u * 64 * 1024);
  // Receiver consumed 3 eager + 2 RTS packets at least.
  EXPECT_GE(rt.rank_stats()[1].packets_rx, 5u);
}

TEST(EngineStats, HcaEgressCountsRetransmissions) {
  // RNR on a Send/Recv pair doubles the wire traffic; the HCA's egress
  // counter exposes it (the cost abl_rdma_vs_sendrecv quantifies).
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric(engine, platform);
  mem::NodeMemory mem0(0), mem1(1);
  pcie::PciePort p0(engine, mem0, platform), p1(engine, mem1, platform);
  ib::Hca& hca0 = fabric.add_hca(mem0, p0);
  ib::Hca& hca1 = fabric.add_hca(mem1, p1);
  auto* pd0 = hca0.alloc_pd();
  auto* pd1 = hca1.alloc_pd();
  auto* cq0 = hca0.create_cq(16);
  auto* cq1 = hca1.create_cq(16);
  auto* qp0 = hca0.create_qp(pd0, cq0, cq0);
  auto* qp1 = hca1.create_qp(pd1, cq1, cq1);
  hca0.connect(qp0, hca1.lid(), qp1->qpn());
  hca1.connect(qp1, hca0.lid(), qp0->qpn());
  mem::Buffer src = mem0.alloc(mem::Domain::HostDram, 4096);
  mem::Buffer dst = mem1.alloc(mem::Domain::HostDram, 4096);
  auto* smr =
      hca0.reg_mr(pd0, mem::Domain::HostDram, src.addr(), 4096, 0);
  auto* dmr = hca1.reg_mr(pd1, mem::Domain::HostDram, dst.addr(), 4096,
                          ib::kLocalWrite);
  ib::SendWr wr;
  wr.opcode = ib::Opcode::Send;
  wr.sg_list = {{src.addr(), 4096, smr->lkey()}};
  hca0.post_send(qp0, wr);
  engine.schedule_at(sim::microseconds(500), [&] {
    ib::RecvWr rwr;
    rwr.sg_list = {{dst.addr(), 4096, dmr->lkey()}};
    hca1.post_recv(qp1, rwr);
  });
  engine.run();
  // First attempt + RNR retransmission.
  EXPECT_EQ(hca0.egress_bytes(), 2u * 4096);
}

TEST(EngineStats, NoRetransmissionWhenRecvPreposted) {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric(engine, platform);
  mem::NodeMemory mem0(0), mem1(1);
  pcie::PciePort p0(engine, mem0, platform), p1(engine, mem1, platform);
  ib::Hca& hca0 = fabric.add_hca(mem0, p0);
  ib::Hca& hca1 = fabric.add_hca(mem1, p1);
  auto* pd0 = hca0.alloc_pd();
  auto* pd1 = hca1.alloc_pd();
  auto* cq0 = hca0.create_cq(16);
  auto* cq1 = hca1.create_cq(16);
  auto* qp0 = hca0.create_qp(pd0, cq0, cq0);
  auto* qp1 = hca1.create_qp(pd1, cq1, cq1);
  hca0.connect(qp0, hca1.lid(), qp1->qpn());
  hca1.connect(qp1, hca0.lid(), qp0->qpn());
  mem::Buffer src = mem0.alloc(mem::Domain::HostDram, 4096);
  mem::Buffer dst = mem1.alloc(mem::Domain::HostDram, 4096);
  auto* smr =
      hca0.reg_mr(pd0, mem::Domain::HostDram, src.addr(), 4096, 0);
  auto* dmr = hca1.reg_mr(pd1, mem::Domain::HostDram, dst.addr(), 4096,
                          ib::kLocalWrite);
  ib::RecvWr rwr;
  rwr.sg_list = {{dst.addr(), 4096, dmr->lkey()}};
  hca1.post_recv(qp1, rwr);
  ib::SendWr wr;
  wr.opcode = ib::Opcode::Send;
  wr.sg_list = {{src.addr(), 4096, smr->lkey()}};
  hca0.post_send(qp0, wr);
  engine.run();
  EXPECT_EQ(hca0.egress_bytes(), 4096u);
}
