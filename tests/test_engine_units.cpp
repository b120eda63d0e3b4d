// dcfa-lint: allow-file(raw-post) -- drives the HCA directly to isolate engine units
// Focused unit tests for protocol-engine internals: the Bootstrap wiring
// board, ring-slot geometry, packet-header invariants, and engine stats
// bookkeeping under controlled traffic.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
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
  // Local blocks sit one cache line apart in an arena chunk, not a page.
  EXPECT_EQ(layout.local_stride() % EndpointLayout::kCell, 0u);
  EXPECT_GE(layout.local_stride(), layout.local_bytes());
  EXPECT_LT(layout.local_stride(),
            layout.local_bytes() + EndpointLayout::kCell);
}

TEST(PacketHeader, DefaultsAreSane) {
  PacketHeader hdr;
  EXPECT_EQ(hdr.magic, kPacketMagic);
  EXPECT_EQ(hdr.type, PacketType::Eager);
  EXPECT_EQ(hdr.dir, PacketHeader::kToSender);
}

// --- Bootstrap --------------------------------------------------------------------

// Every rank's watch counts its pokes; a publish names one pair and wakes
// only the rank it publishes to.
TEST(Bootstrap, PublishPokesOnlyItsTarget) {
  Bootstrap boot;
  std::vector<int> pokes(4, 0);
  for (int r = 0; r < 4; ++r) boot.set_watch(r, [&pokes, r] { ++pokes[r]; });
  Bootstrap::PeerInfo info;
  info.block_addr = 0xABCD;
  boot.publish(1, 2, 0, info);
  EXPECT_EQ(pokes, (std::vector<int>{0, 0, 1, 0}));
  ASSERT_NE(boot.try_get(1, 2, 0), nullptr);
  EXPECT_EQ(boot.try_get(1, 2, 0)->block_addr, 0xABCDu);
  // The table is keyed by (from, to, epoch): nothing for the reverse
  // direction or another generation.
  EXPECT_EQ(boot.try_get(2, 1, 0), nullptr);
  EXPECT_EQ(boot.try_get(1, 2, 1), nullptr);
  boot.publish(1, 2, 1, info);
  EXPECT_NE(boot.try_get(1, 2, 1), nullptr);
  EXPECT_EQ(pokes, (std::vector<int>{0, 0, 2, 0}));
}

// Requests queue per target in arrival order, each poking its target; a
// drain hands over what `ready` accepts and leaves the rest queued.
TEST(Bootstrap, RequestsDrainPerTargetInArrivalOrder) {
  using Req = Bootstrap::PairRequest;
  Bootstrap boot;
  std::vector<int> pokes(5, 0);
  for (int r = 0; r < 5; ++r) boot.set_watch(r, [&pokes, r] { ++pokes[r]; });
  boot.request(0, 3, 0);
  boot.request(1, 3, 2);
  boot.request(2, 1, 0);
  boot.request(4, 3, 0);
  EXPECT_EQ(pokes, (std::vector<int>{0, 1, 0, 3, 0}));
  const auto all = [](const Req&) { return true; };
  // Rank 1's request is held back (its endpoint would be mid-reconnect).
  EXPECT_EQ(boot.take_requests(3, [](const Req& r) { return r.from != 1; }),
            (std::vector<Req>{{0, 0}, {4, 0}}));
  EXPECT_EQ(boot.take_requests(3, all), (std::vector<Req>{{1, 2}}));
  EXPECT_TRUE(boot.take_requests(3, all).empty());
  EXPECT_EQ(boot.take_requests(1, all), (std::vector<Req>{{2, 0}}));
  // Abandoning a pair queues a request for the peer, once.
  boot.abandon_pair(0, 2);
  boot.abandon_pair(0, 2);
  EXPECT_TRUE(boot.pair_abandoned(0, 2));
  EXPECT_FALSE(boot.pair_abandoned(2, 0));
  EXPECT_EQ(boot.take_requests(2, all), (std::vector<Req>{{0, 0}}));
  EXPECT_EQ(pokes[2], 1);
}

// The eager-setup pattern on the one board: every rank publishes to every
// peer (staggered), then waits for each peer's half on its own condition,
// woken only by publishes naming it. Any interleaving converges, and no
// half is taken before it was published.
TEST(Bootstrap, PublishAllAwaitAllConverges) {
  sim::Engine engine;
  Bootstrap boot;
  constexpr int N = 6;
  std::vector<std::unique_ptr<sim::Condition>> wake;
  for (int r = 0; r < N; ++r) {
    wake.push_back(std::make_unique<sim::Condition>(engine));
    boot.set_watch(r, [c = wake.back().get()] { c->notify_all(); });
  }
  int resolved = 0;
  for (int me = 0; me < N; ++me) {
    engine.spawn("rank" + std::to_string(me), [&, me](sim::Process& proc) {
      proc.wait(sim::microseconds(7 * me));  // stagger the publishes
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        Bootstrap::PeerInfo info;
        info.block_addr = me * 100 + peer;
        boot.publish(me, peer, 0, info);
      }
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        const Bootstrap::PeerInfo* pi = nullptr;
        while (!(pi = boot.try_get(peer, me, 0))) proc.wait_on(*wake[me]);
        EXPECT_EQ(pi->block_addr, static_cast<mem::SimAddr>(peer * 100 + me));
        EXPECT_GE(proc.now(), sim::microseconds(7 * peer));
        ++resolved;
      }
    });
  }
  engine.run();
  EXPECT_EQ(resolved, N * (N - 1));
}

// --- Endpoint memory ---------------------------------------------------------------

// Every wired endpoint registers its remote block (credit cell + ring) on
// its own; its local block (credit source + probe cell + staging) is a slice
// of the rank's staging arena, whose chunks hold 1, 2, 4, ... blocks. Three
// peers therefore cost 3 + 2 registrations, whatever the mode, the wiring
// or the fault spec. A reconnect rebuild re-registers the remote block
// alone. The only other registrations in this body are the caches' misses
// (none for eager-only traffic, subtracted anyway so the count names
// endpoint memory alone).
TEST(EndpointMemory, OneRegistrationPerEndpointPlusArenaChunks) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kPeers = kRanks - 1;
  constexpr std::uint64_t kChunks = 2;  // 1 + 2 blocks
  // Armed (probes and reconnect machinery are on) but the skip
  // keeps the wedge from ever firing, so no rebuild re-registers.
  const std::string unfired = "qp_fatal=1,qp_fatal_skip=1000000,qp_fatal_max=1";
  // One wedge, once traffic is flowing: one pair rebuilds.
  const std::string fired = "qp_fatal=1,qp_fatal_skip=4,qp_fatal_max=1";
  for (MpiMode mode : {MpiMode::HostMpi, MpiMode::DcfaPhi}) {
    for (bool lazy : {false, true}) {
      for (const std::string& spec : {std::string(), unfired, fired}) {
        SCOPED_TRACE(std::string(mode == MpiMode::HostMpi ? "host" : "phi") +
                     (lazy ? " lazy " : " eager ") + spec);
        RunConfig cfg;
        cfg.mode = mode;
        cfg.nprocs = kRanks;
        cfg.fault_spec = spec;
        cfg.engine_options.lazy_endpoints = lazy;
        Runtime rt(cfg);
        std::vector<std::uint64_t> endpoint_regs(kRanks);
        std::vector<std::uint64_t> rebuilds(kRanks);
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
          endpoint_regs[ctx.rank] = regs;
          rebuilds[ctx.rank] = eng.stats().reconnects;
          comm.free(buf);
        });
        std::uint64_t total_rebuilds = 0;
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_EQ(rt.rank_stats()[r].reconnects, rebuilds[r]);
          EXPECT_EQ(endpoint_regs[r], kPeers + kChunks + rebuilds[r])
              << "rank " << r;
          total_rebuilds += rebuilds[r];
        }
        // Both sides of the wedged pair rebuild, each registering one block.
        EXPECT_EQ(total_rebuilds, spec == fired ? 2u : 0u);
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
