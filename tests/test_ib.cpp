// dcfa-lint: allow-file(raw-post) -- this file tests the HCA verbs model itself
// Tests for the simulated InfiniBand HCA + fabric: verbs object lifecycle,
// protection checks, RDMA read/write data integrity, SGE gather/scatter,
// send/recv matching and RNR, completion ordering, a dead QP that stops
// acknowledging, and the direction-dependent bandwidth model that drives
// Figure 5.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"

using namespace dcfa;
using namespace dcfa::ib;
using dcfa::sim::Time;

namespace {

struct Cluster {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric{engine, platform};
  mem::NodeMemory mem0{0}, mem1{1};
  pcie::PciePort pcie0{engine, mem0, platform};
  pcie::PciePort pcie1{engine, mem1, platform};
  Hca& hca0 = fabric.add_hca(mem0, pcie0);
  Hca& hca1 = fabric.add_hca(mem1, pcie1);

  struct End {
    ProtectionDomain* pd;
    CompletionQueue* cq;
    QueuePair* qp;
  };
  End e0{}, e1{};

  Cluster() {
    e0.pd = hca0.alloc_pd();
    e1.pd = hca1.alloc_pd();
    e0.cq = hca0.create_cq(128);
    e1.cq = hca1.create_cq(128);
    e0.qp = hca0.create_qp(e0.pd, e0.cq, e0.cq);
    e1.qp = hca1.create_qp(e1.pd, e1.cq, e1.cq);
    hca0.connect(e0.qp, hca1.lid(), e1.qp->qpn());
    hca1.connect(e1.qp, hca0.lid(), e0.qp->qpn());
  }

  /// Drain engine and pop one completion from `cq`.
  Wc run_for_wc(CompletionQueue* cq) {
    engine.run();
    Wc wc;
    EXPECT_EQ(cq->poll(1, &wc), 1) << "no completion arrived";
    return wc;
  }
};

}  // namespace

TEST(Hca, LidsAndQpnsAreUnique) {
  Cluster c;
  EXPECT_NE(c.hca0.lid(), c.hca1.lid());
  EXPECT_NE(c.e0.qp->qpn(), 0u);
}

TEST(Hca, RegMrValidatesBacking) {
  Cluster c;
  mem::Buffer b = c.mem0.alloc(mem::Domain::HostDram, 4096);
  MemoryRegion* mr = c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, b.addr(),
                                   4096, kRemoteWrite);
  EXPECT_NE(mr->lkey(), mr->rkey());
  EXPECT_TRUE(mr->covers(b.addr() + 100, 100));
  EXPECT_FALSE(mr->covers(b.addr() + 4000, 200));
  EXPECT_THROW([[maybe_unused]] MemoryRegion* unbacked = c.hca0.reg_mr(
                   c.e0.pd, mem::Domain::HostDram, b.addr() + 1, 4096, 0),
               mem::BadAddress);
  EXPECT_THROW([[maybe_unused]] MemoryRegion* empty = c.hca0.reg_mr(
                   c.e0.pd, mem::Domain::HostDram, b.addr(), 0, 0),
               std::invalid_argument);
  const std::uint32_t lkey = mr->lkey();
  EXPECT_EQ(c.hca0.mr_by_lkey(lkey), mr);
  EXPECT_EQ(c.hca0.mr_by_rkey(mr->rkey()), mr);
  c.hca0.dereg_mr(mr);  // frees the MR: only the cached key is safe now
  EXPECT_EQ(c.hca0.mr_by_lkey(lkey), nullptr);
}

TEST(Hca, RdmaWriteMovesData) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 1024);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 1024);
  for (int i = 0; i < 1024; ++i) src.data()[i] = static_cast<std::byte>(i * 3);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 1024, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 1024, kRemoteWrite);
  SendWr wr;
  wr.wr_id = 77;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 1024, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.wr_id, 77u);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.opcode, WcOpcode::RdmaWrite);
  EXPECT_EQ(wc.byte_len, 1024u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
}

TEST(Hca, RdmaWriteGathersMultipleSges) {
  // Header + payload + tail, like the eager packet — including SGEs from
  // different memory domains (Phi header, host-shadow payload).
  Cluster c;
  mem::Buffer hdr = c.mem0.alloc(mem::Domain::PhiGddr, 16);
  mem::Buffer pay = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer tail = c.mem0.alloc(mem::Domain::PhiGddr, 4);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 84);
  std::memset(hdr.data(), 0xA1, 16);
  std::memset(pay.data(), 0xB2, 64);
  std::memset(tail.data(), 0xC3, 4);
  MemoryRegion* m1 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr, hdr.addr(), 16, 0);
  MemoryRegion* m2 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, pay.addr(), 64, 0);
  MemoryRegion* m3 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr, tail.addr(), 4, 0);
  MemoryRegion* dm = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram, dst.addr(),
                                   84, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{hdr.addr(), 16, m1->lkey()},
                {pay.addr(), 64, m2->lkey()},
                {tail.addr(), 4, m3->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dm->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.run_for_wc(c.e0.cq);
  // Destination layout: SGEs concatenated in order.
  EXPECT_EQ(dst.data()[0], std::byte{0xA1});
  EXPECT_EQ(dst.data()[15], std::byte{0xA1});
  EXPECT_EQ(dst.data()[16], std::byte{0xB2});
  EXPECT_EQ(dst.data()[79], std::byte{0xB2});
  EXPECT_EQ(dst.data()[80], std::byte{0xC3});
  EXPECT_EQ(dst.data()[83], std::byte{0xC3});
}

TEST(Hca, RdmaReadPullsData) {
  Cluster c;
  mem::Buffer local = c.mem0.alloc(mem::Domain::PhiGddr, 512);
  mem::Buffer remote = c.mem1.alloc(mem::Domain::HostDram, 512);
  for (int i = 0; i < 512; ++i) {
    remote.data()[i] = static_cast<std::byte>(255 - i % 256);
  }
  MemoryRegion* lmr = c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr,
                                    local.addr(), 512, kLocalWrite);
  MemoryRegion* rmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    remote.addr(), 512, kRemoteRead);
  SendWr wr;
  wr.opcode = Opcode::RdmaRead;
  wr.sg_list = {{local.addr(), 512, lmr->lkey()}};
  wr.remote_addr = remote.addr();
  wr.rkey = rmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.opcode, WcOpcode::RdmaRead);
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), 512), 0);
}

TEST(Hca, BadRkeyYieldsRemoteAccessErrorAndErrorState) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = 0x1234;
  wr.rkey = 0xBAD;
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
  EXPECT_EQ(c.e0.qp->state(), QpState::Error);
  // Subsequent posts flush.
  wr.wr_id = 2;
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc2 = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc2.status, WcStatus::WrFlushError);
}

// --- Transport liveness -------------------------------------------------------

namespace {

/// Post one 64-byte RDMA write from node 0 to node 1 at `post_at`, with node
/// 1's QP silenced first when `dead`; return the CQE and its arrival time.
/// `victim_body`, when set, runs as a process on the responder's side.
struct WriteOutcome {
  Wc wc;
  Time at = -1;
  bool landed = false;
};

WriteOutcome write_toward(bool dead, Time post_at,
                          std::function<void(sim::Process&)> victim_body = {}) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  std::memset(src.data(), 0x5A, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteWrite);
  if (victim_body) c.engine.spawn("victim", std::move(victim_body));
  if (dead) c.hca1.stop_answering(c.e1.qp);
  SendWr wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  WriteOutcome out;
  c.engine.schedule_at(post_at, [&] { c.hca0.post_send(c.e0.qp, wr); });
  c.e0.cq->set_on_push([&] { out.at = c.engine.now(); });
  c.engine.run();
  EXPECT_EQ(c.e0.cq->poll(1, &out.wc), 1);
  out.landed = dst.data()[0] == std::byte{0x5A};
  EXPECT_EQ(c.e0.qp->state(),
            dead ? QpState::Error : QpState::ReadyToSend);
  return out;
}

}  // namespace

// A killed process's QP answers nothing: the write moves no byte, and the
// requester learns of it only when its transport retries run out, one
// deadline after the post, with its QP in the error state.
TEST(Hca, WriteTowardADeadQpFailsAfterTheTransportDeadline) {
  EXPECT_EQ(kTransportDeadline, sim::nanoseconds(262144));
  const Time post_at = sim::microseconds(7);
  const WriteOutcome out = write_toward(/*dead=*/true, post_at);
  EXPECT_EQ(out.wc.wr_id, 9u);
  EXPECT_EQ(out.wc.status, WcStatus::RetryExceeded);
  EXPECT_EQ(out.wc.byte_len, 0u);
  EXPECT_EQ(out.at, post_at + kTransportDeadline);
  EXPECT_FALSE(out.landed);
}

// The HCA acknowledges for a live process whatever its CPU does: a write
// toward a QP whose process sits in a long wait completes as it does with
// no process at all.
TEST(Hca, WriteTowardABusyLiveProcessCompletesOnTime) {
  const Time post_at = sim::microseconds(7);
  const WriteOutcome idle = write_toward(/*dead=*/false, post_at);
  const WriteOutcome busy =
      write_toward(/*dead=*/false, post_at,
                   [](sim::Process& p) { p.wait(sim::milliseconds(5)); });
  EXPECT_EQ(busy.wc.status, WcStatus::Success);
  EXPECT_TRUE(busy.landed);
  EXPECT_GT(busy.at, post_at);
  EXPECT_LT(busy.at, post_at + sim::microseconds(5));
  EXPECT_EQ(busy.at, idle.at);
}

TEST(Hca, MissingRemoteWritePermissionRejected) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteRead);  // no write
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::RemoteAccessError);
}

TEST(Hca, BadLkeyYieldsLocalProtectionError) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, 0xBAD}};
  wr.remote_addr = 0x1;
  wr.rkey = 0x1;
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::LocalProtectionError);
}

TEST(Hca, WindowEscapingMrRejected) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 128);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 128, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 128, smr->lkey()}};
  wr.remote_addr = dst.addr();  // 128 bytes into a 64-byte window
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::RemoteAccessError);
}

TEST(Hca, PostOnUnconnectedQpThrows) {
  Cluster c;
  QueuePair* fresh = c.hca0.create_qp(c.e0.pd, c.e0.cq, c.e0.cq);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  EXPECT_THROW(c.hca0.post_send(fresh, wr), std::logic_error);
}

TEST(Hca, SendRecvDeliversDataAndMetadata) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 256);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 256);
  std::memset(src.data(), 0x7E, 256);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 256, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 256, kLocalWrite);
  RecvWr rwr;
  rwr.wr_id = 9;
  rwr.sg_list = {{dst.addr(), 256, dmr->lkey()}};
  c.hca1.post_recv(c.e1.qp, rwr);
  SendWr wr;
  wr.wr_id = 8;
  wr.opcode = Opcode::Send;
  wr.imm_data = 0xFACE;
  wr.sg_list = {{src.addr(), 256, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  Wc rwc;
  ASSERT_EQ(c.e1.cq->poll(1, &rwc), 1);
  EXPECT_EQ(rwc.wr_id, 9u);
  EXPECT_EQ(rwc.opcode, WcOpcode::Recv);
  EXPECT_EQ(rwc.byte_len, 256u);
  EXPECT_EQ(rwc.imm_data, 0xFACEu);
  EXPECT_EQ(rwc.src_qp, c.e0.qp->qpn());
  Wc swc;
  ASSERT_EQ(c.e0.cq->poll(1, &swc), 1);
  EXPECT_EQ(swc.wr_id, 8u);
  EXPECT_EQ(dst.data()[200], std::byte{0x7E});
}

TEST(Hca, SendBeforeRecvWaitsRnrThenCompletes) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kLocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  // Post the receive later, from an event.
  c.engine.schedule_at(sim::microseconds(100), [&] {
    RecvWr rwr;
    rwr.sg_list = {{dst.addr(), 64, dmr->lkey()}};
    c.hca1.post_recv(c.e1.qp, rwr);
  });
  c.engine.run();
  Wc wc;
  ASSERT_EQ(c.e1.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::Success);
  // Completion is after the recv post plus the RNR retry delay.
  EXPECT_GE(c.engine.now(),
            sim::microseconds(100) + c.platform.rnr_retry_delay);
}

TEST(Hca, SendLongerThanRecvIsInvalidRequest) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 128);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 128, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kLocalWrite);
  RecvWr rwr;
  rwr.sg_list = {{dst.addr(), 64, dmr->lkey()}};
  c.hca1.post_recv(c.e1.qp, rwr);
  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sg_list = {{src.addr(), 128, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  Wc wc;
  ASSERT_EQ(c.e1.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::RemoteInvalidRequest);
  ASSERT_EQ(c.e0.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::RemoteInvalidRequest);
}

TEST(Hca, CompletionsArriveInPostingOrderPerQp) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 1 << 20);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 1 << 20);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 1 << 20, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 1 << 20, kRemoteWrite);
  // Big write then tiny write: the tiny one must not complete first.
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.wr_id = 100 + i;
    wr.opcode = Opcode::RdmaWrite;
    wr.sg_list = {{src.addr(),
                   static_cast<std::uint32_t>(i == 0 ? (1 << 20) : 8),
                   smr->lkey()}};
    wr.remote_addr = dst.addr();
    wr.rkey = dmr->rkey();
    c.hca0.post_send(c.e0.qp, wr);
  }
  c.engine.run();
  Wc wc[4];
  ASSERT_EQ(c.e0.cq->poll(4, wc), 2);
  EXPECT_EQ(wc[0].wr_id, 100u);
  EXPECT_EQ(wc[1].wr_id, 101u);
}

TEST(Hca, CqOverrunThrows) {
  Cluster c;
  CompletionQueue* tiny = c.hca0.create_cq(1);
  QueuePair* qp = c.hca0.create_qp(c.e0.pd, tiny, tiny);
  c.hca0.connect(qp, c.hca1.lid(), c.e1.qp->qpn());
  c.hca1.connect(c.e1.qp, c.hca0.lid(), qp->qpn());
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.opcode = Opcode::RdmaWrite;
    wr.sg_list = {{src.addr(), 8, smr->lkey()}};
    wr.remote_addr = dst.addr();
    wr.rkey = dmr->rkey();
    c.hca0.post_send(qp, wr);
  }
  EXPECT_THROW(c.engine.run(), std::runtime_error);
}

TEST(Hca, UnsignaledWritesProduceNoCqe) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  src.data()[0] = std::byte{0x42};
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.signaled = false;
  wr.sg_list = {{src.addr(), 8, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  EXPECT_EQ(c.e0.cq->depth(), 0u);
  EXPECT_EQ(dst.data()[0], std::byte{0x42});  // data still moved
}

TEST(Hca, RemoteWriteObserversFire) {
  Cluster c;
  std::vector<MKey> landed;
  c.hca1.add_remote_write_observer([&](MKey rkey) { landed.push_back(rkey); });
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 8, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  // The callback names the region the write landed in.
  EXPECT_EQ(landed, std::vector<MKey>{dmr->rkey()});
}

TEST(Hca, RemoteWriteObserverFiresForMrDeregisteredInFlight) {
  Cluster c;
  std::vector<MKey> landed;
  c.hca1.add_remote_write_observer([&](MKey rkey) { landed.push_back(rkey); });
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  src.data()[0] = std::byte{0x42};
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.signaled = false;
  wr.sg_list = {{src.addr(), 8, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  const MKey rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.hca1.dereg_mr(dmr);  // the write is posted but has not landed yet
  c.engine.run();
  // The write is dropped at landing, but observers still hear of it, with
  // the now-stale rkey: listeners must tolerate keys they no longer know.
  EXPECT_EQ(dst.data()[0], std::byte{0});
  EXPECT_EQ(landed, std::vector<MKey>{rkey});
}

TEST(Hca, RegistrationPinsStorageAcrossFree) {
  // Registration pins the window's pages, as on real verbs: freeing the
  // buffer under a live MR releases its simulated address at once, but its
  // storage stays valid for the HCA until the MR is deregistered.
  Cluster c;
  mem::AddressSpace& space = c.mem1.space(mem::Domain::HostDram);
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteWrite);
  std::weak_ptr<std::byte> storage = space.pin(dst.addr(), 64);
  const std::size_t in_use = space.bytes_in_use();
  space.free(dst);
  EXPECT_THROW(space.resolve(dst.addr(), 64), mem::BadAddress);
  EXPECT_EQ(space.bytes_in_use(), in_use - 64);
  EXPECT_FALSE(storage.expired());

  for (int i = 0; i < 64; ++i) src.data()[i] = static_cast<std::byte>(i + 1);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::Success);
  // The bytes landed in the pinned storage; reading it is no use-after-free.
  EXPECT_EQ(std::memcmp(dmr->host(dst.addr()), src.data(), 64), 0);

  c.hca1.dereg_mr(dmr);
  EXPECT_TRUE(storage.expired());
}

namespace {
/// Target-side endpoint polls of a 2-rank run in which rank 0 RDMA-writes
/// `puts` times into rank 1's window: rkeys the MPI engine does not map to
/// an endpoint. Each landing wakes rank 1, which then runs a progress pass.
std::uint64_t target_polls_under_window_writes(int puts) {
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::HostMpi;
  cfg.nprocs = 2;
  mpi::Runtime rt(cfg);
  rt.run([puts](mpi::RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(4096);
    mem::Buffer src = comm.alloc(4096);
    mpi::Window win(comm, wbuf, 0, 4096);
    win.fence();
    if (ctx.rank == 0) {
      for (int i = 0; i < puts; ++i) {
        win.put(src, 0, 64, mpi::type_byte(), /*target=*/1,
                /*disp=*/static_cast<std::size_t>(i) * 64);
      }
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
  return rt.rank_stats()[1].endpoint_polls;
}
}  // namespace

TEST(Hca, MpiEngineIgnoresLandingsOnUnknownRkeys) {
  // Window landings wake the target but mark no endpoint, so its poll count
  // does not grow with their number.
  EXPECT_EQ(target_polls_under_window_writes(32),
            target_polls_under_window_writes(1));
}

// --- Timing model: the Figure 5 asymmetry at the verbs level ----------------

namespace {
/// One-way latency of a large RDMA write with the given buffer domains.
Time one_way(mem::Domain src_d, mem::Domain dst_d, std::size_t bytes) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(src_d, bytes);
  mem::Buffer dst = c.mem1.alloc(dst_d, bytes);
  MemoryRegion* smr = c.hca0.reg_mr(c.e0.pd, src_d, src.addr(), bytes, 0);
  MemoryRegion* dmr =
      c.hca1.reg_mr(c.e1.pd, dst_d, dst.addr(), bytes, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), static_cast<std::uint32_t>(bytes), smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  return c.engine.now();
}
}  // namespace

TEST(HcaTiming, PhiSourceIsTheBottleneck) {
  const std::size_t mb = 1 << 20;
  const Time hh = one_way(mem::Domain::HostDram, mem::Domain::HostDram, mb);
  const Time hp = one_way(mem::Domain::HostDram, mem::Domain::PhiGddr, mb);
  const Time ph = one_way(mem::Domain::PhiGddr, mem::Domain::HostDram, mb);
  const Time pp = one_way(mem::Domain::PhiGddr, mem::Domain::PhiGddr, mb);
  // Figure 5: host-sourced transfers are equivalent; Phi-sourced transfers
  // are >4x slower regardless of destination.
  EXPECT_NEAR(static_cast<double>(hp) / hh, 1.0, 0.1);
  EXPECT_NEAR(static_cast<double>(pp) / ph, 1.0, 0.1);
  EXPECT_GT(static_cast<double>(ph) / hh, 4.0);
}

TEST(HcaTiming, LargeTransferApproachesBottleneckBandwidth) {
  const std::size_t bytes = 8 << 20;
  const Time t = one_way(mem::Domain::HostDram, mem::Domain::HostDram, bytes);
  const double gbps = static_cast<double>(bytes) / t;
  sim::Platform p;
  EXPECT_GT(gbps, p.ib_wire_gbps * 0.85);
  EXPECT_LE(gbps, p.ib_wire_gbps * 1.01);
}

TEST(HcaTiming, SmallTransferIsLatencyDominated) {
  const Time t = one_way(mem::Domain::HostDram, mem::Domain::HostDram, 8);
  sim::Platform p;
  // Wire propagation plus fixed DMA/WQE latencies and the write ACK, but no
  // meaningful serialisation time.
  const Time floor = p.ib_hop_latency * p.ib_hops;
  EXPECT_GE(t, floor);
  EXPECT_LE(t, 2 * floor + sim::microseconds(2));
}
