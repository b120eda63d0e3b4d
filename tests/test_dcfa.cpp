// dcfa-lint: allow-file(raw-post) -- exercises the raw DCFA verbs under test
// dcfa-lint: allow-file(unchecked-result) -- registration-cost timing discards the MR on purpose
// Tests for the DCFA facility: the CMD offload protocol (client <-> host
// delegation process), the Phi-side verbs (DCFA IB IF), cost asymmetries,
// and the offloading send buffer triple (reg / sync / dereg).

#include <gtest/gtest.h>

#include <cstring>

#include "dcfa/phi_verbs.hpp"
#include "verbs/verbs.hpp"

using namespace dcfa;
using namespace dcfa::core;

namespace {

/// Two nodes, each with a SCIF channel and a host delegation process.
struct Cluster {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric{engine, platform};
  mem::NodeMemory mem0{0}, mem1{1};
  pcie::PciePort pcie0{engine, mem0, platform};
  pcie::PciePort pcie1{engine, mem1, platform};
  ib::Hca& hca0 = fabric.add_hca(mem0, pcie0);
  ib::Hca& hca1 = fabric.add_hca(mem1, pcie1);
  scif::Channel chan0{engine, pcie0, platform};
  scif::Channel chan1{engine, pcie1, platform};
  HostDelegate delegate0{chan0, hca0, mem0};
  HostDelegate delegate1{chan1, hca1, mem1};
};

}  // namespace

TEST(DcfaCmd, ResourceCreationRoundTrips) {
  Cluster c;
  bool checked = false;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    ib::ProtectionDomain* pd = verbs.alloc_pd();
    ASSERT_NE(pd, nullptr);
    ib::CompletionQueue* cq = verbs.create_cq(32);
    ASSERT_NE(cq, nullptr);
    ib::QueuePair* qp = verbs.create_qp(pd, cq, cq);
    ASSERT_NE(qp, nullptr);
    // Every created object went through the host table.
    EXPECT_EQ(c.delegate0.requests_served(), 3u);
    EXPECT_EQ(c.delegate0.table_size(), 3u);
    EXPECT_EQ(verbs.commands_issued(), 3u);
    checked = true;
  });
  c.engine.run();
  EXPECT_TRUE(checked);
}

TEST(DcfaCmd, RegMrRegistersPhiMemoryOnHostHca) {
  Cluster c;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    ib::ProtectionDomain* pd = verbs.alloc_pd();
    mem::Buffer buf = verbs.alloc_buffer(4096, 64);
    EXPECT_EQ(buf.domain(), mem::Domain::PhiGddr);
    ib::MemoryRegion* mr = verbs.reg_mr(pd, buf, ib::kRemoteWrite);
    ASSERT_NE(mr, nullptr);
    EXPECT_EQ(mr->domain(), mem::Domain::PhiGddr);
    // Registered with the node's (host-owned) HCA.
    const std::uint32_t lkey = mr->lkey();
    EXPECT_EQ(c.hca0.mr_by_lkey(lkey), mr);
    verbs.dereg_mr(mr);  // frees the MR: only the cached key is safe now
    EXPECT_EQ(c.hca0.mr_by_lkey(lkey), nullptr);
  });
  c.engine.run();
}

TEST(DcfaCmd, ForeignObjectsRejected) {
  Cluster c;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    // A PD created behind DCFA's back is not in the client handle map.
    ib::ProtectionDomain* alien = c.hca0.alloc_pd();
    mem::Buffer buf = verbs.alloc_buffer(64, 64);
    EXPECT_THROW([[maybe_unused]] ib::MemoryRegion* mr =
                     verbs.reg_mr(alien, buf, 0),
                 std::invalid_argument);
  });
  c.engine.run();
}

TEST(DcfaCmd, RegistrationCostsMuchMoreThanOnHost) {
  // The motivation for the MR cache pool (IV-B3).
  Cluster c;
  sim::Time phi_cost = 0, host_cost = 0;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    ib::ProtectionDomain* pd = verbs.alloc_pd();
    mem::Buffer buf = verbs.alloc_buffer(1 << 20, 4096);
    const sim::Time t0 = proc.now();
    (void)verbs.reg_mr(pd, buf, ib::kRemoteRead);
    phi_cost = proc.now() - t0;
  });
  c.engine.spawn("host1", [&](sim::Process& proc) {
    verbs::HostVerbs verbs(proc, c.fabric, c.mem1);
    ib::ProtectionDomain* pd = verbs.alloc_pd();
    mem::Buffer buf = verbs.alloc_buffer(1 << 20, 4096);
    const sim::Time t0 = proc.now();
    (void)verbs.reg_mr(pd, buf, ib::kRemoteRead);
    host_cost = proc.now() - t0;
  });
  c.engine.run();
  EXPECT_GT(phi_cost, 2 * host_cost);
}

TEST(Dcfa, PhiToPhiRdmaWriteEndToEnd) {
  // The paper's core capability: a Phi user-space program drives inter-node
  // InfiniBand directly; only resource creation touches the host.
  Cluster c;
  struct Shared {
    verbs::QpAddress addr{};
    mem::SimAddr raddr = 0;
    ib::MKey rkey = 0;
    bool ready = false;
  };
  Shared shared;
  sim::Condition pub(c.engine, "pub");
  bool verified = false;

  c.engine.spawn("phi1", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem1, c.chan1);
    auto* pd = verbs.alloc_pd();
    auto* cq = verbs.create_cq(16);
    auto* qp = verbs.create_qp(pd, cq, cq);
    mem::Buffer dst = verbs.alloc_buffer(1024, 64);
    auto* mr = verbs.reg_mr(pd, dst, ib::kLocalWrite | ib::kRemoteWrite);
    shared.addr = verbs.address(qp);
    shared.raddr = dst.addr();
    shared.rkey = mr->rkey();
    shared.ready = true;
    pub.notify_all();
    // Wait until the peer's data lands.
    while (dst.data()[1023] != std::byte{0x99}) {
      proc.wait(sim::microseconds(5));
    }
    verified = true;
  });

  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    auto* pd = verbs.alloc_pd();
    auto* cq = verbs.create_cq(16);
    auto* qp = verbs.create_qp(pd, cq, cq);
    while (!shared.ready) proc.wait_on(pub);
    verbs.connect(qp, shared.addr);
    mem::Buffer src = verbs.alloc_buffer(1024, 64);
    std::memset(src.data(), 0x99, 1024);
    auto* mr = verbs.reg_mr(pd, src, 0);
    ib::SendWr wr;
    wr.opcode = ib::Opcode::RdmaWrite;
    wr.sg_list = {{src.addr(), 1024, mr->lkey()}};
    wr.remote_addr = shared.raddr;
    wr.rkey = shared.rkey;
    verbs.post_send(qp, wr);
    ib::Wc wc;
    while (verbs.poll_cq(cq, 1, &wc) == 0) verbs.wait_cq(cq);
    EXPECT_EQ(wc.status, ib::WcStatus::Success);
  });
  c.engine.run();
  EXPECT_TRUE(verified);
}

TEST(Dcfa, OffloadMrSyncAndTeardown) {
  Cluster c;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    mem::Buffer user = verbs.alloc_buffer(64 * 1024, 4096);
    for (int i = 0; i < 1024; ++i) {
      user.data()[i * 64] = static_cast<std::byte>(i);
    }
    OffloadRegion region = verbs.reg_offload_mr(nullptr, user.size());
    ASSERT_TRUE(region.valid());
    EXPECT_EQ(region.size, user.size());
    // The shadow is host memory registered with the HCA.
    ib::MemoryRegion* mr = c.hca0.mr_by_rkey(region.rkey);
    ASSERT_NE(mr, nullptr);
    EXPECT_EQ(mr->domain(), mem::Domain::HostDram);

    verbs.sync_offload_mr(region, user, 0, user.size());
    const std::byte* shadow =
        c.mem0.space(mem::Domain::HostDram).resolve(region.host_addr,
                                                    region.size);
    EXPECT_EQ(std::memcmp(shadow, user.data(), user.size()), 0);

    // Partial sync at an offset only refreshes that window.
    user.data()[100] = std::byte{0xEE};
    user.data()[5000] = std::byte{0xDD};
    verbs.sync_offload_mr(region, user, 4096, 4096);
    shadow = c.mem0.space(mem::Domain::HostDram).resolve(region.host_addr,
                                                         region.size);
    EXPECT_EQ(shadow[5000], std::byte{0xDD});
    EXPECT_NE(shadow[100], std::byte{0xEE});

    EXPECT_THROW(verbs.sync_offload_mr(region, user, region.size - 8, 16),
                 std::out_of_range);

    verbs.dereg_offload_mr(region);
    EXPECT_EQ(c.hca0.mr_by_rkey(region.rkey), nullptr);
  });
  c.engine.run();
}

TEST(Dcfa, SyncOffloadUsesPhiDmaEngineTiming) {
  Cluster c;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    mem::Buffer user = verbs.alloc_buffer(1 << 20, 4096);
    OffloadRegion region = verbs.reg_offload_mr(nullptr, user.size());
    const sim::Time t0 = proc.now();
    verbs.sync_offload_mr(region, user, 0, user.size());
    const sim::Time cost = proc.now() - t0;
    const sim::Time expected =
        c.platform.phi_dma_setup +
        sim::transfer_time(1 << 20, c.platform.phi_dma_gbps);
    EXPECT_EQ(cost, expected);
  });
  c.engine.run();
}

TEST(Dcfa, DataPathAvoidsTheHost) {
  // Posting and polling must not add delegation round-trips.
  Cluster c;
  c.engine.spawn("phi0", [&](sim::Process& proc) {
    PhiVerbs verbs(proc, c.fabric, c.mem0, c.chan0);
    auto* pd = verbs.alloc_pd();
    auto* cq = verbs.create_cq(16);
    auto* qp = verbs.create_qp(pd, cq, cq);
    mem::Buffer buf = verbs.alloc_buffer(64, 64);
    auto* mr = verbs.reg_mr(pd, buf, ib::kLocalWrite | ib::kRemoteWrite);
    verbs.connect(qp, verbs.address(qp));  // loop back to ourselves

    const auto served_before = c.delegate0.requests_served();
    ib::SendWr wr;
    wr.opcode = ib::Opcode::RdmaWrite;
    wr.sg_list = {{buf.addr(), 64, mr->lkey()}};
    wr.remote_addr = buf.addr();
    wr.rkey = mr->rkey();
    verbs.post_send(qp, wr);
    ib::Wc wc;
    while (verbs.poll_cq(cq, 1, &wc) == 0) verbs.wait_cq(cq);
    EXPECT_EQ(c.delegate0.requests_served(), served_before);
  });
  c.engine.run();
}
