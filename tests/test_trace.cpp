// dcfa-lint: allow-file(raw-post) -- drives RDMA writes on bare HCA clusters
// Tests for the Chrome-trace timeline recorder, the per-cluster telemetry
// sink that owns it, and its integration with the MPI runtime.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "sim/trace.hpp"

using namespace dcfa;
using namespace dcfa::sim;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A two-node HCA cluster with one connected QP pair.
struct Cluster {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric{engine, platform};
  mem::NodeMemory mem0{0}, mem1{1};
  pcie::PciePort pcie0{engine, mem0, platform};
  pcie::PciePort pcie1{engine, mem1, platform};
  ib::Hca& hca0 = fabric.add_hca(mem0, pcie0);
  ib::Hca& hca1 = fabric.add_hca(mem1, pcie1);
  ib::QueuePair* qp0 = nullptr;
  ib::QueuePair* qp1 = nullptr;
  ib::ProtectionDomain* pd0 = hca0.alloc_pd();
  ib::ProtectionDomain* pd1 = hca1.alloc_pd();

  Cluster() {
    ib::CompletionQueue* cq0 = hca0.create_cq(64);
    ib::CompletionQueue* cq1 = hca1.create_cq(64);
    qp0 = hca0.create_qp(pd0, cq0, cq0);
    qp1 = hca1.create_qp(pd1, cq1, cq1);
    hca0.connect(qp0, hca1.lid(), qp1->qpn());
    hca1.connect(qp1, hca0.lid(), qp0->qpn());
  }

  /// Post `n` RDMA writes of growing size from node 0 to node 1.
  void post_writes(int n) {
    const std::size_t len = 64 << n;
    mem::Buffer src = mem0.alloc(mem::Domain::HostDram, len);
    mem::Buffer dst = mem1.alloc(mem::Domain::HostDram, len);
    ib::MemoryRegion* smr =
        hca0.reg_mr(pd0, mem::Domain::HostDram, src.addr(), len, 0);
    ib::MemoryRegion* dmr = hca1.reg_mr(pd1, mem::Domain::HostDram,
                                        dst.addr(), len, ib::kRemoteWrite);
    for (int i = 0; i < n; ++i) {
      ib::SendWr wr;
      wr.wr_id = i;
      wr.opcode = ib::Opcode::RdmaWrite;
      wr.sg_list = {{src.addr(), static_cast<std::uint32_t>(64 << i),
                     smr->lkey()}};
      wr.remote_addr = dst.addr();
      wr.rkey = dmr->rkey();
      hca0.post_send(qp0, wr);
    }
  }
};

}  // namespace

TEST(Tracer, RecordsSpansInstantsCounters) {
  Tracer t;
  t.span({Track::Rank, 0}, 1000, 5000, "compute");
  t.instant({Track::Rank, 0}, 2000, "marker");
  t.counter({Track::Faults, 0}, "queue_depth", 3000, 7.0);
  EXPECT_EQ(t.events(), 3u);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Durations are microseconds: 4000ns -> 4.000us.
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
  // Two tracks, named in order of first use.
  EXPECT_NE(json.find("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"rank0\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"rank0.faults\"}"),
            std::string::npos);
}

TEST(Tracer, FormatsNamesWhenSerialised) {
  Tracer t;
  t.span({Track::Hca, 3}, 0, 10, "rdma-write %zuB", std::size_t{4096});
  t.instant({Track::Faults, 2}, 5, "endpoint-suspect peer=%d (%s)", 7,
            "liveness timeout");
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"name\":\"node3.hca\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rdma-write 4096B\""), std::string::npos);
  EXPECT_NE(
      json.find("\"name\":\"endpoint-suspect peer=7 (liveness timeout)\""),
      std::string::npos);
}

TEST(Tracer, EscapesJsonSpecials) {
  Tracer t;
  t.span({Track::Rank, 0}, 0, 1, "with \"quotes\" and \\slash");
  // A name longer than any fixed record buffer keeps its closing quote.
  static const std::string long_name(300, 'x');
  t.span({Track::Rank, 0}, 0, 1, "%s", long_name.c_str());
  const std::string json = t.to_json();
  EXPECT_NE(json.find("with \\\"quotes\\\" and \\\\slash"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"" + long_name + "\"}"), std::string::npos);
}

TEST(Tracer, WriteFailureThrows) {
  Tracer t;
  t.instant({Track::Rank, 0}, 0, "marker");
  try {
    t.write("/dev/full");
    ADD_FAILURE() << "writing to a full device must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos);
  }
}

TEST(Tracer, TracingBelongsToOneCluster) {
  // Solo reference: one traced cluster on its own.
  std::string solo;
  {
    Cluster c;
    c.engine.telemetry().enable_tracing();
    c.post_writes(4);
    c.engine.run();
    solo = c.engine.telemetry().tracer()->to_json();
  }
  // Two clusters alive in one process, traffic on both, only one traced.
  Cluster traced, quiet;
  traced.engine.telemetry().enable_tracing();
  traced.post_writes(4);
  quiet.post_writes(4);
  quiet.engine.run();
  traced.engine.run();
  EXPECT_NE(solo.find("rdma-write 512B"), std::string::npos);
  EXPECT_EQ(traced.engine.telemetry().tracer()->to_json(), solo);
  EXPECT_EQ(quiet.engine.telemetry().tracer(), nullptr);
}

TEST(Tracer, RuntimeWritesTraceFile) {
  const std::string path = "/tmp/dcfa_trace_test.json";
  std::remove(path.c_str());
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.trace_path = path;
  mpi::run_mpi(cfg, [](mpi::RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64 * 1024);
    if (ctx.rank == 0) {
      comm.send(buf, 0, 64 * 1024, mpi::type_byte(), 1, 1);
    } else {
      comm.recv(buf, 0, 64 * 1024, mpi::type_byte(), 0, 1);
    }
    comm.free(buf);
  });
  const std::string json = slurp(path);
  // Tracks from every layer: MPI requests, HCA ops, Phi DMA (offload sync).
  EXPECT_NE(json.find("rank0"), std::string::npos);
  EXPECT_NE(json.find("send(offload)"), std::string::npos);
  EXPECT_NE(json.find(".hca"), std::string::npos);
  EXPECT_NE(json.find("phi-dma"), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, FailedRunKeepsItsTrace) {
  const std::string path = "/tmp/dcfa_trace_failed_test.json";
  std::remove(path.c_str());
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.trace_path = path;
  mpi::Runtime rt(cfg);
  EXPECT_THROW(rt.run([](mpi::RankCtx& ctx) {
                 auto& comm = ctx.world;
                 mem::Buffer buf = comm.alloc(64);
                 if (ctx.rank == 0) {
                   comm.send(buf, 0, 64, mpi::type_byte(), 1, 1);
                 } else {
                   comm.recv(buf, 0, 64, mpi::type_byte(), 0, 1);
                   // Rank 0 never sends tag 2: the run deadlocks.
                   comm.recv(buf, 0, 64, mpi::type_byte(), 0, 2);
                 }
                 comm.free(buf);
               }),
               DeadlockError);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("\"rank0\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, NoFileWhenPathEmpty) {
  mpi::RunConfig cfg;
  cfg.mode = mpi::MpiMode::HostMpi;
  cfg.nprocs = 2;
  mpi::Runtime rt(cfg);
  rt.run([](mpi::RankCtx& ctx) { ctx.world.barrier(); });
  EXPECT_EQ(rt.sim().telemetry().tracer(), nullptr);
}
