// MPI point-to-point semantics: blocking/non-blocking, ordering, wildcards,
// status, sendrecv, datatypes over the wire, many-message stress, errors.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <string>

#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

RunConfig dcfa_cfg(int nprocs) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  return cfg;
}

void fill(mem::Buffer& buf, std::size_t n, unsigned seed) {
  for (std::size_t i = 0; i < n; ++i) {
    buf.data()[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
}

bool check(const mem::Buffer& buf, std::size_t off, std::size_t n,
           unsigned seed) {
  for (std::size_t i = 0; i < n; ++i) {
    if (buf.data()[off + i] !=
        static_cast<std::byte>((seed * 131 + i * 7) & 0xff)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(P2p, MessagesBetweenSamePairStayOrdered) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int kMsgs = 40;
    if (ctx.rank == 0) {
      mem::Buffer buf = comm.alloc(8);
      for (int i = 0; i < kMsgs; ++i) {
        std::memcpy(buf.data(), &i, sizeof i);
        comm.send(buf, 0, sizeof i, type_byte(), 1, 5);
      }
      comm.free(buf);
    } else {
      mem::Buffer buf = comm.alloc(8);
      for (int i = 0; i < kMsgs; ++i) {
        comm.recv(buf, 0, sizeof(int), type_byte(), 0, 5);
        int got = -1;
        std::memcpy(&got, buf.data(), sizeof got);
        EXPECT_EQ(got, i);
      }
      comm.free(buf);
    }
  });
}

TEST(P2p, NonblockingManyInFlight) {
  // More messages than eager ring slots: exercises credit flow control.
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int kMsgs = 100;  // > 16 slots
    const std::size_t kBytes = 256;
    std::vector<mem::Buffer> bufs;
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      bufs.push_back(comm.alloc(kBytes));
      if (ctx.rank == 0) fill(bufs.back(), kBytes, i);
    }
    for (int i = 0; i < kMsgs; ++i) {
      if (ctx.rank == 0) {
        reqs.push_back(comm.isend(bufs[i], 0, kBytes, type_byte(), 1, i));
      } else {
        reqs.push_back(comm.irecv(bufs[i], 0, kBytes, type_byte(), 0, i));
      }
    }
    comm.waitall(reqs);
    if (ctx.rank == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_TRUE(check(bufs[i], 0, kBytes, i)) << "message " << i;
      }
    }
    for (auto& b : bufs) comm.free(b);
  });
  SUCCEED();
}

TEST(P2p, StatusReportsSourceTagBytes) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(128);
    if (ctx.rank == 1) {
      comm.send(buf, 0, 77, type_byte(), 0, 13);
    } else if (ctx.rank == 0) {
      Status st = comm.recv(buf, 0, 128, type_byte(), 1, 13);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 13);
      EXPECT_EQ(st.bytes, 77u);
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(P2p, RecvShorterMessageThanBufferOk) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64 * 1024);
    if (ctx.rank == 0) {
      fill(buf, 100, 9);
      comm.send(buf, 0, 100, type_byte(), 1, 1);     // eager into big recv
      fill(buf, 20000, 10);
      comm.send(buf, 0, 20000, type_byte(), 1, 1);   // rndv into bigger recv
    } else {
      Status a = comm.recv(buf, 0, 64 * 1024, type_byte(), 0, 1);
      EXPECT_EQ(a.bytes, 100u);
      EXPECT_TRUE(check(buf, 0, 100, 9));
      Status b = comm.recv(buf, 0, 64 * 1024, type_byte(), 0, 1);
      EXPECT_EQ(b.bytes, 20000u);
      EXPECT_TRUE(check(buf, 0, 20000, 10));
    }
    comm.free(buf);
  });
}

TEST(P2p, TruncationEagerRaisesError) {
  EXPECT_THROW(run_mpi(dcfa_cfg(2),
                       [](RankCtx& ctx) {
                         auto& comm = ctx.world;
                         mem::Buffer buf = comm.alloc(4096);
                         if (ctx.rank == 0) {
                           comm.send(buf, 0, 200, type_byte(), 1, 1);
                         } else {
                           comm.recv(buf, 0, 100, type_byte(), 0, 1);
                         }
                       }),
               MpiError);
}

TEST(P2p, TruncationRendezvousRaisesErrorBothSides) {
  // Sender-rendezvous / receiver-eager prediction with oversized data:
  // paper IV-B3 — "the receiver will issue an MPI error". Our Err packet
  // extension also fails the sender instead of deadlocking it. Each rank
  // catches its error and both then meet in a barrier, so a receiver error
  // cannot end the run before the sender's arrives.
  std::array<std::string, 2> err;
  run_mpi(dcfa_cfg(2), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64 * 1024);
    try {
      if (ctx.rank == 0) {
        comm.send(buf, 0, 32 * 1024, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, 1024, type_byte(), 0, 1);
      }
    } catch (const MpiError& e) {
      err[ctx.rank] = e.what();
    }
    comm.barrier();
  });
  EXPECT_NE(err[0].find("peer aborted message (truncation)"),
            std::string::npos) << err[0];
  EXPECT_NE(err[1].find("truncation: rendezvous message"), std::string::npos)
      << err[1];
}

TEST(P2p, TruncationReceiverFirstRaisesErrorBothSides) {
  // Receiver-first rendezvous: the receive is posted (and its RTR consumed
  // by the sender, ahead of the barrier's packets in the same ring) before
  // the send starts. The RTR offers 16 KiB for a 32 KiB send, so the sender
  // refuses to write and tells the receiver with an Err packet.
  std::array<std::string, 2> err;
  run_mpi(dcfa_cfg(2), [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64 * 1024);
    try {
      if (ctx.rank == 0) {
        comm.barrier();
        comm.send(buf, 0, 32 * 1024, type_byte(), 1, 1);
      } else {
        Request r = comm.irecv(buf, 0, 16 * 1024, type_byte(), 0, 1);
        comm.barrier();
        comm.wait(r);
      }
    } catch (const MpiError& e) {
      err[ctx.rank] = e.what();
    }
    comm.barrier();
  });
  EXPECT_NE(err[0].find("truncation: send of 32768 bytes exceeds receive of "
                        "16384"),
            std::string::npos) << err[0];
  EXPECT_NE(err[1].find("peer aborted message (truncation)"),
            std::string::npos) << err[1];
}

TEST(P2p, SendToSelfMatchesRecv) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer s = comm.alloc(512);
    mem::Buffer r = comm.alloc(512);
    fill(s, 512, ctx.rank);
    Request rr = comm.irecv(r, 0, 512, type_byte(), ctx.rank, 3);
    comm.send(s, 0, 512, type_byte(), ctx.rank, 3);
    Status st = comm.wait(rr);
    EXPECT_EQ(st.source, ctx.rank);
    EXPECT_TRUE(check(r, 0, 512, ctx.rank));
    comm.free(s);
    comm.free(r);
  });
}

TEST(P2p, SendrecvExchanges) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 3000;
    mem::Buffer s = comm.alloc(kBytes);
    mem::Buffer r = comm.alloc(kBytes);
    fill(s, kBytes, ctx.rank);
    const int peer = 1 - ctx.rank;
    Status st = comm.sendrecv(s, 0, kBytes, type_byte(), peer, 4, r, 0,
                              kBytes, type_byte(), peer, 4);
    EXPECT_EQ(st.source, peer);
    EXPECT_TRUE(check(r, 0, kBytes, peer));
    comm.free(s);
    comm.free(r);
  });
}

TEST(P2p, TestPollsWithoutBlocking) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    if (ctx.rank == 0) {
      Request r = comm.irecv(buf, 0, 64, type_byte(), 1, 2);
      EXPECT_FALSE(comm.test(r));  // nothing sent yet
      comm.barrier();
      while (!comm.test(r)) ctx.proc.wait(sim::microseconds(1));
    } else {
      comm.barrier();
      comm.send(buf, 0, 64, type_byte(), 0, 2);
    }
    comm.free(buf);
  });
}

TEST(P2p, VectorDatatypeOverTheWire) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    // 4 blocks of 2 doubles with stride 3: element = 11 doubles, 8 payload.
    const Datatype vec = Datatype::vector(4, 2, 3, type_double());
    const std::size_t elems = 5;
    const std::size_t span = elems * vec.extent();
    mem::Buffer buf = comm.alloc(span + 64);
    auto* d = reinterpret_cast<double*>(buf.data());
    if (ctx.rank == 0) {
      for (std::size_t i = 0; i < span / sizeof(double); ++i) {
        d[i] = static_cast<double>(i);
      }
      comm.send(buf, 0, elems, vec, 1, 6);
    } else {
      for (std::size_t i = 0; i < span / sizeof(double); ++i) d[i] = -1.0;
      Status st = comm.recv(buf, 0, elems, vec, 0, 6);
      EXPECT_EQ(st.bytes, elems * vec.size());
      // Strided positions carry data; the gaps stay untouched.
      EXPECT_EQ(d[0], 0.0);
      EXPECT_EQ(d[1], 1.0);
      EXPECT_EQ(d[2], -1.0);  // gap
      EXPECT_EQ(d[3], 3.0);
      EXPECT_EQ(d[4], 4.0);
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(P2p, LargeVectorDatatypeUsesRendezvous) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const Datatype vec = Datatype::vector(64, 32, 64, type_double());
    const std::size_t elems = 8;  // 8 * 64*32*8 = 128KB payload
    const std::size_t span = elems * vec.extent() + 64 * 8;
    mem::Buffer buf = comm.alloc(span);
    auto* d = reinterpret_cast<double*>(buf.data());
    if (ctx.rank == 0) {
      for (std::size_t i = 0; i < span / sizeof(double); ++i) {
        d[i] = static_cast<double>(i % 1000);
      }
      comm.send(buf, 0, elems, vec, 1, 6);
    } else {
      Status st = comm.recv(buf, 0, elems, vec, 0, 6);
      EXPECT_EQ(st.bytes, elems * vec.size());
      EXPECT_EQ(d[0], 0.0);
      EXPECT_EQ(d[31], 31.0);  // end of first block
      EXPECT_EQ(d[40], 0.0);   // stride gap untouched
      EXPECT_EQ(d[64], 64.0);  // second block
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(P2p, InvalidArgumentsThrow) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    EXPECT_THROW(comm.send(buf, 0, 1, type_byte(), 5, 1), MpiError);
    EXPECT_THROW(comm.send(buf, 0, 1, type_byte(), -1, 1), MpiError);
    EXPECT_THROW(comm.send(buf, 0, 1, type_byte(), 0, -3), MpiError);
    EXPECT_THROW(comm.send(buf, 0, 100, type_byte(), 0, 1), MpiError);
    EXPECT_THROW(comm.recv(buf, 60, 10, type_byte(), 0, 1), MpiError);
    Request null_req;
    EXPECT_THROW(comm.wait(null_req), MpiError);
    comm.barrier();
    comm.free(buf);
  });
}

TEST(P2p, ZeroByteMessages) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(8);
    if (ctx.rank == 0) {
      comm.send(buf, 0, 0, type_byte(), 1, 1);
    } else {
      Status st = comm.recv(buf, 0, 0, type_byte(), 0, 1);
      EXPECT_EQ(st.bytes, 0u);
    }
    comm.free(buf);
  });
}

TEST(P2p, BidirectionalStressAllSizes) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t sizes[] = {1, 64, 4095, 8192, 8193, 65536};
    for (unsigned round = 0; round < 3; ++round) {
      for (std::size_t bytes : sizes) {
        mem::Buffer s = comm.alloc(bytes);
        mem::Buffer r = comm.alloc(bytes);
        fill(s, bytes, ctx.rank + round);
        Request reqs[2];
        reqs[0] = comm.irecv(r, 0, bytes, type_byte(), 1 - ctx.rank, 8);
        reqs[1] = comm.isend(s, 0, bytes, type_byte(), 1 - ctx.rank, 8);
        comm.waitall(reqs);
        EXPECT_TRUE(check(r, 0, bytes, (1 - ctx.rank) + round))
            << "bytes=" << bytes << " round=" << round;
        comm.free(s);
        comm.free(r);
      }
    }
  });
}

TEST(P2p, AllPairsFourRanks) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 2048;
    std::vector<mem::Buffer> sbufs, rbufs;
    std::vector<Request> reqs;
    for (int peer = 0; peer < 4; ++peer) {
      if (peer == ctx.rank) continue;
      sbufs.push_back(comm.alloc(kBytes));
      rbufs.push_back(comm.alloc(kBytes));
      fill(sbufs.back(), kBytes, ctx.rank * 10 + peer);
      reqs.push_back(
          comm.irecv(rbufs.back(), 0, kBytes, type_byte(), peer, 30 + peer));
    }
    int i = 0;
    for (int peer = 0; peer < 4; ++peer) {
      if (peer == ctx.rank) continue;
      reqs.push_back(comm.isend(sbufs[i], 0, kBytes, type_byte(), peer,
                                30 + ctx.rank));
      ++i;
    }
    comm.waitall(reqs);
    i = 0;
    for (int peer = 0; peer < 4; ++peer) {
      if (peer == ctx.rank) continue;
      EXPECT_TRUE(check(rbufs[i], 0, kBytes, peer * 10 + ctx.rank));
      ++i;
    }
    for (auto& b : sbufs) comm.free(b);
    for (auto& b : rbufs) comm.free(b);
  });
}
