// Protocol-level tests: the paper's four communication protocols
// (Section IV-B3), sequence-id semantics, ANY_SOURCE locking, eager /
// rendezvous mis-prediction recovery, and the offloading send buffer path
// (IV-B4). Orderings are forced with virtual-time delays and verified
// through the engine's protocol statistics.

#include <gtest/gtest.h>

#include <cstring>

#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

constexpr std::size_t kLarge = 64 * 1024;  // rendezvous territory
constexpr std::size_t kSmall = 512;        // eager territory

RunConfig dcfa_cfg(int nprocs = 2) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  return cfg;
}

struct StatsOut {
  Engine::Stats sender, receiver;
};

/// Exchange one `bytes`-sized message 0 -> 1 with the given delays before
/// the send and receive posts; return both ranks' protocol stats.
StatsOut one_message(std::size_t bytes, sim::Time send_delay,
                     sim::Time recv_delay, RunConfig cfg = dcfa_cfg()) {
  StatsOut out;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(std::max<std::size_t>(bytes, 1));
    if (ctx.rank == 0) {
      ctx.proc.wait(send_delay);
      comm.send(buf, 0, bytes, type_byte(), 1, 1);
    } else {
      ctx.proc.wait(recv_delay);
      comm.recv(buf, 0, bytes, type_byte(), 0, 1);
    }
    comm.free(buf);
  });
  out.sender = rt.rank_stats()[0];
  out.receiver = rt.rank_stats()[1];
  return out;
}

}  // namespace

TEST(Protocols, EagerForSmallMessages) {
  auto s = one_message(kSmall, 0, 0);
  EXPECT_EQ(s.sender.eager_sends, 1u);
  EXPECT_EQ(s.sender.rndv_sends, 0u);
}

TEST(Protocols, SenderFirstRendezvous) {
  // Receive posted long after the RTS arrived: the receiver RDMA-reads.
  auto s = one_message(kLarge, 0, sim::milliseconds(1));
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.receiver.sender_first, 1u);
  EXPECT_EQ(s.receiver.receiver_first, 0u);
}

TEST(Protocols, ReceiverFirstRendezvous) {
  // Send posted long after the RTR arrived: the sender RDMA-writes.
  auto s = one_message(kLarge, sim::milliseconds(1), 0);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.sender.receiver_first, 1u);
  EXPECT_EQ(s.sender.sender_first, 0u);
}

TEST(Protocols, SimultaneousFallsBackToSenderFirst) {
  // Both sides post together: RTS and RTR cross on the wire; the sender
  // drops the RTR and the receiver follows the Sender-First path.
  auto s = one_message(kLarge, 0, 0);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.sender.rtrs_dropped, 1u);
  EXPECT_GE(s.receiver.sender_first, 1u);
}

TEST(Protocols, EagerMispredictionReceiverRendezvous) {
  // Receiver posts a big buffer (predicts rendezvous, sends RTR) but the
  // sender goes eager: receiver copies from the eager packet, the stale RTR
  // is dropped at the sender thanks to the sequence id.
  StatsOut out;
  Runtime rt(dcfa_cfg());
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kLarge);
    if (ctx.rank == 0) {
      ctx.proc.wait(sim::milliseconds(1));  // let the RTR arrive first
      comm.send(buf, 0, kSmall, type_byte(), 1, 1);
    } else {
      Status st = comm.recv(buf, 0, kLarge, type_byte(), 0, 1);
      EXPECT_EQ(st.bytes, kSmall);
    }
    comm.free(buf);
  });
  out.sender = rt.rank_stats()[0];
  out.receiver = rt.rank_stats()[1];
  EXPECT_EQ(out.sender.eager_sends, 1u);
  EXPECT_GE(out.sender.rtrs_dropped, 1u);
  EXPECT_GE(out.receiver.eager_mispredicts, 1u);
}

TEST(Protocols, SequenceIdsKeepBackToBackRendezvousStraight) {
  // Several overlapping rendezvous messages in both directions; sequence
  // ids must route every RTR/DONE to the right request.
  Runtime rt(dcfa_cfg());
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int kMsgs = 8;
    std::vector<mem::Buffer> s(kMsgs), r(kMsgs);
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      s[i] = comm.alloc(kLarge);
      r[i] = comm.alloc(kLarge);
      std::memset(s[i].data(), 0x40 + ctx.rank * 16 + i, kLarge);
    }
    for (int i = 0; i < kMsgs; ++i) {
      reqs.push_back(comm.irecv(r[i], 0, kLarge, type_byte(), 1 - ctx.rank,
                                i));
      reqs.push_back(comm.isend(s[i], 0, kLarge, type_byte(), 1 - ctx.rank,
                                i));
    }
    comm.waitall(reqs);
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ(r[i].data()[kLarge - 1],
                static_cast<std::byte>(0x40 + (1 - ctx.rank) * 16 + i));
      comm.free(s[i]);
      comm.free(r[i]);
    }
  });
}

TEST(Protocols, OffloadSendBufferUsedAboveThreshold) {
  auto s = one_message(kLarge, 0, 0);
  EXPECT_GE(s.sender.offload_syncs, 1u);
  EXPECT_GE(s.sender.offload_sync_bytes, kLarge);
}

TEST(Protocols, OffloadSendBufferSkippedBelowThreshold) {
  auto s = one_message(kSmall, 0, 0);
  EXPECT_EQ(s.sender.offload_syncs, 0u);
}

TEST(Protocols, NoOffloadModeNeverSyncs) {
  RunConfig cfg = dcfa_cfg();
  cfg.mode = MpiMode::DcfaPhiNoOffload;
  auto s = one_message(kLarge, 0, 0, cfg);
  EXPECT_EQ(s.sender.offload_syncs, 0u);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
}

TEST(Protocols, OffloadShadowCarriesFreshData) {
  // Reuse the same send buffer with changing content: every send must
  // deliver the *latest* bytes (sync_offload_mr before each post).
  run_mpi(dcfa_cfg(), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kLarge);
    if (ctx.rank == 0) {
      for (int round = 0; round < 5; ++round) {
        std::memset(buf.data(), 0x60 + round, kLarge);
        comm.send(buf, 0, kLarge, type_byte(), 1, 1);
      }
    } else {
      for (int round = 0; round < 5; ++round) {
        comm.recv(buf, 0, kLarge, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[kLarge / 2],
                  static_cast<std::byte>(0x60 + round));
      }
    }
    comm.free(buf);
  });
}

TEST(Protocols, OffloadImprovesLargeMessageLatency) {
  RunConfig with = dcfa_cfg();
  RunConfig without = dcfa_cfg();
  without.mode = MpiMode::DcfaPhiNoOffload;
  auto run_one = [](RunConfig cfg) {
    Runtime rt(cfg);
    sim::Time elapsed = 0;
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf = comm.alloc(1 << 20);
      comm.barrier();
      const sim::Time t0 = ctx.proc.now();
      if (ctx.rank == 0) {
        comm.send(buf, 0, 1 << 20, type_byte(), 1, 1);
        comm.recv(buf, 0, 1 << 20, type_byte(), 1, 1);
        elapsed = ctx.proc.now() - t0;
      } else {
        comm.recv(buf, 0, 1 << 20, type_byte(), 0, 1);
        comm.send(buf, 0, 1 << 20, type_byte(), 0, 1);
      }
      comm.free(buf);
    });
    return elapsed;
  };
  const sim::Time t_with = run_one(with);
  const sim::Time t_without = run_one(without);
  // Figure 7/8: the offloading send buffer is a big win for large messages.
  EXPECT_LT(2 * t_with, t_without);
}

TEST(AnySource, MatchesEagerFromAnyPeer) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    if (ctx.rank == 0) {
      int seen[4] = {};
      for (int i = 0; i < 3; ++i) {
        Status st = comm.recv(buf, 0, 64, type_byte(), kAnySource, 7);
        int payload = -1;
        std::memcpy(&payload, buf.data(), sizeof payload);
        EXPECT_EQ(payload, st.source);
        seen[st.source]++;
      }
      EXPECT_EQ(seen[1] + seen[2] + seen[3], 3);
      EXPECT_EQ(seen[0], 0);
    } else {
      std::memcpy(buf.data(), &ctx.rank, sizeof ctx.rank);
      comm.send(buf, 0, 64, type_byte(), 0, 7);
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(AnySource, MatchesRendezvousFromAnyPeer) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kLarge);
    if (ctx.rank == 0) {
      for (int i = 0; i < 2; ++i) {
        Status st = comm.recv(buf, 0, kLarge, type_byte(), kAnySource, 7);
        EXPECT_EQ(st.bytes, kLarge);
        EXPECT_EQ(buf.data()[17], static_cast<std::byte>(st.source));
      }
    } else {
      std::memset(buf.data(), ctx.rank, kLarge);
      comm.send(buf, 0, kLarge, type_byte(), 0, 7);
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(AnySource, LockBlocksLaterRecvsUntilMatched) {
  // Paper IV-B3: an unmatched ANY_SOURCE receive freezes sequence-id
  // assignment; later receives queue behind it and everything drains in
  // order once the wildcard meets its packet.
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer a = comm.alloc(64), b = comm.alloc(64), c = comm.alloc(64);
    if (ctx.rank == 0) {
      // Post ANY first (no matching packet yet: lock), then two specific
      // receives that must take the *following* sequence ids.
      Request r1 = comm.irecv(a, 0, 64, type_byte(), kAnySource, kAnyTag);
      Request r2 = comm.irecv(b, 0, 64, type_byte(), 1, 21);
      Request r3 = comm.irecv(c, 0, 64, type_byte(), 1, 22);
      EXPECT_FALSE(comm.test(r1));
      EXPECT_FALSE(comm.test(r2));
      comm.barrier();  // unleash the sender
      Status s1 = comm.wait(r1);
      EXPECT_EQ(s1.tag, 20);
      comm.wait(r2);
      comm.wait(r3);
      EXPECT_EQ(a.data()[0], std::byte{20});
      EXPECT_EQ(b.data()[0], std::byte{21});
      EXPECT_EQ(c.data()[0], std::byte{22});
    } else {
      comm.barrier();
      for (int tag = 20; tag <= 22; ++tag) {
        a.data()[0] = static_cast<std::byte>(tag);
        comm.send(a, 0, 64, type_byte(), 0, tag);
      }
    }
    comm.free(a);
    comm.free(b);
    comm.free(c);
  });
}

TEST(AnySource, AnyTagWildcardCombination) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(64);
    if (ctx.rank == 0) {
      for (int i = 0; i < 2; ++i) {
        Status st = comm.recv(buf, 0, 64, type_byte(), kAnySource, kAnyTag);
        EXPECT_EQ(st.tag, 100 + st.source);
      }
    } else {
      comm.send(buf, 0, 64, type_byte(), 0, 100 + ctx.rank);
    }
    comm.barrier();
    comm.free(buf);
  });
}

TEST(Protocols, CreditStallsRecoveredUnderPressure) {
  // Saturate the eager ring one-way; flow control must stall and recover.
  Runtime rt(dcfa_cfg());
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(1024);
    if (ctx.rank == 0) {
      std::vector<Request> reqs;
      for (int i = 0; i < 64; ++i) {
        reqs.push_back(comm.isend(buf, 0, 1024, type_byte(), 1, 1));
      }
      comm.waitall(reqs);
    } else {
      ctx.proc.wait(sim::milliseconds(2));  // let the ring fill
      for (int i = 0; i < 64; ++i) {
        comm.recv(buf, 0, 1024, type_byte(), 0, 1);
      }
    }
    comm.barrier();
    comm.free(buf);
  });
  EXPECT_GT(rt.rank_stats()[0].tx_stalls, 0u);
  EXPECT_GT(rt.rank_stats()[1].credits_sent, 0u);
}

TEST(Protocols, UnmatchedTagDeadlocksAndIsReported) {
  // Sequencing is per (peer, comm, tag): a receive on a tag nobody sends
  // never matches. The simulator's deadlock detector names the stuck ranks
  // instead of hanging the suite.
  EXPECT_THROW(run_mpi(dcfa_cfg(),
                       [](RankCtx& ctx) {
                         auto& comm = ctx.world;
                         mem::Buffer buf = comm.alloc(64);
                         if (ctx.rank == 0) {
                           comm.send(buf, 0, 64, type_byte(), 1, 1);
                           comm.recv(buf, 0, 64, type_byte(), 1, 9);
                         } else {
                           comm.recv(buf, 0, 64, type_byte(), 0, 1);
                         }
                       }),
               sim::DeadlockError);
}

TEST(Protocols, MispredictionRecoveryHoldsWhenFaultsDelayTheRtr) {
  // Same mis-prediction as above, but the receiver's RTR is errored by the
  // fault injector and only arrives via retransmission: the stale-RTR drop
  // at the sender must be driven by sequence state, not by timing luck.
  RunConfig cfg = dcfa_cfg();
  cfg.fault_spec = "err_wc=1,err_wc_max=1";  // candidate #0 is the RTR
  StatsOut out;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kLarge);
    if (ctx.rank == 0) {
      ctx.proc.wait(sim::milliseconds(1));  // let the retransmitted RTR land
      comm.send(buf, 0, kSmall, type_byte(), 1, 1);
    } else {
      Status st = comm.recv(buf, 0, kLarge, type_byte(), 0, 1);
      EXPECT_EQ(st.bytes, kSmall);
    }
    comm.free(buf);
  });
  out.sender = rt.rank_stats()[0];
  out.receiver = rt.rank_stats()[1];
  EXPECT_EQ(out.receiver.wc_errors, 1u);
  EXPECT_GE(out.receiver.retransmits, 1u);
  EXPECT_EQ(out.sender.eager_sends, 1u);
  EXPECT_GE(out.sender.rtrs_dropped, 1u);
  EXPECT_GE(out.receiver.eager_mispredicts, 1u);
}

TEST(Protocols, TruncationIsStillDetectedUnderFaults) {
  // A rendezvous send bigger than the posted receive must raise a clean
  // truncation error even when the RTS needed a retransmission to arrive.
  RunConfig cfg = dcfa_cfg();
  cfg.fault_spec = "err_wc=1,err_wc_max=1";  // candidate #0 is the RTS
  cfg.platform.mpi_retry_timeout = sim::microseconds(10);
  EXPECT_THROW(run_mpi(cfg,
                       [](RankCtx& ctx) {
                         auto& comm = ctx.world;
                         mem::Buffer big = comm.alloc(kLarge);
                         mem::Buffer small = comm.alloc(kSmall);
                         if (ctx.rank == 0) {
                           comm.send(big, 0, kLarge, type_byte(), 1, 1);
                         } else {
                           comm.recv(small, 0, kSmall, type_byte(), 0, 1);
                         }
                       }),
               MpiError);
}
