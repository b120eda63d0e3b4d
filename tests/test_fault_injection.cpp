// Fault-injection tests: the deterministic FaultInjector (sim/fault.hpp)
// driving the recovery machinery of the MPI engine and the DCFA CMD
// channel. Every scenario pins an exact fault via the spec's probability +
// skip/max targeting, then asserts both that the run still produces correct
// data (exactly-once delivery) and that the recovery counters show the
// repair actually happened the expected way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mpi/channel.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"
#include "sim/fault.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {

constexpr std::size_t kLarge = 64 * 1024;  // rendezvous territory
constexpr std::size_t kSmall = 512;        // eager territory

RunConfig fault_cfg(const std::string& spec, std::uint64_t seed = 42) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  cfg.fault_spec = spec;
  cfg.fault_seed = seed;
  return cfg;
}

struct StatsOut {
  Engine::Stats sender, receiver;
};

/// One `bytes`-sized message 0 -> 1 with a pattern fill + verify, under the
/// given fault config; returns both ranks' stats.
StatsOut one_faulty_message(std::size_t bytes, sim::Time send_delay,
                            sim::Time recv_delay, RunConfig cfg,
                            sim::FaultInjector::Counters* injected = nullptr) {
  StatsOut out;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(bytes);
    if (ctx.rank == 0) {
      std::memset(buf.data(), 0x5A, bytes);
      ctx.proc.wait(send_delay);
      comm.send(buf, 0, bytes, type_byte(), 1, 1);
    } else {
      ctx.proc.wait(recv_delay);
      Status st = comm.recv(buf, 0, bytes, type_byte(), 0, 1);
      EXPECT_EQ(st.bytes, bytes);
      EXPECT_EQ(buf.data()[0], std::byte{0x5A});
      EXPECT_EQ(buf.data()[bytes - 1], std::byte{0x5A});
    }
    comm.free(buf);
  });
  out.sender = rt.rank_stats()[0];
  out.receiver = rt.rank_stats()[1];
  if (injected) *injected = rt.faults()->counters();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesKeysProbabilitiesAndTargeting) {
  auto s = sim::FaultInjector::Spec::parse(
      "drop_wc=0.25,err_wc=1;err_wc_skip=2,err_wc_max=3,"
      "delay_dma=0.5,delay_dma_ns=7000,credit_slots=2,"
      "cmd_fail=1,cmd_op=offload,cmd_drop=0.1,cmd_drop_max=4");
  EXPECT_DOUBLE_EQ(s.drop_wc, 0.25);
  EXPECT_DOUBLE_EQ(s.err_wc, 1.0);
  EXPECT_EQ(s.err_wc_skip, 2u);
  EXPECT_EQ(s.err_wc_max, 3u);
  EXPECT_DOUBLE_EQ(s.delay_dma, 0.5);
  EXPECT_EQ(s.delay_dma_ns, sim::Time{7000});
  EXPECT_EQ(s.credit_slots, 2);
  EXPECT_FALSE(s.cmd_filter_any);
  EXPECT_EQ(s.cmd_filter, sim::FaultInjector::CmdOpClass::Offload);
  EXPECT_EQ(s.cmd_drop_max, 4u);
  EXPECT_TRUE(s.armed());

  EXPECT_FALSE(sim::FaultInjector::Spec::parse("").armed());
  EXPECT_FALSE(sim::FaultInjector::Spec::parse("drop_wc=0").armed());
}

TEST(FaultSpec, RejectsMalformedInput) {
  using Spec = sim::FaultInjector::Spec;
  EXPECT_THROW(Spec::parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("drop_wc=notanumber"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("drop_wc=1.5"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("no_equals_sign"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("cmd_op=floppy"), std::invalid_argument);
}

TEST(FaultSpec, CreditCapClampsToRingDepth) {
  sim::FaultInjector fi(sim::FaultInjector::Spec::parse("credit_slots=2"),
                        /*seed=*/1);
  EXPECT_EQ(fi.credit_cap(16), 2);
  sim::FaultInjector wide(sim::FaultInjector::Spec::parse("credit_slots=99"),
                          /*seed=*/1);
  EXPECT_EQ(wide.credit_cap(16), 16);
  sim::FaultInjector off(sim::FaultInjector::Spec{}, /*seed=*/1);
  EXPECT_EQ(off.credit_cap(16), 16);
}

// ---------------------------------------------------------------------------
// Eager path: lost completions, retransmission, exactly-once
// ---------------------------------------------------------------------------

TEST(FaultInjection, DroppedEagerCompletionRetransmitsExactlyOnce) {
  // The eager packet's CQE is silently dropped while the receiver is still
  // asleep (no credit can acknowledge it either): the retry timer must fire
  // and retransmit into the same slot, and the receiver must see the
  // message exactly once.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::microseconds(10);
  sim::FaultInjector::Counters injected;
  auto s = one_faulty_message(kSmall, 0, sim::microseconds(100), cfg,
                              &injected);
  EXPECT_EQ(injected.wc_dropped, 1u);
  EXPECT_EQ(s.sender.eager_sends, 1u);
  EXPECT_GE(s.sender.wc_timeouts, 1u);
  EXPECT_GE(s.sender.retransmits, 1u);
  EXPECT_EQ(s.sender.retry_exhausted, 0u);
  EXPECT_EQ(s.receiver.packets_rx, 1u);  // exactly once
}

TEST(FaultInjection, CreditActsAsImplicitAckWhenCqeIsLost) {
  // Same dropped CQE, but the receiver consumes immediately and finalizes,
  // and the credit it flushes reaches the sender before the (long) retry
  // timer: the packet is confirmed by credit alone, with no retransmission.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::milliseconds(1);
  auto s = one_faulty_message(kSmall, 0, 0, cfg);
  EXPECT_GE(s.sender.credit_acked, 1u);
  EXPECT_EQ(s.sender.retransmits, 0u);
  EXPECT_EQ(s.receiver.packets_rx, 1u);
}

// ---------------------------------------------------------------------------
// One ack rule, armed or not: every packet piggybacks its sender's
// consumption, a credit is written every max(1, slots/4) unreported
// consumptions, an armed rank flushes what is unreported before it sleeps,
// and any covering credit acknowledges
// ---------------------------------------------------------------------------

TEST(FaultInjection, ArmedEndpointsBatchCreditsLikeUnarmedOnes) {
  // A spec that is armed but never fires tracks every packet, yet returns
  // exactly the credits of an unarmed run. In the ping-pong each reply
  // carries the consumption of the message it answers, so no period fills
  // and nothing is left to flush. In the one-way stream that follows, the
  // receiver consumes a full ring in one pass: one credit per period.
  auto body = [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const int slots = ctx.platform.eager_slots;
    std::vector<mem::Buffer> bufs(slots);
    for (auto& b : bufs) b = comm.alloc(kSmall);
    for (int i = 0; i < 16; ++i) {
      if (ctx.rank == 0) {
        comm.send(bufs[0], 0, kSmall, type_byte(), 1, 1);
        comm.recv(bufs[0], 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(bufs[0], 0, kSmall, type_byte(), 0, 1);
        comm.send(bufs[0], 0, kSmall, type_byte(), 0, 1);
      }
    }
    // The receiver computes until the whole stream has landed.
    if (ctx.rank == 1) ctx.proc.wait(sim::microseconds(100));
    std::vector<Request> reqs;
    for (int i = 0; i < slots; ++i) {
      reqs.push_back(ctx.rank == 0
                         ? comm.isend(bufs[i], 0, kSmall, type_byte(), 1, 2)
                         : comm.irecv(bufs[i], 0, kSmall, type_byte(), 0, 2));
    }
    comm.waitall(reqs);
    for (auto& b : bufs) comm.free(b);
  };
  RunConfig plain = fault_cfg("");
  Runtime rt_plain(plain);
  rt_plain.run(body);
  Runtime rt_armed(fault_cfg("drop_wc=1,drop_wc_skip=1000000"));
  rt_armed.run(body);
  EXPECT_EQ(rt_armed.faults()->counters().wc_dropped, 0u);
  const int slots = plain.platform.eager_slots;
  const std::uint64_t period = std::max(1, slots / 4);
  const auto& p0 = rt_plain.rank_stats()[0];
  const auto& p1 = rt_plain.rank_stats()[1];
  EXPECT_EQ(p0.packets_rx, 16u);
  EXPECT_EQ(p1.packets_rx, 16u + slots);
  EXPECT_EQ(p0.credits_sent, 0u);
  EXPECT_EQ(p1.credits_sent, slots / period);
  // Rank 0 learns every pong's consumption from the pong after it (16);
  // rank 1 learns pings 1-15 and the stream's first packet (16).
  EXPECT_EQ(p0.credits_piggybacked, 16u);
  EXPECT_EQ(p1.credits_piggybacked, 16u);
  // Two ranks: each rank's stats are its one endpoint's.
  for (int r = 0; r < 2; ++r) {
    const auto& a = rt_plain.rank_stats()[r];
    const auto& b = rt_armed.rank_stats()[r];
    EXPECT_EQ(a.packets_rx, b.packets_rx);
    EXPECT_EQ(b.credits_sent, a.credits_sent);
    EXPECT_EQ(b.credits_piggybacked, a.credits_piggybacked);
  }
}

TEST(FaultInjection, DroppedRingCqeFinishesWithinTwoAttempts) {
  // A lone packet's CQE is lost and no credit period fills up behind it:
  // the retransmit lands in its already-consumed slot, and its CQE is the
  // acknowledgement. The send completes successfully on the second attempt.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::microseconds(10);
  sim::FaultInjector::Counters injected;
  auto s = one_faulty_message(kSmall, 0, 0, cfg, &injected);
  EXPECT_EQ(injected.wc_dropped, 1u);
  EXPECT_LE(s.sender.retransmits, 1u);
  EXPECT_EQ(s.sender.retry_exhausted, 0u);
  EXPECT_EQ(s.receiver.packets_rx, 1u);
}

TEST(FaultInjection, CoveringCreditAcksALostCqeBeforeItsTimer) {
  // The first packet of a burst loses its CQE; the burst fills a credit
  // period, and the credit that covers the packet finishes it as soon as
  // the sender reads it, long before the packet's retry timer.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::milliseconds(1);
  const int period = std::max(1, cfg.platform.eager_slots / 4);
  sim::Time sends_done = 0;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    std::vector<mem::Buffer> bufs(period);
    for (auto& b : bufs) b = comm.alloc(kSmall);
    std::vector<Request> reqs;
    for (int i = 0; i < period; ++i) {
      reqs.push_back(ctx.rank == 0
                         ? comm.isend(bufs[i], 0, kSmall, type_byte(), 1, 1)
                         : comm.irecv(bufs[i], 0, kSmall, type_byte(), 0, 1));
    }
    comm.waitall(reqs);
    if (ctx.rank == 0) sends_done = ctx.proc.now();
    for (auto& b : bufs) comm.free(b);
  });
  const auto& s0 = rt.rank_stats()[0];
  EXPECT_EQ(rt.faults()->counters().wc_dropped, 1u);
  EXPECT_EQ(s0.credit_acked, 1u);
  EXPECT_EQ(s0.retransmits, 0u);
  EXPECT_LT(sends_done, cfg.platform.mpi_retry_timeout);
}

TEST(FaultInjection, DuplicateOfAConsumedPacketGetsACredit) {
  // Packet 1's CQE is lost after the receiver consumed it, so its
  // retransmit parks a duplicate in slot 1. The receiver meets it when its
  // cursor wraps back to slot 1, with packet 16 consumed but not yet
  // reported; it scrubs the slot and, finding packet 17 not yet sent,
  // flushes its counter before it sleeps. Every receive but the first
  // sleeps before its packet lands, so every consumption is reported by
  // the next receive's idle flush (the last one by finalize's), and never
  // by a period: the sender sends nothing back to piggyback on.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_skip=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::microseconds(10);
  const int kMsgs = 20;
  const int wrap = cfg.platform.eager_slots + 1;  // packets before the pause
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    for (int i = 0; i < kMsgs; ++i) {
      if (ctx.rank == 0) {
        // Hold packet 17 back until the receiver has passed slot 1.
        if (i == wrap) ctx.proc.wait(sim::microseconds(200));
        std::memset(buf.data(), 0x40 + i, kSmall);
        comm.send(buf, 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[kSmall - 1], static_cast<std::byte>(0x40 + i));
      }
    }
    comm.free(buf);
  });
  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  const std::uint64_t period = std::max(1, cfg.platform.eager_slots / 4);
  EXPECT_EQ(s0.retransmits, 1u);
  EXPECT_EQ(s1.dup_packets_dropped, 1u);
  EXPECT_EQ(s1.packets_rx, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(s1.packets_rx % period, 0u);
  EXPECT_EQ(s1.credits_sent, s1.packets_rx);
  EXPECT_EQ(s1.credits_piggybacked, 0u);
}

// ---------------------------------------------------------------------------
// An ack without a timeout: an error CQE is retried at once, a lone
// packet's lost CQE is covered by the receiver's idle flush or by the
// credit its reply carries
// ---------------------------------------------------------------------------

namespace {

/// Rank 0 sends one eager packet to rank 1, which is already waiting for
/// it; returns how much virtual time rank 0's send took.
sim::Time lone_send(Runtime& rt) {
  sim::Time done = 0;
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    if (ctx.rank == 0) {
      ctx.proc.wait(sim::microseconds(20));
      const sim::Time t0 = ctx.proc.now();
      comm.send(buf, 0, kSmall, type_byte(), 1, 1);
      done = ctx.proc.now() - t0;
    } else {
      comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
    }
    comm.free(buf);
  });
  return done;
}

}  // namespace

TEST(FaultInjection, ErroredLoneEagerPacketIsRetriedAtOnce) {
  // The packet's first attempt completes in error: the WR provably did
  // nothing, so it is posted again at once instead of after a retry
  // timeout. The send costs the error's round trip and a second posting on
  // top of a clean send, far less than the timeout.
  Runtime clean(fault_cfg("err_wc=1,err_wc_skip=1000000"));
  const sim::Time t_clean = lone_send(clean);
  Runtime errored(fault_cfg("err_wc=1,err_wc_max=1"));
  const sim::Time t_err = lone_send(errored);
  EXPECT_EQ(errored.faults()->counters().wc_errored, 1u);
  EXPECT_EQ(errored.rank_stats()[0].wc_errors, 1u);
  EXPECT_EQ(errored.rank_stats()[0].retransmits, 1u);
  EXPECT_EQ(errored.rank_stats()[1].packets_rx, 1u);
  EXPECT_LT(t_err, 2 * t_clean);
}

TEST(FaultInjection, IdleFlushAcksALonePacketWhoseCqeWasLost) {
  // The packet's CQE is lost, and its receiver then blocks on a second
  // message that the sender sends only once the first send completes. The
  // receiver reports its consumption before it sleeps, and that credit
  // acknowledges the packet: no retransmission, well before the timeout.
  RunConfig cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::milliseconds(1);
  sim::Time done = 0;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    for (int i = 0; i < 2; ++i) {
      if (ctx.rank == 0) {
        comm.send(buf, 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
      }
    }
    if (ctx.rank == 0) done = ctx.proc.now();
    comm.free(buf);
  });
  const auto& s0 = rt.rank_stats()[0];
  EXPECT_EQ(rt.faults()->counters().wc_dropped, 1u);
  EXPECT_EQ(s0.retransmits, 0u);
  EXPECT_EQ(s0.credit_acked, 1u);
  EXPECT_EQ(rt.rank_stats()[1].packets_rx, 2u);
  EXPECT_LT(done, cfg.platform.mpi_retry_timeout);
}

TEST(FaultInjection, PongCreditAcksAPingWhoseCqeWasLost) {
  // The ping's CQE is lost. The receiver answers at once, and the pong's
  // header carries its consumption of the ping: that piggybacked credit
  // acknowledges the ping, with no explicit credit write from the
  // receiver and no retransmission.
  RunConfig cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::milliseconds(1);
  sim::Time done = 0;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer out = comm.alloc(kSmall);
    mem::Buffer in = comm.alloc(kSmall);
    if (ctx.rank == 0) {
      Request both[2] = {comm.isend(out, 0, kSmall, type_byte(), 1, 1),
                         comm.irecv(in, 0, kSmall, type_byte(), 1, 2)};
      comm.waitall(both);
      done = ctx.proc.now();
    } else {
      comm.recv(in, 0, kSmall, type_byte(), 0, 1);
      comm.send(out, 0, kSmall, type_byte(), 0, 2);
    }
    comm.free(out);
    comm.free(in);
  });
  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  EXPECT_EQ(rt.faults()->counters().wc_dropped, 1u);
  EXPECT_EQ(s0.retransmits, 0u);
  EXPECT_EQ(s0.credit_acked, 1u);
  EXPECT_EQ(s0.credits_piggybacked, 1u);
  EXPECT_EQ(s1.credits_sent, 0u);
  EXPECT_LT(done, cfg.platform.mpi_retry_timeout);
}

TEST(FaultInjection, StaleRetransmitIsDiscardedByRingIndex) {
  // An aggressively short retry timer beats both the CQE and the credit, so
  // packets get retransmitted even though the originals land: every dup
  // rewrites an already-consumed slot and must be recognised as stale by
  // its absolute ring index when the ring wraps around to scan it.
  auto cfg = fault_cfg("drop_wc=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::microseconds(1);
  const int kMsgs = 17;  // one more than the ring depth: forces a wrap
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    for (int i = 0; i < kMsgs; ++i) {
      if (ctx.rank == 0) {
        std::memset(buf.data(), 0x40 + i, kSmall);
        comm.send(buf, 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[0], static_cast<std::byte>(0x40 + i));
        EXPECT_EQ(buf.data()[kSmall - 1], static_cast<std::byte>(0x40 + i));
      }
    }
    comm.free(buf);
  });
  const auto& s0 = rt.rank_stats()[0];
  const auto& s1 = rt.rank_stats()[1];
  EXPECT_GE(s0.retransmits, 1u);
  EXPECT_GE(s1.dup_packets_dropped, 1u);
  EXPECT_EQ(s1.packets_rx, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(s0.retry_exhausted, 0u);
}

// ---------------------------------------------------------------------------
// Rendezvous control traffic: errored RTS / RTR / DONE / data ops
// ---------------------------------------------------------------------------

TEST(FaultInjection, SenderFirstSurvivesErroredRts) {
  // First faultable WR of the run is the sender's RTS: the fabric errors
  // it (no data moves), the sender sees the error CQE and retransmits.
  auto s = one_faulty_message(kLarge, 0, sim::milliseconds(1),
                              fault_cfg("err_wc=1,err_wc_max=1"));
  EXPECT_EQ(s.sender.wc_errors, 1u);
  EXPECT_GE(s.sender.retransmits, 1u);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.receiver.sender_first, 1u);
}

TEST(FaultInjection, ReceiverFirstSurvivesErroredRtr) {
  // Receive posted first: the RTR is the first faultable WR and gets
  // errored; after the receiver's retransmit the sender RDMA-writes.
  auto s = one_faulty_message(kLarge, sim::milliseconds(1), 0,
                              fault_cfg("err_wc=1,err_wc_max=1"));
  EXPECT_EQ(s.receiver.wc_errors, 1u);
  EXPECT_GE(s.receiver.retransmits, 1u);
  EXPECT_GE(s.sender.receiver_first, 1u);
}

TEST(FaultInjection, SenderFirstSurvivesErroredRdmaRead) {
  // Candidate #0 is the RTS (delivered), #1 the receiver's RDMA read of
  // the payload: erroring it exercises the rendezvous data-op retry path.
  auto s = one_faulty_message(kLarge, 0, sim::milliseconds(1),
                              fault_cfg("err_wc=1,err_wc_skip=1,err_wc_max=1"));
  EXPECT_GE(s.receiver.data_op_retries, 1u);
  EXPECT_GE(s.receiver.sender_first, 1u);
  EXPECT_EQ(s.sender.retry_exhausted, 0u);
  EXPECT_EQ(s.receiver.retry_exhausted, 0u);
}

TEST(FaultInjection, RetryOfFailedReceiveNeverTouchesItsFreedBuffer) {
  // #1 is again the receiver's RDMA read, and its CQE is lost. While the
  // read waits out its retry timeout, the receiver revokes the
  // communicator: the receive fails, so MPI hands the buffer back and the
  // rank frees it, which deregisters its MR. The retry timer must then
  // settle the read, not re-post it with the dead lkey (DcfaCheck
  // mr-use-after-dereg).
  RunConfig cfg = fault_cfg("drop_wc=1,drop_wc_skip=1,drop_wc_max=1");
  cfg.platform.mpi_retry_timeout = sim::microseconds(400);
  Runtime rt(cfg);
  MpiErrc errc[2] = {MpiErrc::Other, MpiErrc::Other};
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kLarge);
    const auto poll_for = [&](double seconds) {
      const double until = ctx.wtime() + seconds;
      while (ctx.wtime() < until) comm.iprobe(kAnySource, 99);
    };
    if (ctx.rank == 0) {
      try {
        comm.send(buf, 0, kLarge, type_byte(), 1, 1);
      } catch (const MpiError& e) {
        errc[0] = e.errc();
      }
    } else {
      ctx.proc.wait(sim::milliseconds(1));
      Request r = comm.irecv(buf, 0, kLarge, type_byte(), 0, 1);
      poll_for(100e-6);  // the read lands; its CQE never comes
      comm.revoke();
      try {
        comm.wait(r);
      } catch (const MpiError& e) {
        errc[1] = e.errc();
      }
      comm.free(buf);
      poll_for(1e-3);  // past the retry timer
      return;
    }
    comm.free(buf);
  });
  EXPECT_EQ(rt.faults()->counters().wc_dropped, 1u);
  EXPECT_EQ(errc[0], MpiErrc::Revoked);
  EXPECT_EQ(errc[1], MpiErrc::Revoked);
  // The settled read was never re-posted.
  EXPECT_EQ(rt.rank_stats()[1].data_op_retries, 0u);
}

TEST(FaultInjection, SlowDataOpRetryNeverOverwritesACompletedReceive) {
  // The RDMA read's first attempt starts late (candidates: #0 RTS, #1 the
  // eager packet, #2 the read, delayed 200us), so its retry timer re-posts
  // it while that attempt is still pending: a data op's deadline covers its
  // own transfer time, so only a delayed start outlasts it. Meanwhile the
  // next message (eager, already stashed) waits for the same buffer. If the
  // first attempt's CQE completed the receive, the later attempts would land
  // on top of that message after it was delivered. The err_wc key only arms
  // tracking: its skip is never reached.
  for (const int timeout_us : {5, 10, 20, 40}) {
    SCOPED_TRACE("mpi_retry_timeout_us=" + std::to_string(timeout_us));
    RunConfig cfg = fault_cfg(
        "err_wc=1,err_wc_skip=1000000,delay_dma=1,delay_dma_skip=2,"
        "delay_dma_max=1,delay_dma_ns=200000");
    cfg.platform.mpi_retry_timeout = sim::microseconds(timeout_us);
    Runtime rt(cfg);
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer big = comm.alloc(kLarge);
      mem::Buffer small = comm.alloc(kSmall);
      if (ctx.rank == 0) {
        std::memset(big.data(), 0xAA, kLarge);
        std::memset(small.data(), 0xBB, kSmall);
        Request r[2] = {comm.isend(big, 0, kLarge, type_byte(), 1, 1),
                        comm.isend(small, 0, kSmall, type_byte(), 1, 2)};
        comm.waitall(r);
      } else {
        ctx.proc.wait(sim::microseconds(100));  // RTS and eager both land
        comm.recv(big, 0, kLarge, type_byte(), 0, 1);
        comm.recv(big, 0, kSmall, type_byte(), 0, 2);
        ctx.proc.wait(sim::milliseconds(1));
        comm.iprobe(0, 99);
        std::size_t stale = 0;
        for (std::size_t i = 0; i < kSmall; ++i) {
          stale += big.data()[i] != std::byte{0xBB};
        }
        EXPECT_EQ(stale, 0u);
      }
      comm.barrier();
      comm.free(big);
      comm.free(small);
    });
    EXPECT_GE(rt.rank_stats()[1].data_op_retries, 1u);
  }
}

TEST(FaultInjection, ReadSlowerThanTheRetryScheduleStillCompletes) {
  // An 8 MiB rendezvous read (offloaded, so read from host memory) whose
  // first attempt starts 8 ms late (candidates: #0 RTS, #1 the read) — past
  // its deadline, which covers the 1.4 ms transfer at the slowest rate on
  // the path. Its timer re-posts it while the first attempt is still
  // pending, and the first attempt lands after the re-post. Once an earlier
  // attempt lands, the op must finish on the latest CQE (its re-posts are
  // then zero-length probes), not spend its budget on a transfer that
  // succeeded. The err_wc key only arms tracking: its skip is never reached.
  // The delegated registration of the 8 MiB buffers fits the CMD reply
  // timeout at the default Platform, which scales with the pages registered.
  RunConfig cfg = fault_cfg(
      "err_wc=1,err_wc_skip=1000000,delay_dma=1,delay_dma_skip=2,"
      "delay_dma_max=1,delay_dma_ns=8000000");
  auto s = one_faulty_message(std::size_t{8} << 20, 0, sim::milliseconds(1),
                              cfg);
  EXPECT_GE(s.receiver.data_op_retries, 1u);
  EXPECT_EQ(s.receiver.retry_exhausted, 0u);
}

TEST(FaultInjection, LargeReadDeadlineCoversItsTransfer) {
  // A 16 MiB rendezvous read takes about 2.8 ms per attempt, far beyond the
  // 60 us retry timeout. Its deadline adds the transfer time of its bytes at
  // the slowest rate on the path, so the armed tracking (err_wc's skip is
  // never reached) re-posts nothing at the default Platform.
  auto s = one_faulty_message(std::size_t{16} << 20, 0, sim::milliseconds(1),
                              fault_cfg("err_wc=1,err_wc_skip=1000000"));
  EXPECT_EQ(s.receiver.data_op_retries, 0u);
  EXPECT_EQ(s.receiver.retry_exhausted, 0u);
  EXPECT_EQ(s.receiver.wc_timeouts, 0u);
}

TEST(FaultInjection, LostLargeReadCqeRetriesAfterItsOwnTransfer) {
  // The same 16 MiB read with its CQE dropped (the read is the exchange's
  // third faultable WR). The bytes land but the receiver cannot know, so it
  // re-posts the read once its deadline passes. That deadline is the retry
  // timeout plus the read's own stream time (sender's host shadow -> wire
  // -> receiver's Phi memory: about 2.8 ms), so the loss costs one
  // deadline, well under two transfers.
  const auto recv_time = [](const std::string& spec, Engine::Stats* out) {
    constexpr std::size_t kBytes = std::size_t{16} << 20;
    sim::Time took = 0;
    Runtime rt(fault_cfg(spec));
    rt.run([&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf = comm.alloc(kBytes);
      if (ctx.rank == 0) {
        std::memset(buf.data(), 0x5A, kBytes);
        comm.send(buf, 0, kBytes, type_byte(), 1, 1);
      } else {
        ctx.proc.wait(sim::milliseconds(1));
        const sim::Time t0 = ctx.proc.now();
        comm.recv(buf, 0, kBytes, type_byte(), 0, 1);
        took = ctx.proc.now() - t0;
        EXPECT_EQ(buf.data()[kBytes - 1], std::byte{0x5A});
      }
      comm.free(buf);
    });
    *out = rt.rank_stats()[1];
    return took;
  };
  Engine::Stats clean_rx, lossy_rx;
  const sim::Time clean =
      recv_time("err_wc=1,err_wc_skip=1000000", &clean_rx);
  const sim::Time lossy =
      recv_time("drop_wc=1,drop_wc_skip=2,drop_wc_max=1", &lossy_rx);
  EXPECT_EQ(clean_rx.data_op_retries, 0u);
  EXPECT_EQ(lossy_rx.data_op_retries, 1u);
  const sim::Platform p;
  const sim::Time transfer = sim::transfer_time(
      std::size_t{16} << 20,
      std::min({p.hca_read_host_gbps, p.ib_wire_gbps, p.hca_write_phi_gbps}));
  EXPECT_GT(lossy - clean, transfer);
  EXPECT_LT(lossy - clean, 2 * transfer);
}

TEST(FaultInjection, CmdReplyTimeoutScalesWithRegisteredPages) {
  // A 4 MiB rendezvous receive registers its 1,024-page window through the
  // delegate, which takes host_reg_mr_base + 1,024 x host_reg_mr_per_page
  // (about 166 us) before it replies: longer than the flat 100 us
  // dcfa_cmd_timeout. The reply deadline grows by the size-dependent part
  // of that service time, so the armed run registers without a resend.
  auto s = one_faulty_message(std::size_t{4} << 20, 0, 0,
                              fault_cfg("err_wc=1,err_wc_skip=1000000"));
  for (const Engine::Stats* st : {&s.sender, &s.receiver}) {
    EXPECT_EQ(st->cmd_timeouts, 0u);
    EXPECT_EQ(st->cmd_retries, 0u);
  }
  EXPECT_EQ(s.sender.rndv_sends, 1u);
}

TEST(FaultInjection, CmdReplyTimeoutScalesWithReducedBytes) {
  // A host-delegated combine of 512 KiB streams 1 MiB through the host core
  // at host_reduce_gbps (about 131 us), longer than the flat
  // dcfa_cmd_timeout. Its reply deadline grows by that, so the armed run
  // delegates the combine once and never falls back.
  constexpr std::size_t kDoubles = 64 * 1024;
  RunConfig cfg = fault_cfg("err_wc=1,err_wc_skip=1000000");
  cfg.engine_options.offload_reductions = true;
  cfg.engine_options.allreduce_algo = CollAlgo::Binomial;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer in = comm.alloc(kDoubles * sizeof(double));
    mem::Buffer out = comm.alloc(kDoubles * sizeof(double));
    std::vector<double> mine(kDoubles, ctx.rank + 1.0);
    std::memcpy(in.data(), mine.data(), in.size());
    comm.allreduce(in, 0, out, 0, kDoubles, type_double(), Op::Sum);
    double first = 0;
    std::memcpy(&first, out.data(), sizeof(first));
    EXPECT_EQ(first, 3.0);
    comm.free(in);
    comm.free(out);
  });
  std::uint64_t offloaded = 0;
  for (const Engine::Stats& s : rt.rank_stats()) {
    offloaded += s.reductions_offloaded;
    EXPECT_EQ(s.offload_fallbacks, 0u);
    EXPECT_EQ(s.cmd_timeouts, 0u);
    EXPECT_EQ(s.cmd_retries, 0u);
  }
  EXPECT_EQ(offloaded, 1u);
}

TEST(FaultInjection, SenderFirstSurvivesErroredDone) {
  // Candidates: #0 RTS, #1 RDMA read, #2 the receiver's DONE control
  // packet. Losing the DONE leaves the sender waiting; the receiver's
  // retransmit must complete the handshake.
  auto s = one_faulty_message(kLarge, 0, sim::milliseconds(1),
                              fault_cfg("err_wc=1,err_wc_skip=2,err_wc_max=1"));
  EXPECT_EQ(s.receiver.wc_errors, 1u);
  EXPECT_GE(s.receiver.retransmits, 1u);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.receiver.sender_first, 1u);
}

TEST(FaultInjection, SimultaneousRendezvousSurvivesLosingBothControls) {
  // Send and receive post together; RTS and RTR are the first two
  // faultable WRs and both get errored. Both sides retransmit and the
  // crossing still resolves to exactly one transfer.
  auto s = one_faulty_message(kLarge, 0, 0,
                              fault_cfg("err_wc=1,err_wc_max=2"));
  EXPECT_EQ(s.sender.wc_errors + s.receiver.wc_errors, 2u);
  EXPECT_GE(s.sender.retransmits + s.receiver.retransmits, 2u);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
  EXPECT_GE(s.receiver.sender_first + s.sender.receiver_first, 1u);
}

// ---------------------------------------------------------------------------
// DCFA CMD channel: failures fall back, drops time out and retry
// ---------------------------------------------------------------------------

TEST(FaultInjection, OffloadCmdFailureFallsBackToDirectPath) {
  // Every offload-MR CMD verb fails: registering the send-side shadow is
  // impossible, so the engine must retry, give up, and fall back to the
  // non-offloaded direct-MR path — the message still goes through.
  sim::FaultInjector::Counters injected;
  auto s = one_faulty_message(kLarge, 0, 0,
                              fault_cfg("cmd_fail=1,cmd_op=offload"),
                              &injected);
  EXPECT_GE(injected.cmd_failed, 1u);
  EXPECT_GE(s.sender.offload_fallbacks, 1u);
  EXPECT_EQ(s.sender.offload_syncs, 0u);
  EXPECT_GE(s.sender.cmd_retries, 1u);
  EXPECT_EQ(s.sender.rndv_sends, 1u);
}

// The one-sided senders share the rendezvous path's offload decision, so a
// failed shadow registration falls back to a plain MR for them too: each
// transfer delivers its bytes instead of surfacing the raw CmdError.
enum class OneSided { Put, Rput, Channel };

class OneSidedOffloadFallback : public ::testing::TestWithParam<OneSided> {};

TEST_P(OneSidedOffloadFallback, DeliversThroughTheDirectMr) {
  ASSERT_GT(kLarge, sim::Platform{}.offload_send_threshold);
  Runtime rt(fault_cfg("cmd_fail=1,cmd_op=offload"));
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer src = comm.alloc(kLarge);
    mem::Buffer dst = comm.alloc(kLarge);
    std::memset(src.data(), 0x30 + ctx.rank, kLarge);
    std::memset(dst.data(), 0, kLarge);
    const int peer = 1 - ctx.rank;
    if (GetParam() == OneSided::Channel) {
      Channel ch(comm, peer, src, 0, dst, 0, kLarge);
      ch.post();
      ch.wait_arrival();
      ch.wait_local();
      ch.close();
    } else {
      Window win(comm, dst, 0, kLarge);
      if (ctx.rank == 0) {
        if (GetParam() == OneSided::Put) {
          win.put(src, 0, kLarge, type_byte(), peer, 0);
        } else {
          Request r = win.rput(src, 0, kLarge, type_byte(), peer, 0);
          comm.wait(r);
        }
      }
      win.fence();
      win.free();
    }
    comm.barrier();
    if (GetParam() == OneSided::Channel || ctx.rank == 1) {
      const auto want = static_cast<std::byte>(0x30 + peer);
      EXPECT_EQ(dst.data()[0], want);
      EXPECT_EQ(dst.data()[kLarge - 1], want);
    }
    comm.free(src);
    comm.free(dst);
  });
  EXPECT_GE(rt.faults()->counters().cmd_failed, 1u);
  EXPECT_GE(rt.rank_stats()[0].offload_fallbacks, 1u);
  EXPECT_EQ(rt.rank_stats()[0].offload_syncs, 0u);
  if (GetParam() == OneSided::Channel) {
    EXPECT_GE(rt.rank_stats()[1].offload_fallbacks, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultInjection, OneSidedOffloadFallback,
    ::testing::Values(OneSided::Put, OneSided::Rput, OneSided::Channel),
    [](const ::testing::TestParamInfo<OneSided>& info) {
      switch (info.param) {
        case OneSided::Put: return "WindowPut";
        case OneSided::Rput: return "WindowRput";
        case OneSided::Channel: return "Channel";
      }
      return "";
    });

TEST(FaultInjection, SwallowedCmdTimesOutAndRetries) {
  // The very first CMD request of the run is swallowed (no reply): the
  // client must hit its reply timeout, resend with a fresh request id, and
  // carry on as if nothing happened.
  sim::FaultInjector::Counters injected;
  auto s = one_faulty_message(kSmall, 0, 0,
                              fault_cfg("cmd_drop=1,cmd_drop_max=1"),
                              &injected);
  EXPECT_EQ(injected.cmd_dropped, 1u);
  EXPECT_GE(s.sender.cmd_timeouts + s.receiver.cmd_timeouts, 1u);
  EXPECT_GE(s.sender.cmd_retries + s.receiver.cmd_retries, 1u);
  EXPECT_EQ(s.receiver.packets_rx, 1u);
}

// ---------------------------------------------------------------------------
// Budget exhaustion, credit squeeze, pure delays
// ---------------------------------------------------------------------------

// Every faultable WR past the spec's err_wc_skip errors, forever: the side that
// posts the doomed WR burns its whole retry budget and the operation must
// surface as a clean MpiError blaming the other rank, not a hang.
struct ExhaustionCase {
  const char* name;
  std::size_t bytes;
  const char* spec;
  sim::Time recv_delay;
  int exhausted_rank;
  std::uint64_t Engine::Stats::*retries;  ///< the kind's retry counter
};

class RetryExhaustion : public ::testing::TestWithParam<ExhaustionCase> {};

TEST_P(RetryExhaustion, RaisesRetryExhaustedMpiError) {
  const ExhaustionCase& c = GetParam();
  auto cfg = fault_cfg(c.spec);
  cfg.platform.mpi_retry_timeout = sim::microseconds(1);
  Engine::Stats exhausted{};
  try {
    run_mpi(cfg, [&](RankCtx& ctx) {
      auto& comm = ctx.world;
      mem::Buffer buf = comm.alloc(c.bytes);
      try {
        if (ctx.rank == 0) {
          comm.send(buf, 0, c.bytes, type_byte(), 1, 1);
        } else {
          ctx.proc.wait(c.recv_delay);
          comm.recv(buf, 0, c.bytes, type_byte(), 0, 1);
        }
      } catch (const MpiError&) {
        if (ctx.rank == c.exhausted_rank) exhausted = comm.engine().stats();
        throw;
      }
      comm.free(buf);
    });
    ADD_FAILURE() << "retry exhaustion raised no MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.errc(), MpiErrc::RetryExhausted) << e.what();
    EXPECT_EQ(e.peer(), 1 - c.exhausted_rank) << e.what();
  }
  EXPECT_GE(exhausted.retry_exhausted, 1u);
  EXPECT_GE(exhausted.*c.retries, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultInjection, RetryExhaustion,
    ::testing::Values(
        // The sender's eager ring packet.
        ExhaustionCase{"RingPacket", kSmall, "err_wc=1", 0, 0,
                       &Engine::Stats::retransmits},
        // Candidate #0 is the RTS (delivered); the receiver, posting late,
        // then RDMA-reads the payload and that rendezvous data op exhausts.
        ExhaustionCase{"RendezvousRead", kLarge, "err_wc=1,err_wc_skip=1",
                       sim::milliseconds(1), 1,
                       &Engine::Stats::data_op_retries}),
    [](const ::testing::TestParamInfo<ExhaustionCase>& info) {
      return std::string(info.param.name);
    });

TEST(FaultInjection, CreditSqueezeStallsBurstButCompletes) {
  // The fault spec caps the eager ring at 2 usable credits: a 32-message
  // burst must repeatedly stall for credit and still deliver everything in
  // order.
  auto cfg = fault_cfg("credit_slots=2");
  const int kMsgs = 32;
  Runtime rt(cfg);
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    if (ctx.rank == 0) {
      std::vector<mem::Buffer> bufs(kMsgs);
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs[i] = comm.alloc(kSmall);
        std::memset(bufs[i].data(), 0x10 + i, kSmall);
        reqs.push_back(comm.isend(bufs[i], 0, kSmall, type_byte(), 1, 1));
      }
      comm.waitall(reqs);
      for (auto& b : bufs) comm.free(b);
    } else {
      mem::Buffer buf = comm.alloc(kSmall);
      for (int i = 0; i < kMsgs; ++i) {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
        EXPECT_EQ(buf.data()[kSmall - 1], static_cast<std::byte>(0x10 + i));
      }
      comm.free(buf);
    }
  });
  EXPECT_GE(rt.rank_stats()[0].tx_stalls, 1u);
  EXPECT_EQ(rt.rank_stats()[1].packets_rx,
            static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(rt.rank_stats()[0].retry_exhausted, 0u);
}

TEST(FaultInjection, DmaDelaysCostTimeButNeedNoRecovery) {
  // Pure latency faults: every faultable transfer starts 5us late. The
  // run gets slower but no CQE is lost, so the recovery machinery must
  // stay completely quiet.
  auto clean = fault_cfg("");
  clean.fault_spec.clear();
  sim::Time t_clean = 0, t_faulty = 0;
  auto body = [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    for (int i = 0; i < 4; ++i) {
      if (ctx.rank == 0) {
        comm.send(buf, 0, kSmall, type_byte(), 1, 1);
        comm.recv(buf, 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
        comm.send(buf, 0, kSmall, type_byte(), 0, 1);
      }
    }
    comm.free(buf);
  };
  t_clean = run_mpi(clean, body);
  Runtime rt(fault_cfg("delay_dma=1,delay_dma_ns=5000"));
  rt.run(body);
  t_faulty = rt.elapsed();
  EXPECT_GT(t_faulty, t_clean);
  EXPECT_GT(rt.faults()->counters().dma_delayed, 0u);
  EXPECT_EQ(rt.rank_stats()[0].retransmits, 0u);
  EXPECT_EQ(rt.rank_stats()[0].wc_errors, 0u);
  EXPECT_EQ(rt.rank_stats()[0].retry_exhausted, 0u);
}

TEST(FaultInjection, UnarmedSpecLeavesRunByteIdenticalToNoSpec) {
  // "drop_wc=0" parses but arms nothing: the engine must take exactly the
  // default code paths, making the run indistinguishable from one with no
  // injector at all.
  auto body = [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer buf = comm.alloc(kSmall);
    for (int i = 0; i < 4; ++i) {
      if (ctx.rank == 0) {
        comm.send(buf, 0, kSmall, type_byte(), 1, 1);
        comm.recv(buf, 0, kSmall, type_byte(), 1, 1);
      } else {
        comm.recv(buf, 0, kSmall, type_byte(), 0, 1);
        comm.send(buf, 0, kSmall, type_byte(), 0, 1);
      }
    }
    comm.free(buf);
  };
  RunConfig plain;
  plain.mode = MpiMode::DcfaPhi;
  plain.nprocs = 2;
  Runtime rt_plain(plain);
  rt_plain.run(body);
  Runtime rt_unarmed(fault_cfg("drop_wc=0"));
  rt_unarmed.run(body);
  EXPECT_EQ(rt_plain.elapsed(), rt_unarmed.elapsed());
  const auto& a = rt_plain.rank_stats()[0];
  const auto& b = rt_unarmed.rank_stats()[0];
  EXPECT_EQ(a.eager_sends, b.eager_sends);
  EXPECT_EQ(a.packets_rx, b.packets_rx);
  EXPECT_EQ(a.credits_sent, b.credits_sent);
  EXPECT_EQ(b.retransmits, 0u);
  EXPECT_EQ(b.credit_acked, 0u);
}
