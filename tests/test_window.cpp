// Tests for one-sided communication (Window / put / get / accumulate /
// rput / rget, fence and passive-target synchronisation, Channel): data
// integrity, epoch semantics, lock arbitration, bounds checking,
// interaction with the offloading send buffer, rank-failure behaviour and
// an RMA halo exchange.

#include <gtest/gtest.h>

#include <cstring>

#include "ib/hca.hpp"
#include "mpi/channel.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

namespace {
RunConfig dcfa_cfg(int nprocs) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = nprocs;
  return cfg;
}
}  // namespace

TEST(Window, PutDeliversAfterFence) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(4096);
    mem::Buffer src = comm.alloc(4096);
    Window win(comm, wbuf, 0, 4096);
    win.fence();  // open the epoch
    if (ctx.rank == 0) {
      std::memset(src.data(), 0x42, 4096);
      win.put(src, 0, 4096, type_byte(), /*target=*/1, /*disp=*/0);
    }
    win.fence();  // close: rank 1 must now see the data
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[0], std::byte{0x42});
      EXPECT_EQ(wbuf.data()[4095], std::byte{0x42});
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, GetReadsRemoteWithoutTargetInvolvement) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(8192);
    mem::Buffer dst = comm.alloc(8192);
    for (std::size_t i = 0; i < 8192; ++i) {
      wbuf.data()[i] = static_cast<std::byte>((ctx.rank * 91 + i) & 0xff);
    }
    Window win(comm, wbuf, 0, 8192);
    win.fence();
    if (ctx.rank == 0) {
      win.get(dst, 0, 8192, type_byte(), 1, 0);
    } else {
      // Passive target: rank 1 computes, never calls into the window.
      ctx.proc.wait(sim::milliseconds(1));
    }
    win.fence();
    if (ctx.rank == 0) {
      for (std::size_t i = 0; i < 8192; i += 1000) {
        EXPECT_EQ(dst.data()[i], static_cast<std::byte>((91 + i) & 0xff));
      }
    }
    win.free();
    comm.free(wbuf);
    comm.free(dst);
  });
}

TEST(Window, DisplacementsAndPartialWindows) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(4096);
    mem::Buffer src = comm.alloc(64);
    // Expose only the middle 1 KiB of the buffer.
    Window win(comm, wbuf, 1024, 1024);
    win.fence();
    if (ctx.rank == 0) {
      std::memset(src.data(), 0x7C, 64);
      win.put(src, 0, 64, type_byte(), 1, /*disp=*/512);
    }
    win.fence();
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[1024 + 512], std::byte{0x7C});
      EXPECT_EQ(wbuf.data()[1024 + 511], std::byte{0});   // untouched
      EXPECT_EQ(wbuf.data()[1024 + 512 + 64], std::byte{0});
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, OutOfBoundsAccessThrows) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(1024);
    mem::Buffer src = comm.alloc(1024);
    Window win(comm, wbuf, 0, 512);  // expose half
    win.fence();
    EXPECT_THROW(win.put(src, 0, 513, type_byte(), 1 - ctx.rank, 0),
                 MpiError);
    EXPECT_THROW(win.put(src, 0, 64, type_byte(), 1 - ctx.rank, 500),
                 MpiError);
    EXPECT_THROW(win.get(src, 0, 64, type_byte(), 5, 0), MpiError);
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, HeterogeneousWindowSizes) {
  run_mpi(dcfa_cfg(3), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t mine = 256 * (ctx.rank + 1);
    mem::Buffer wbuf = comm.alloc(mine);
    Window win(comm, wbuf, 0, mine);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(win.target_size(r), 256u * (r + 1));
    }
    win.fence();
    win.fence();
    win.free();
    comm.free(wbuf);
  });
}

TEST(Window, LargePutUsesOffloadShadow) {
  RunConfig cfg = dcfa_cfg(2);
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 256 * 1024;
    mem::Buffer wbuf = comm.alloc(kBytes);
    mem::Buffer src = comm.alloc(kBytes);
    Window win(comm, wbuf, 0, kBytes);
    win.fence();
    if (ctx.rank == 0) {
      std::memset(src.data(), 0x3D, kBytes);
      win.put(src, 0, kBytes, type_byte(), 1, 0);
    }
    win.fence();
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[kBytes - 1], std::byte{0x3D});
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
  EXPECT_GE(rt.rank_stats()[0].offload_syncs, 1u);
}

TEST(Window, UncachedPutsReleaseTheirMrs) {
  // With the MR cache off, every put registers its origin buffer for that
  // op alone, and the registration must go when the op completes.
  RunConfig cfg = dcfa_cfg(2);
  cfg.engine_options.mr_cache = false;
  run_mpi(cfg, [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 1024;
    const int kPuts = 100;
    mem::Buffer wbuf = comm.alloc(kPuts * kBytes);
    mem::Buffer src = comm.alloc(kPuts * kBytes);
    Window win(comm, wbuf, 0, kPuts * kBytes);
    win.fence();
    const ib::Hca& hca = comm.engine().ib().hca_ref();
    const std::size_t live = hca.mrs_live();
    if (ctx.rank == 0) {
      for (int i = 0; i < kPuts; ++i) {
        std::memset(src.data() + i * kBytes, i, kBytes);
        win.put(src, i * kBytes, kBytes, type_byte(), 1, i * kBytes);
      }
    }
    win.fence();
    if (ctx.rank == 0) {
      EXPECT_EQ(hca.mrs_live(), live);
    } else {
      for (int i = 0; i < kPuts; ++i) {
        EXPECT_EQ(wbuf.data()[i * kBytes], static_cast<std::byte>(i));
      }
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, ManyOutstandingOpsOneFence) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kSlot = 512;
    mem::Buffer wbuf = comm.alloc(4 * kSlot);  // one slot per origin
    mem::Buffer src = comm.alloc(kSlot);
    std::memset(src.data(), 0x20 + ctx.rank, kSlot);
    Window win(comm, wbuf, 0, 4 * kSlot);
    win.fence();
    // Everyone puts into everyone (including itself).
    for (int t = 0; t < 4; ++t) {
      win.put(src, 0, kSlot, type_byte(), t, ctx.rank * kSlot);
    }
    win.fence();
    for (int origin = 0; origin < 4; ++origin) {
      EXPECT_EQ(wbuf.data()[origin * kSlot],
                static_cast<std::byte>(0x20 + origin));
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, RmaHaloExchangeMatchesTwoSided) {
  // A stencil-style halo exchange done with puts produces the same data as
  // the send/recv version.
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kRow = 1024;
    // Layout: [ghost_top][interior0][interior1][ghost_bottom].
    mem::Buffer plane = comm.alloc(4 * kRow);
    for (std::size_t i = 0; i < kRow; ++i) {
      plane.data()[kRow + i] = static_cast<std::byte>(ctx.rank * 2);
      plane.data()[2 * kRow + i] = static_cast<std::byte>(ctx.rank * 2 + 1);
    }
    Window win(comm, plane, 0, 4 * kRow);
    win.fence();
    const int up = ctx.rank > 0 ? ctx.rank - 1 : -1;
    const int down = ctx.rank < 3 ? ctx.rank + 1 : -1;
    // Push my first interior row into my upper neighbour's bottom ghost,
    // my last interior row into my lower neighbour's top ghost.
    if (up >= 0) win.put(plane, kRow, kRow, type_byte(), up, 3 * kRow);
    if (down >= 0) win.put(plane, 2 * kRow, kRow, type_byte(), down, 0);
    win.fence();
    if (up >= 0) {
      EXPECT_EQ(plane.data()[0], static_cast<std::byte>(up * 2 + 1));
    }
    if (down >= 0) {
      EXPECT_EQ(plane.data()[3 * kRow],
                static_cast<std::byte>(down * 2));
    }
    win.free();
    comm.free(plane);
  });
}

TEST(Window, UseAfterFreeThrows) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(64);
    Window win(comm, wbuf, 0, 64);
    win.fence();
    win.free();
    EXPECT_THROW(win.put(wbuf, 0, 8, type_byte(), 1 - ctx.rank, 0),
                 MpiError);
    EXPECT_THROW(win.fence(), MpiError);
    comm.barrier();
    comm.free(wbuf);
  });
}

// --- Typed operations & allocate ---------------------------------------------

TEST(Window, TypedPutCountsElements) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kN = 64;
    mem::Buffer wbuf = comm.alloc(kN * sizeof(double));
    mem::Buffer src = comm.alloc(kN * sizeof(double));
    Window win(comm, wbuf, 0, kN * sizeof(double));
    if (ctx.rank == 0) {
      auto* d = reinterpret_cast<double*>(src.data());
      for (std::size_t i = 0; i < kN; ++i) d[i] = 2.5 * i;
      // count is in elements of the datatype; disp stays in bytes.
      win.put(src, 0, kN, type_double(), 1, 0);
    }
    win.fence();
    if (ctx.rank == 1) {
      const auto* d = reinterpret_cast<const double*>(wbuf.data());
      EXPECT_EQ(d[0], 0.0);
      EXPECT_EQ(d[kN - 1], 2.5 * (kN - 1));
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, AllocateOwnsItsMemory) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 2048;
    Window win = Window::allocate(comm, kBytes);
    EXPECT_GE(win.base().size(), kBytes);
    std::memset(win.base().data(), 0, kBytes);
    mem::Buffer src = comm.alloc(kBytes);
    win.fence();
    if (ctx.rank == 0) {
      std::memset(src.data(), 0x5A, kBytes);
      win.put(src, 0, kBytes, type_byte(), 1, 0);
    }
    win.fence();
    if (ctx.rank == 1) {
      EXPECT_EQ(win.base().data()[kBytes - 1], std::byte{0x5A});
    }
    win.free();  // releases the engine-owned memory too
    comm.free(src);
  });
}

TEST(Window, AccumulateSumMaxMinReplace) {
  run_mpi(dcfa_cfg(4), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kN = 8;
    mem::Buffer wbuf = comm.alloc(4 * kN * sizeof(int));  // 4 op regions
    mem::Buffer src = comm.alloc(kN * sizeof(int));
    auto* acc = reinterpret_cast<int*>(wbuf.data());
    for (std::size_t i = 0; i < kN; ++i) {
      acc[0 * kN + i] = 0;     // Sum region
      acc[1 * kN + i] = -100;  // Max region
      acc[2 * kN + i] = 100;   // Min region
      acc[3 * kN + i] = -1;    // Replace region
    }
    auto* s = reinterpret_cast<int*>(src.data());
    for (std::size_t i = 0; i < kN; ++i) {
      s[i] = ctx.rank + static_cast<int>(i);
    }
    Window win(comm, wbuf, 0, 4 * kN * sizeof(int));
    win.fence();  // everyone's init is visible before accumulation
    // Serialise each origin's turn with an exclusive lock on the target:
    // accumulate is a read-modify-write, so concurrent fence-epoch
    // accumulates from different origins may interleave.
    win.lock(0, Window::Lock::Exclusive);
    win.accumulate(src, 0, kN, type_int(), Op::Sum, 0, 0);
    win.accumulate(src, 0, kN, type_int(), Op::Max, 0, kN * sizeof(int));
    win.accumulate(src, 0, kN, type_int(), Op::Min, 0, 2 * kN * sizeof(int));
    win.unlock(0);
    if (ctx.rank == 0) {
      win.lock(0, Window::Lock::Exclusive);
      win.accumulate(src, 0, kN, type_int(), Op::Replace, 0,
                     3 * kN * sizeof(int));
      win.unlock(0);
    }
    comm.barrier();
    if (ctx.rank == 0) {
      for (std::size_t i = 0; i < kN; ++i) {
        // Sum over origins of (rank + i) = (0+1+2+3) + 4i.
        EXPECT_EQ(acc[0 * kN + i], 6 + 4 * static_cast<int>(i));
        EXPECT_EQ(acc[1 * kN + i], 3 + static_cast<int>(i));  // max origin 3
        EXPECT_EQ(acc[2 * kN + i], static_cast<int>(i));      // min origin 0
        EXPECT_EQ(acc[3 * kN + i], static_cast<int>(i));      // replaced by 0
      }
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

// --- Passive-target synchronisation --------------------------------------------

TEST(Window, PassiveLockPutUnlockDelivers) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(1024);
    mem::Buffer src = comm.alloc(1024);
    std::memset(wbuf.data(), 0, 1024);
    Window win(comm, wbuf, 0, 1024);
    win.fence();  // everyone's zero-init is visible
    if (ctx.rank == 0) {
      std::memset(src.data(), 0x99, 1024);
      win.lock(1, Window::Lock::Exclusive);
      win.put(src, 0, 1024, type_byte(), 1, 0);
      win.unlock(1);  // remote completion guaranteed here
    }
    comm.barrier();  // order the passive epoch before rank 1's read
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[0], std::byte{0x99});
      EXPECT_EQ(wbuf.data()[1023], std::byte{0x99});
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, FlushCompletesWithoutClosingEpoch) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(256);
    mem::Buffer src = comm.alloc(256);
    std::memset(wbuf.data(), 0, 256);
    Window win(comm, wbuf, 0, 256);
    win.fence();
    if (ctx.rank == 0) {
      win.lock(1, Window::Lock::Exclusive);
      std::memset(src.data(), 1, 256);
      win.put(src, 0, 256, type_byte(), 1, 0);
      win.flush(1);  // first batch remotely complete; epoch still open
      EXPECT_EQ(win.outstanding(), 0);
      std::memset(src.data(), 2, 128);
      win.put(src, 0, 128, type_byte(), 1, 0);
      win.flush_local(1);
      win.unlock(1);
    }
    comm.barrier();
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[0], std::byte{2});
      EXPECT_EQ(wbuf.data()[200], std::byte{1});
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, ExclusiveLockSerialisesReadModifyWrite) {
  // The classic mutual-exclusion witness: every rank increments a counter
  // on rank 0 under an exclusive lock. Lost updates == broken locks.
  constexpr int kRanks = 4;
  constexpr int kRounds = 5;
  run_mpi(dcfa_cfg(kRanks), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(sizeof(int));
    mem::Buffer tmp = comm.alloc(sizeof(int));
    *reinterpret_cast<int*>(wbuf.data()) = 0;
    Window win(comm, wbuf, 0, sizeof(int));
    win.fence();
    for (int round = 0; round < kRounds; ++round) {
      win.lock(0, Window::Lock::Exclusive);
      win.get(tmp, 0, 1, type_int(), 0, 0);
      win.flush(0);  // the get is asynchronous; complete it before reading
      *reinterpret_cast<int*>(tmp.data()) += 1;
      win.put(tmp, 0, 1, type_int(), 0, 0);
      win.unlock(0);
    }
    comm.barrier();
    if (ctx.rank == 0) {
      EXPECT_EQ(*reinterpret_cast<int*>(wbuf.data()), kRanks * kRounds);
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(tmp);
  });
}

// A waiter blocked on a held lock is granted it at the unlock: the unlock
// rings every rank's watch. Rank 0 holds rank 1's slot exclusively; rank 1
// asks for it and blocks. Rank 0 unlocks half a heartbeat period past a
// period boundary of rank 1's wait, so a waiter that only re-polled the
// board once per period would be granted the lock at least 20 us late.
TEST(Window, ContendedExclusiveLockIsGrantedAtTheUnlock) {
  const RunConfig cfg = dcfa_cfg(2);
  const sim::Time period = cfg.platform.mpi_heartbeat_period;
  sim::Time asked_at = -1, unlocked_at = -1, granted_at = -1;
  run_mpi(cfg, [&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(64);
    Window win(comm, wbuf, 0, 64);
    if (ctx.rank == 0) win.lock(1, Window::Lock::Exclusive);
    comm.barrier();
    if (ctx.rank == 0) {
      ctx.proc.wait(period);  // rank 1 is blocked in lock() by now
      ctx.proc.wait(asked_at + 2 * period + period / 2 - ctx.proc.now());
      win.unlock(1);
      unlocked_at = ctx.proc.now();
    } else {
      asked_at = ctx.proc.now();
      win.lock(1, Window::Lock::Exclusive);
      granted_at = ctx.proc.now();
      win.unlock(1);
    }
    comm.barrier();
    win.free();
    comm.free(wbuf);
  });
  ASSERT_GE(unlocked_at, 0);
  EXPECT_GE(granted_at, unlocked_at);
  EXPECT_LT(granted_at - unlocked_at, period / 10);
}

TEST(Window, LockAllSharedDisjointSlices) {
  constexpr int kRanks = 4;
  run_mpi(dcfa_cfg(kRanks), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kSlot = 128;
    mem::Buffer wbuf = comm.alloc(kRanks * kSlot);
    mem::Buffer src = comm.alloc(kSlot);
    std::memset(wbuf.data(), 0, kRanks * kSlot);
    std::memset(src.data(), 0x30 + ctx.rank, kSlot);
    Window win(comm, wbuf, 0, kRanks * kSlot);
    win.fence();
    // All ranks hold shared epochs toward all targets concurrently, each
    // writing its own disjoint slice everywhere.
    win.lock_all();
    for (int t = 0; t < kRanks; ++t) {
      win.put(src, 0, kSlot, type_byte(), t, ctx.rank * kSlot);
    }
    win.flush_all();
    win.unlock_all();
    comm.barrier();
    for (int origin = 0; origin < kRanks; ++origin) {
      EXPECT_EQ(wbuf.data()[origin * kSlot],
                static_cast<std::byte>(0x30 + origin));
    }
    win.fence();
    win.free();
    comm.free(wbuf);
    comm.free(src);
  });
}

TEST(Window, EpochDisciplineEnforced) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(256);
    Window win(comm, wbuf, 0, 256);
    if (ctx.rank == 0) {
      // Lock epoch toward rank 1 only: issuing toward rank 0 must throw.
      win.lock(1, Window::Lock::Shared);
      EXPECT_THROW(win.put(wbuf, 0, 8, type_byte(), 0, 0), MpiError);
      // flush toward a rank we hold no epoch on: throw.
      EXPECT_THROW(win.flush(0), MpiError);
      // fence while a passive epoch is open: throw.
      EXPECT_THROW(win.fence(), MpiError);
      // duplicate lock on the same target: throw.
      EXPECT_THROW(win.lock(1, Window::Lock::Shared), MpiError);
      win.unlock(1);
      // unlock with no epoch: throw.
      EXPECT_THROW(win.unlock(1), MpiError);
    }
    comm.barrier();
    win.fence();
    win.free();
    comm.free(wbuf);
  });
}

// --- Request-returning operations ---------------------------------------------

TEST(Window, RputRgetMixWithP2pInWaitSets) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 512;
    mem::Buffer wbuf = comm.alloc(kBytes);
    mem::Buffer src = comm.alloc(kBytes);
    mem::Buffer dst = comm.alloc(kBytes);
    mem::Buffer msg = comm.alloc(64);
    for (std::size_t i = 0; i < kBytes; ++i) {
      wbuf.data()[i] = static_cast<std::byte>(ctx.rank + 1);
    }
    Window win(comm, wbuf, 0, kBytes);
    win.fence();
    if (ctx.rank == 0) {
      std::memset(src.data(), 0xAB, kBytes);
      // One RMA write, one RMA read and one p2p send in a single wait set:
      // mixed-kind completion is the whole point of Kind::Rma.
      Request reqs[3] = {
          win.rput(src, 0, kBytes, type_byte(), 1, 0),
          win.rget(dst, 0, kBytes, type_byte(), 1, 0),
          comm.isend(msg, 0, 64, type_byte(), 1, /*tag=*/7),
      };
      comm.waitall(reqs);
      EXPECT_TRUE(reqs[0].done());
      EXPECT_TRUE(reqs[1].done());
      // rget completed locally => data is here. (It may have raced the
      // rput — both values are legal under a fence epoch — so only check
      // it is one of the two.)
      const std::byte got = dst.data()[0];
      EXPECT_TRUE(got == std::byte{2} || got == std::byte{0xAB});
    } else {
      Request r = comm.irecv(msg, 0, 64, type_byte(), 0, 7);
      comm.wait(r);
    }
    win.fence();
    if (ctx.rank == 1) {
      EXPECT_EQ(wbuf.data()[0], std::byte{0xAB});
    }
    win.free();
    comm.free(wbuf);
    comm.free(src);
    comm.free(dst);
    comm.free(msg);
  });
}

TEST(Window, ZeroSizeRputCompletesImmediately) {
  run_mpi(dcfa_cfg(2), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(64);
    Window win(comm, wbuf, 0, 64);
    Request r = win.rput(wbuf, 0, 0, type_byte(), 1 - ctx.rank, 0);
    EXPECT_TRUE(r.done());
    win.fence();
    win.free();
    comm.free(wbuf);
  });
}

// --- Persistent channels -------------------------------------------------------

TEST(Channel, RoundTripAndZeroHotPathNegotiation) {
  RunConfig cfg = dcfa_cfg(2);
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    const std::size_t kBytes = 1024;
    mem::Buffer sbuf = comm.alloc(kBytes);
    mem::Buffer rbuf = comm.alloc(kBytes);
    std::memset(rbuf.data(), 0, kBytes);
    Channel ch(comm, 1 - ctx.rank, sbuf, 0, rbuf, 0, kBytes);

    const auto negotiations_before =
        comm.engine().coll_stats().rma_mr_negotiations;
    for (int iter = 0; iter < 10; ++iter) {
      std::memset(sbuf.data(), 0x40 + ctx.rank + iter, kBytes);
      ch.post();
      ch.wait_arrival();
      EXPECT_EQ(rbuf.data()[0],
                static_cast<std::byte>(0x40 + (1 - ctx.rank) + iter));
      EXPECT_EQ(rbuf.data()[kBytes - 1],
                static_cast<std::byte>(0x40 + (1 - ctx.rank) + iter));
      ch.wait_local();
    }
    // The design point under test: the hot loop negotiated nothing.
    EXPECT_EQ(comm.engine().coll_stats().rma_mr_negotiations,
              negotiations_before);
    EXPECT_EQ(ch.posts(), 10u);
    EXPECT_EQ(ch.arrivals(), 10u);
    ch.close();
    comm.barrier();
    comm.free(sbuf);
    comm.free(rbuf);
  });
  EXPECT_GE(rt.rank_stats()[0].channel_posts, 10u);
  EXPECT_GE(rt.rank_stats()[0].channel_negotiations, 1u);
}

TEST(Channel, SelfChannelShortCircuits) {
  run_mpi(dcfa_cfg(1), [](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer sbuf = comm.alloc(128);
    mem::Buffer rbuf = comm.alloc(128);
    Channel ch(comm, 0, sbuf, 0, rbuf, 0, 128);
    std::memset(sbuf.data(), 0x11, 128);
    ch.post();
    ch.wait_arrival();
    EXPECT_EQ(rbuf.data()[127], std::byte{0x11});
    ch.close();
    comm.free(sbuf);
    comm.free(rbuf);
    (void)ctx;
  });
}

// --- Rank failure --------------------------------------------------------------

TEST(Window, LockTowardDeadRankThrowsInsteadOfHanging) {
  RunConfig cfg = dcfa_cfg(3);
  cfg.fault_spec = "rank_kill=2,rank_kill_at_ns=2000000";
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer wbuf = comm.alloc(256);
    Window win(comm, wbuf, 0, 256);
    if (ctx.rank == 2) {
      // Victim: hold an exclusive lock on itself and never unlock — dies
      // mid-epoch, with the window never freed (the unwind-path test). The
      // blocking probe keeps it inside the engine so the kill fate can
      // fire; nobody ever sends tag 99.
      win.lock(2, Window::Lock::Exclusive);
      comm.probe(0, /*tag=*/99);
    }
    // Survivors: let the kill land, then try to lock the dead rank. The
    // dead rank held its own lock exclusively, so the bootstrap must both
    // release the dead holder's grant and refuse new epochs toward it.
    ctx.proc.wait(sim::milliseconds(4));
    bool failed = false;
    try {
      win.lock(2, Window::Lock::Exclusive);
      win.unlock(2);
    } catch (const MpiError& e) {
      failed = (e.errc() == MpiErrc::ProcFailed);
    }
    EXPECT_TRUE(failed);
    // The engine must survive the victim's ~Window on the unwinding fiber;
    // survivors still shut down cleanly (no collective free possible).
    comm.free(wbuf);
  });
  EXPECT_EQ(rt.faults()->counters().rank_kills, 1u);
}
