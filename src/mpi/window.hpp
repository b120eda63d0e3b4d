#pragma once

#include <map>
#include <vector>

#include "mpi/communicator.hpp"

namespace dcfa::mpi {

/// One-sided communication window: the MPI-3 RMA surface over the DCFA
/// substrate (MPI_Win_create / allocate / Put / Get / Accumulate / Rput /
/// Rget plus both synchronisation families).
///
/// An RMA subsystem that the DCFA substrate makes almost free: the paper's
/// whole design is user-space RDMA from the co-processor, so a window is
/// just a registered memory region whose rkey every rank learns at creation
/// — puts and gets map 1:1 onto the RDMA writes/reads the P2P rendezvous
/// already uses, with no target-side involvement at all (true passive
/// progress, which two-sided DCFA-MPI cannot offer).
///
/// Synchronisation models (docs/rma.md has the full epoch state machine):
///  * Active target: fence epochs (the BSP style). Window creation opens
///    the first epoch; operations issued between two fence() calls are
///    complete — locally and at the target — after the closing fence.
///  * Passive target: lock/unlock epochs (MPI_Win_lock). lock(target)
///    opens an access epoch toward one rank without any involvement of
///    that rank (arbitration runs over the out-of-band bootstrap, the PMI
///    role); flush(target) completes all operations issued so far;
///    unlock(target) flushes and closes the epoch. lock_all/unlock_all is
///    the shared-mode epoch toward every rank at once.
///
/// Argument conventions match the p2p API: (buffer, offset, count,
/// datatype, target, target_disp). Displacements are in bytes. Only
/// contiguous datatypes may cross a window (derived strided types would
/// need a remote unpack, which a one-sided target cannot run).
///
/// The DcfaCheck shadow ledgers audit every epoch transition, lock grant,
/// flush and remote access (CheckKind::Rma*); the Window additionally
/// enforces user-level discipline directly by throwing MpiError.
class Window {
 public:
  /// Passive-target lock mode (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE).
  enum class Lock { Shared, Exclusive };

  /// Collective over `comm`: expose `size` bytes of `buf` starting at
  /// `offset` (MPI_Win_create). Every rank must participate (sizes may
  /// differ; zero-size participation is fine).
  Window(Communicator& comm, const mem::Buffer& buf, std::size_t offset,
         std::size_t size);

  /// Collective: allocate `size` bytes of engine-owned memory in this
  /// endpoint's natural domain and expose all of it (MPI_Win_allocate).
  /// The memory lives until free(); reach it through base().
  static Window allocate(Communicator& comm, std::size_t size,
                         std::size_t align = 64);

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  ~Window();

  /// Collective teardown (quiesces first; all passive epochs must already
  /// be closed). Must be called; the destructor only releases local
  /// resources best-effort — see its comment.
  void free();

  // --- Communication operations ---------------------------------------------
  /// RDMA-write `count` elements of `type` from src[soff..] into the target
  /// rank's window at byte displacement `disp`. Requires an open epoch
  /// toward `target` (fence mode, or a lock held on it).
  void put(const mem::Buffer& src, std::size_t soff, std::size_t count,
           const Datatype& type, int target, std::size_t disp);
  /// RDMA-read `count` elements of `type` from the target window at `disp`
  /// into dst[doff..].
  void get(const mem::Buffer& dst, std::size_t doff, std::size_t count,
           const Datatype& type, int target, std::size_t disp);
  /// Element-wise target[d] = target[d] OP src[s] (MPI_Accumulate) over the
  /// datatype engine's typed kinds; Op::Replace is an element-wise
  /// overwrite (an atomic put). Atomic with respect to other accumulates
  /// on the same target under an exclusive lock (or fence epochs); shared
  /// locks only order same-origin accumulates.
  void accumulate(const mem::Buffer& src, std::size_t soff, std::size_t count,
                  const Datatype& type, Op op, int target, std::size_t disp);
  /// Request-returning put/get (MPI_Rput / MPI_Rget): the returned request
  /// completes at *local* completion of the transfer and mixes freely with
  /// p2p and collective requests in wait/test sets. Remote completion
  /// still requires a flush/unlock/fence.
  Request rput(const mem::Buffer& src, std::size_t soff, std::size_t count,
               const Datatype& type, int target, std::size_t disp);
  Request rget(const mem::Buffer& dst, std::size_t doff, std::size_t count,
               const Datatype& type, int target, std::size_t disp);

  // --- Active-target synchronisation ------------------------------------------
  /// Close the current fence epoch and open the next: wait for local
  /// completion of every issued operation, then synchronise all ranks.
  /// After fence() returns, every rank sees every put of the epoch.
  void fence();

  // --- Passive-target synchronisation -----------------------------------------
  /// Open an access epoch toward `target` (MPI_Win_lock). Blocks until the
  /// lock is granted: Exclusive excludes every other holder, Shared
  /// coexists with other Shared holders. Throws MpiErrc::ProcFailed
  /// instead of hanging when the target (or a holder we wait on) is dead.
  void lock(int target, Lock mode = Lock::Shared);
  /// Shared-mode access epoch toward every rank at once (MPI_Win_lock_all).
  /// Locks are acquired in ascending rank order, so concurrent lock_all
  /// callers cannot deadlock.
  void lock_all();
  /// Complete all operations toward `target`, then close its epoch.
  void unlock(int target);
  void unlock_all();
  /// Complete (remotely) every operation issued toward `target` so far in
  /// this epoch; the epoch stays open.
  void flush(int target);
  /// Flush every target we hold an epoch toward.
  void flush_all();
  /// Complete every operation toward `target` *locally* (the origin buffer
  /// is reusable). In this model local completion of an RDMA write implies
  /// remote delivery, so this is equivalent to flush(); kept as a distinct
  /// entry point for MPI shape and for the ledger audit.
  void flush_local(int target);

  // --- Introspection -----------------------------------------------------------
  std::size_t size() const { return size_; }
  std::size_t target_size(int target) const { return remotes_[target].size; }
  Communicator& comm() { return comm_; }
  /// Cluster-unique window id (checker ledgers, lock board).
  std::uint64_t id() const { return id_; }
  /// The exposed memory (for allocate()-built windows this is the
  /// engine-owned buffer).
  const mem::Buffer& base() const { return buf_; }
  /// Operations issued and not yet locally complete (tests/benches).
  int outstanding() const { return outstanding_; }

 private:
  struct RemoteWindow {
    mem::SimAddr addr = 0;
    ib::MKey rkey = 0;
    std::size_t size = 0;
  };

  Window(Communicator& comm, const mem::Buffer& buf, std::size_t offset,
         std::size_t size, bool owned);

  /// Common entry guard: liveness, target range, epoch discipline, bounds,
  /// datatype shape. Returns the transfer size in bytes.
  std::size_t check_access(int target, std::size_t count,
                           const Datatype& type, std::size_t disp) const;
  /// rput (RdmaWrite) or rget (RdmaRead) of `count` elements of `type`
  /// between local[loff..] and the target window at `disp`.
  Request transfer(ib::Opcode opcode, const mem::Buffer& local,
                   std::size_t loff, std::size_t count, const Datatype& type,
                   int target, std::size_t disp);
  /// Post one RDMA op between local[loff..] and the target window at
  /// `disp` through Engine::rma_post, resolving the local side: the offload
  /// shadow for an eligible write, else a registration. A self op or one
  /// toward a dead rank needs neither.
  void post(int target, ib::Opcode opcode, const mem::Buffer& local,
            std::size_t loff, std::size_t bytes, std::size_t disp,
            sim::Checker::AccessOp op, const char* label,
            std::function<void()> on_done);
  void note_op(int target);       ///< one op issued toward comm rank target
  void complete_op(int target);   ///< its local completion
  /// Wait until every op toward comm rank `target` is locally complete.
  void quiesce(int target);
  Engine& eng() const { return comm_.engine(); }
  sim::Checker& chk() const { return comm_.engine().checker(); }

  Communicator& comm_;
  mem::Buffer buf_;
  std::size_t offset_;
  std::size_t size_;
  std::uint64_t id_ = 0;
  bool owned_ = false;  ///< allocate(): buf_ is ours, freed in free()
  ib::MemoryRegion* mr_ = nullptr;
  std::vector<RemoteWindow> remotes_;  ///< indexed by comm rank
  int outstanding_ = 0;                ///< ops not yet locally complete
  std::map<int, int> pending_;         ///< per-target (comm rank) in-flight
  std::map<int, Lock> locks_;          ///< passive epochs we hold (comm rank)
  bool lock_all_ = false;
  bool freed_ = false;
};

}  // namespace dcfa::mpi
