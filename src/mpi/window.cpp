#include "mpi/window.hpp"

#include <cstring>

namespace dcfa::mpi {

Window::Window(Communicator& comm, const mem::Buffer& buf,
               std::size_t offset, std::size_t size)
    : Window(comm, buf, offset, size, /*owned=*/false) {}

Window Window::allocate(Communicator& comm, std::size_t size,
                        std::size_t align) {
  return Window(comm, comm.alloc(size > 0 ? size : 1, align), 0, size,
                /*owned=*/true);
}

Window::Window(Communicator& comm, const mem::Buffer& buf,
               std::size_t offset, std::size_t size, bool owned)
    : comm_(comm), buf_(buf), offset_(offset), size_(size), owned_(owned) {
  if (offset + size > buf.size()) {
    throw MpiError("Window: window escapes buffer");
  }
  id_ = comm_.next_win_id();
  mr_ = eng().expose_window_mr(buf_);

  // Register this rank's exposure with the checker's ledger BEFORE the
  // address exchange: an origin can only target us once it has our
  // advertisement, and it can't have that until we contributed to the
  // allgather below — so exposing first makes the ledger entry
  // happens-before every possible remote access.
  chk().rma_exposed(eng().rank(), id_, buf_.addr() + offset_, size_);

  // Collective exchange of (addr, rkey, size) — the out-of-band step
  // MPI_Win_create performs.
  struct Adv {
    mem::SimAddr addr;
    ib::MKey rkey;
    std::uint64_t size;
  };
  mem::Buffer mine = comm_.alloc(sizeof(Adv));
  mem::Buffer all = comm_.alloc(sizeof(Adv) * comm_.size());
  Adv adv{buf_.addr() + offset_, mr_->rkey(), size_};
  std::memcpy(mine.data(), &adv, sizeof adv);
  comm_.allgather(mine, 0, sizeof(Adv), type_byte(), all, 0);
  remotes_.resize(comm_.size());
  for (int r = 0; r < comm_.size(); ++r) {
    Adv a;
    std::memcpy(&a, all.data() + r * sizeof(Adv), sizeof a);
    remotes_[r] = RemoteWindow{a.addr, a.rkey,
                               static_cast<std::size_t>(a.size)};
  }
  comm_.free(mine);
  comm_.free(all);

  // Open the first fence epoch (creation is collective, so it doubles as
  // the opening fence — ops may be issued right away, as they always
  // could).
  chk().win_fence(eng().rank(), id_);
}

Window::~Window() {
  if (freed_) return;
  // free() is collective and must normally be called. But an unwinding
  // fiber (RankKilled / AbandonedProcess) destroys windows it never freed,
  // and a destructor cannot communicate — so release local resources
  // best-effort and swallow every failure: aborting engine teardown from
  // here would take the whole cluster's run down with one rank's leak.
  try {
    for (auto& [target, mode] : locks_) {
      eng().bootstrap().rma_unlock(id_, comm_.world_rank(target),
                                   eng().rank());
    }
    if (lock_all_) {
      for (int r = 0; r < comm_.size(); ++r) {
        eng().bootstrap().rma_unlock(id_, comm_.world_rank(r), eng().rank());
      }
    }
  } catch (...) {}
  try {
    chk().rma_unexposed(eng().rank(), id_);
  } catch (...) {}
  try {
    if (mr_) eng().release_window_mr(mr_);
    mr_ = nullptr;
  } catch (...) {}
  try {
    if (owned_ && buf_.valid()) comm_.free(buf_);
  } catch (...) {}
}

void Window::free() {
  if (freed_) return;
  if (!locks_.empty() || lock_all_) {
    throw MpiError("Window: free with passive epochs still open");
  }
  fence();
  chk().win_freed(eng().rank(), id_);
  chk().rma_unexposed(eng().rank(), id_);
  eng().release_window_mr(mr_);
  mr_ = nullptr;
  if (owned_ && buf_.valid()) comm_.free(buf_);
  freed_ = true;
}

std::size_t Window::check_access(int target, std::size_t count,
                                 const Datatype& type,
                                 std::size_t disp) const {
  if (freed_) throw MpiError("Window: used after free");
  if (target < 0 || target >= comm_.size()) {
    throw MpiError("Window: bad target rank");
  }
  if (!type.is_contiguous()) {
    throw MpiError("Window: RMA requires a contiguous datatype (a strided "
                   "layout would need a remote unpack, and the target is "
                   "passive)");
  }
  const std::size_t bytes = count * type.size();
  if (disp + bytes > remotes_[target].size) {
    throw MpiError("Window: access of " + std::to_string(bytes) +
                   " bytes at displacement " + std::to_string(disp) +
                   " escapes the target window of " +
                   std::to_string(remotes_[target].size) + " bytes");
  }
  // Epoch discipline: inside a passive phase (any lock held), every access
  // must go to a locked target; outside, the ambient fence epoch covers
  // everything (it is open from creation / the last fence()).
  if (!lock_all_ && !locks_.empty() && locks_.count(target) == 0) {
    throw MpiError("Window: access to rank " + std::to_string(target) +
                   " without a lock while a passive epoch is open");
  }
  return bytes;
}

void Window::note_op(int target) {
  ++outstanding_;
  ++pending_[target];
  chk().rma_op(eng().rank(), id_, comm_.world_rank(target));
}

void Window::complete_op(int target) {
  --outstanding_;
  --pending_[target];
  chk().rma_completed(eng().rank(), id_, comm_.world_rank(target));
}

void Window::quiesce(int target) {
  eng().wait_until([this, target] {
    auto it = pending_.find(target);
    return it == pending_.end() || it->second == 0;
  });
}

void Window::put(const mem::Buffer& src, std::size_t soff, std::size_t count,
                 const Datatype& type, int target, std::size_t disp) {
  (void)rput(src, soff, count, type, target, disp);
}

void Window::get(const mem::Buffer& dst, std::size_t doff, std::size_t count,
                 const Datatype& type, int target, std::size_t disp) {
  (void)rget(dst, doff, count, type, target, disp);
}

void Window::accumulate(const mem::Buffer& src, std::size_t soff,
                        std::size_t count, const Datatype& type, Op op,
                        int target, std::size_t disp) {
  const std::size_t bytes = check_access(target, count, type, disp);
  if (bytes == 0) return;
  ++eng().coll_stats().rma_accumulates;
  if (op == Op::Replace) {
    // Element-wise overwrite: exactly a put.
    (void)rput(src, soff, count, type, target, disp);
    return;
  }
  // Get-modify-put: fetch the target elements, combine through the same
  // typed reduction engine the collectives use, write the result back.
  // The fetch blocks (the combine needs the data); the write-back is
  // asynchronous like any other RMA op and completes at the next
  // flush/unlock/fence. Atomicity is the caller's lock discipline. Both
  // halves report AccessOp::Accum so DcfaRace treats concurrent
  // accumulates as commuting while still flagging accum-vs-put overlap.
  mem::Buffer tmp = comm_.alloc(bytes);
  bool fetched = false;
  post(target, ib::Opcode::RdmaRead, tmp, 0, bytes, disp,
       sim::Checker::AccessOp::Accum, "accumulate fetch",
       [&fetched] { fetched = true; });
  eng().wait_until([&fetched] { return fetched; });
  eng().combine(op, type, tmp, 0, src, soff, count);
  note_op(target);
  post(target, ib::Opcode::RdmaWrite, tmp, 0, bytes, disp,
       sim::Checker::AccessOp::Accum, "accumulate", [this, target, tmp] {
         complete_op(target);
         comm_.free(tmp);
       });
}

Request Window::rput(const mem::Buffer& src, std::size_t soff,
                     std::size_t count, const Datatype& type, int target,
                     std::size_t disp) {
  return transfer(ib::Opcode::RdmaWrite, src, soff, count, type, target,
                  disp);
}

Request Window::rget(const mem::Buffer& dst, std::size_t doff,
                     std::size_t count, const Datatype& type, int target,
                     std::size_t disp) {
  return transfer(ib::Opcode::RdmaRead, dst, doff, count, type, target, disp);
}

Request Window::transfer(ib::Opcode opcode, const mem::Buffer& local,
                         std::size_t loff, std::size_t count,
                         const Datatype& type, int target, std::size_t disp) {
  const std::size_t bytes = check_access(target, count, type, disp);
  auto st = std::make_shared<RequestState>();
  st->kind = RequestState::Kind::Rma;
  st->peer = comm_.world_rank(target);
  st->comm_id = comm_.id();
  st->bytes = bytes;
  if (bytes == 0) {
    st->phase = RequestState::Phase::Complete;
    return Request(st);
  }
  const bool write = opcode == ib::Opcode::RdmaWrite;
  Engine::Stats& stats = eng().coll_stats();
  ++(write ? stats.rma_puts : stats.rma_gets);
  note_op(target);
  post(target, opcode, local, loff, bytes, disp,
       write ? sim::Checker::AccessOp::Write : sim::Checker::AccessOp::Read,
       write ? "put" : "get", [this, target, st] {
         complete_op(target);
         st->phase = RequestState::Phase::Complete;
       });
  return Request(st);
}

void Window::post(int target, ib::Opcode opcode, const mem::Buffer& local,
                  std::size_t loff, std::size_t bytes, std::size_t disp,
                  sim::Checker::AccessOp op, const char* label,
                  std::function<void()> on_done) {
  Engine& e = eng();
  const int peer = comm_.world_rank(target);
  mem::SimAddr laddr = local.addr() + loff;
  ib::MKey lkey = 0;
  ib::MemoryRegion* mr = nullptr;
  if (peer != e.rank() && !e.rank_failed(peer)) {
    std::optional<Engine::Exposure> staged;
    if (opcode == ib::Opcode::RdmaWrite) {
      staged = e.stage_offload(local, loff, bytes);
    }
    if (staged) {
      laddr = staged->addr;
      lkey = staged->lkey;
    } else {
      mr = e.register_window(local);
      lkey = mr->lkey();
    }
  }
  // The MR goes before on_done runs, which may free `local`.
  e.rma_post(peer, opcode, laddr, lkey, bytes, remotes_[target].addr + disp,
             remotes_[target].rkey, sim::CheckKind::RaceRmaWindow, op, label,
             [&e, mr, on_done = std::move(on_done)] {
               e.release_window(mr);
               on_done();
             });
}

void Window::fence() {
  if (freed_) throw MpiError("Window: fence after free");
  if (!locks_.empty() || lock_all_) {
    throw MpiError("Window: fence while passive epochs are open");
  }
  eng().wait_until([this] { return outstanding_ == 0; });
  chk().win_fence(eng().rank(), id_);
  comm_.barrier();
}

void Window::lock(int target, Lock mode) {
  if (freed_) throw MpiError("Window: lock after free");
  if (target < 0 || target >= comm_.size()) {
    throw MpiError("Window: bad lock target");
  }
  if (lock_all_ || locks_.count(target) > 0) {
    throw MpiError("Window: lock on rank " + std::to_string(target) +
                   " already held");
  }
  Engine& e = eng();
  const int w = comm_.world_rank(target);
  const bool excl = mode == Lock::Exclusive;
  bool granted = false;
  // Arbitration runs over the out-of-band lock board, whose unlocks ring
  // every rank's watch: the holder may be anyone, including a rank we never
  // exchanged a packet with, or a dead one, whose holds adopt_failures
  // releases.
  e.wait_until([&] {
    if (e.rank_failed(w) || e.bootstrap().is_dead(w)) return true;
    granted = e.bootstrap().rma_try_lock(id_, w, e.rank(), excl);
    return granted;
  });
  if (!granted) {
    ++e.coll_stats().proc_failed_ops;
    throw MpiError("Window: lock target rank " + std::to_string(target) +
                       " is dead",
                   MpiErrc::ProcFailed, w, comm_.id());
  }
  ++e.coll_stats().rma_locks;
  locks_[target] = mode;
  chk().win_lock(e.rank(), id_, w, excl);
}

void Window::lock_all() {
  if (freed_) throw MpiError("Window: lock_all after free");
  if (lock_all_ || !locks_.empty()) {
    throw MpiError("Window: lock_all while locks are held");
  }
  Engine& e = eng();
  // Shared locks on every target in ascending rank order: the total order
  // makes concurrent lock_all callers deadlock-free.
  for (int r = 0; r < comm_.size(); ++r) {
    const int w = comm_.world_rank(r);
    bool granted = false;
    e.wait_until([&] {
      if (e.rank_failed(w) || e.bootstrap().is_dead(w)) return true;
      granted = e.bootstrap().rma_try_lock(id_, w, e.rank(), false);
      return granted;
    });
    if (!granted) {
      for (int u = 0; u < r; ++u) {
        e.bootstrap().rma_unlock(id_, comm_.world_rank(u), e.rank());
      }
      ++e.coll_stats().proc_failed_ops;
      throw MpiError("Window: lock_all member rank " + std::to_string(r) +
                         " is dead",
                     MpiErrc::ProcFailed, w, comm_.id());
    }
  }
  ++e.coll_stats().rma_locks;
  lock_all_ = true;
  chk().win_lock_all(e.rank(), id_, comm_.size());
}

void Window::unlock(int target) {
  if (freed_) throw MpiError("Window: unlock after free");
  auto it = locks_.find(target);
  if (it == locks_.end()) {
    throw MpiError("Window: unlock of rank " + std::to_string(target) +
                   " without a lock");
  }
  // Unlock is a closing synchronisation: complete everything first.
  quiesce(target);
  ++eng().coll_stats().rma_flushes;
  const int w = comm_.world_rank(target);
  chk().win_unlock(eng().rank(), id_, w);
  locks_.erase(it);
  eng().bootstrap().rma_unlock(id_, w, eng().rank());
}

void Window::unlock_all() {
  if (freed_) throw MpiError("Window: unlock_all after free");
  if (!lock_all_) throw MpiError("Window: unlock_all without lock_all");
  eng().wait_until([this] { return outstanding_ == 0; });
  ++eng().coll_stats().rma_flushes;
  chk().win_unlock_all(eng().rank(), id_);
  lock_all_ = false;
  for (int r = 0; r < comm_.size(); ++r) {
    eng().bootstrap().rma_unlock(id_, comm_.world_rank(r), eng().rank());
  }
}

void Window::flush(int target) {
  if (freed_) throw MpiError("Window: flush after free");
  if (!lock_all_ && locks_.count(target) == 0) {
    throw MpiError("Window: flush of rank " + std::to_string(target) +
                   " outside a passive epoch");
  }
  quiesce(target);
  ++eng().coll_stats().rma_flushes;
  chk().rma_flushed(eng().rank(), id_, comm_.world_rank(target));
}

void Window::flush_all() {
  if (freed_) throw MpiError("Window: flush_all after free");
  if (lock_all_) {
    for (int r = 0; r < comm_.size(); ++r) flush(r);
  } else {
    // Iterate over a copy of the keys: flush doesn't mutate locks_, but
    // stay robust if that ever changes.
    std::vector<int> held;
    held.reserve(locks_.size());
    for (auto& [t, m] : locks_) held.push_back(t);
    for (int t : held) flush(t);
  }
}

void Window::flush_local(int target) {
  // Local completion of an RDMA write implies remote delivery in this
  // model (the engine completes the WR only when the bytes landed), so
  // the two flush flavours coincide; see docs/rma.md.
  flush(target);
}

}  // namespace dcfa::mpi
