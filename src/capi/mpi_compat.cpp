#include "capi/mpi_compat.hpp"

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mpi/window.hpp"

namespace dcfa::capi {

namespace {

/// Generation-counted handle table. Handle layout: slot in bits 0..15,
/// generation in bits 16..30 (bit 31 stays clear so handles are positive
/// and never collide with the -1 null handles). Slots are recycled; the
/// generation stamps each incarnation, so a stale handle copy (kept after
/// its object was released) never aliases a reused slot.
template <typename T>
class HandleTable {
 public:
  enum class Ref {
    Ok,       ///< live object at *slot
    Stale,    ///< well-formed handle whose incarnation was released
    Invalid,  ///< never a handle of this table
  };

  int stash(T value) {
    int slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      items_[slot] = std::move(value);
    } else {
      slot = static_cast<int>(items_.size());
      items_.push_back(std::move(value));
      gens_.push_back(0);
    }
    return (gens_[slot] & 0x7fff) << 16 | slot;
  }

  Ref decode(int h, int* slot) const {
    if (h < 0) return Ref::Invalid;
    const int s = h & 0xffff;
    const int gen = (h >> 16) & 0x7fff;
    if (s >= static_cast<int>(items_.size())) return Ref::Invalid;
    if ((gens_[s] & 0x7fff) != gen || !items_[s]) return Ref::Stale;
    *slot = s;
    return Ref::Ok;
  }

  T& operator[](int slot) { return *items_[slot]; }

  /// Retire a slot: bump the generation (invalidating outstanding handle
  /// copies) and recycle it.
  void release(int slot) {
    items_[slot].reset();
    ++gens_[slot];
    free_.push_back(slot);
  }

 private:
  std::vector<std::optional<T>> items_;
  std::vector<std::uint16_t> gens_;
  std::vector<int> free_;
};

/// Per-rank ambient state. Each rank is one sim::Process — with the fiber
/// scheduler many ranks share an OS thread, so "process globals" hang off
/// the process's ambient slot (set by run() below), not off thread_local.
struct RankEnv {
  mpi::RankCtx* ctx = nullptr;
  bool initialized = false;
  bool finalized = false;
  MPI_Errhandler errhandler = MPI_ERRORS_ARE_FATAL;

  /// Slot 0 = MPI_COMM_WORLD (borrowed from the ctx), slot 1 =
  /// MPI_COMM_SELF (built lazily), others from dup/split.
  std::vector<mpi::Communicator*> comms;
  std::vector<std::unique_ptr<mpi::Communicator>> owned_comms;

  /// Device allocations addressable through raw pointers.
  std::map<const std::byte*, mem::Buffer> allocs;

  /// Outstanding non-blocking operations.
  HandleTable<mpi::Request> requests;

  /// RMA windows. `base` and `owned_mem` track MPI_Win_allocate memory
  /// (registered in allocs so the window region doubles as regular device
  /// memory; freed at Win_free).
  struct WinEntry {
    std::unique_ptr<mpi::Window> win;
    int disp_unit = 1;
    MPI_Errhandler errhandler = MPI_ERRORS_ARE_FATAL;
    const std::byte* base = nullptr;
    bool owned_mem = false;
  };
  HandleTable<WinEntry> wins;
};

using ReqRef = HandleTable<mpi::Request>::Ref;
using WinRef = HandleTable<RankEnv::WinEntry>::Ref;

RankEnv* env_or_null() {
  sim::Process* p = sim::Process::current();
  return p ? static_cast<RankEnv*>(p->ambient()) : nullptr;
}

RankEnv& env() {
  RankEnv* e = env_or_null();
  if (!e || !e->ctx) {
    throw mpi::MpiError("MPI call outside dcfa::capi::run()");
  }
  return *e;
}

mpi::Communicator* comm_of(MPI_Comm comm) {
  RankEnv& e = env();
  if (!e.initialized || e.finalized) return nullptr;
  if (comm == MPI_COMM_SELF && e.comms[1] == nullptr) {
    // Build the self communicator on first use.
    auto self = std::make_unique<mpi::Communicator>(
        e.ctx->world.engine(), /*id=*/0x5E1Fu,
        std::vector<int>{e.ctx->world.engine().rank()}, 0);
    e.comms[1] = self.get();
    e.owned_comms.push_back(std::move(self));
  }
  if (comm < 0 || comm >= static_cast<MPI_Comm>(e.comms.size())) {
    return nullptr;
  }
  return e.comms[comm];
}

std::size_t type_size(MPI_Datatype t) {
  switch (t) {
    case MPI_BYTE:
    case MPI_CHAR: return 1;
    case MPI_INT: return sizeof(int);
    case MPI_FLOAT: return sizeof(float);
    case MPI_DOUBLE: return sizeof(double);
    case MPI_LONG_LONG: return sizeof(long long);
  }
  return 0;
}

const mpi::Datatype* type_of(MPI_Datatype t) {
  switch (t) {
    case MPI_BYTE:
    case MPI_CHAR: return &mpi::type_byte();
    case MPI_INT: return &mpi::type_int();
    case MPI_FLOAT: return &mpi::type_float();
    case MPI_DOUBLE: return &mpi::type_double();
    case MPI_LONG_LONG: return &mpi::type_int64();
  }
  return nullptr;
}

bool op_of(MPI_Op op, mpi::Op* out) {
  switch (op) {
    case MPI_SUM: *out = mpi::Op::Sum; return true;
    case MPI_PROD: *out = mpi::Op::Prod; return true;
    case MPI_MAX: *out = mpi::Op::Max; return true;
    case MPI_MIN: *out = mpi::Op::Min; return true;
  }
  return false;
}

/// RMA flavour: MPI_Accumulate additionally takes MPI_REPLACE, which the
/// collective reductions reject.
bool rma_op_of(MPI_Op op, mpi::Op* out) {
  if (op == MPI_REPLACE) {
    *out = mpi::Op::Replace;
    return true;
  }
  return op_of(op, out);
}

/// Map a raw pointer into (device buffer, offset). The pointer must lie in
/// a block from MPI_Alloc_mem.
bool resolve(const void* ptr, std::size_t bytes, mem::Buffer* buf,
             std::size_t* offset) {
  RankEnv& e = env();
  const auto* p = static_cast<const std::byte*>(ptr);
  auto it = e.allocs.upper_bound(p);
  if (it == e.allocs.begin()) return false;
  --it;
  const mem::Buffer& b = it->second;
  if (p < b.data() || p + bytes > b.data() + b.size()) return false;
  *buf = b;
  *offset = static_cast<std::size_t>(p - b.data());
  return true;
}

void fill_status(MPI_Status* status, const mpi::Status& st) {
  if (!status) return;
  status->MPI_SOURCE = st.source;
  status->MPI_TAG = st.tag;
  status->MPI_ERROR = MPI_SUCCESS;
  status->count_bytes_ = st.bytes;
}

MPI_Request stash_request(mpi::Request req) {
  return env().requests.stash(std::move(req));
}

ReqRef decode_request(MPI_Request h, int* slot) {
  return env().requests.decode(h, slot);
}

void release_request(int slot) { env().requests.release(slot); }

RankEnv::WinEntry* win_of(MPI_Win h) {
  RankEnv& e = env();
  int slot;
  return e.wins.decode(h, &slot) == WinRef::Ok ? &e.wins[slot] : nullptr;
}

int classify(const mpi::MpiError& err) {
  switch (err.errc()) {
    case mpi::MpiErrc::ProcFailed: return MPIX_ERR_PROC_FAILED;
    case mpi::MpiErrc::Revoked: return MPIX_ERR_REVOKED;
    case mpi::MpiErrc::Truncation: return MPI_ERR_TRUNCATE;
    default: break;
  }
  return std::string(err.what()).find("truncation") != std::string::npos
             ? MPI_ERR_TRUNCATE
             : MPI_ERR_OTHER;
}

/// Wrap a shim body: translate argument failures and engine errors into
/// MPI error codes. Rank-failure and revocation errors are only reported as
/// codes under MPI_ERRORS_RETURN; a fault-unaware program (the default
/// MPI_ERRORS_ARE_FATAL) lets them escape and kill the job, matching MPI's
/// predefined-handler semantics.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const mpi::MpiError& e) {
    const int code = classify(e);
    if ((code == MPIX_ERR_PROC_FAILED || code == MPIX_ERR_REVOKED) &&
        env().errhandler == MPI_ERRORS_ARE_FATAL) {
      throw;
    }
    return code;
  }
}

}  // namespace

// --- Environment --------------------------------------------------------------

int MPI_Init(int*, char***) {
  RankEnv& e = env();
  if (e.initialized) return MPI_ERR_OTHER;
  e.initialized = true;
  e.comms.assign(2, nullptr);
  e.comms[0] = &e.ctx->world;
  return MPI_SUCCESS;
}

int MPI_Finalize() {
  RankEnv& e = env();
  if (!e.initialized || e.finalized) return MPI_ERR_OTHER;
  e.finalized = true;
  // Release any remaining allocations (MRs and device memory).
  for (auto& [ptr, buf] : e.allocs) {
    e.ctx->world.free(buf);
  }
  e.allocs.clear();
  e.owned_comms.clear();
  return MPI_SUCCESS;
}

int MPI_Initialized(int* flag) {
  RankEnv* e = env_or_null();
  *flag = e && e->initialized ? 1 : 0;
  return MPI_SUCCESS;
}

int MPI_Abort(MPI_Comm, int errorcode) {
  throw mpi::MpiError("MPI_Abort called with code " +
                      std::to_string(errorcode));
}

double MPI_Wtime() { return env().ctx->world.wtime(); }

int MPI_Alloc_mem(std::size_t size, void*, void* baseptr) {
  return guarded([&]() -> int {
    RankEnv& e = env();
    mem::Buffer buf = e.ctx->world.alloc(std::max<std::size_t>(size, 1), 64);
    e.allocs.emplace(buf.data(), buf);
    *static_cast<void**>(baseptr) = buf.data();
    return MPI_SUCCESS;
  });
}

int MPI_Free_mem(void* base) {
  return guarded([&]() -> int {
    RankEnv& e = env();
    auto it = e.allocs.find(static_cast<const std::byte*>(base));
    if (it == e.allocs.end()) return MPI_ERR_BUFFER;
    e.ctx->world.free(it->second);
    e.allocs.erase(it);
    return MPI_SUCCESS;
  });
}

// --- Communicators ---------------------------------------------------------------

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
  mpi::Communicator* c = comm_of(comm);
  if (!c) return MPI_ERR_COMM;
  *rank = c->rank();
  return MPI_SUCCESS;
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
  mpi::Communicator* c = comm_of(comm);
  if (!c) return MPI_ERR_COMM;
  *size = c->size();
  return MPI_SUCCESS;
}

int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    RankEnv& e = env();
    auto dup = std::make_unique<mpi::Communicator>(c->dup());
    e.comms.push_back(dup.get());
    e.owned_comms.push_back(std::move(dup));
    *newcomm = static_cast<MPI_Comm>(e.comms.size()) - 1;
    return MPI_SUCCESS;
  });
}

int MPI_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm* newcomm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    RankEnv& e = env();
    auto split = std::make_unique<mpi::Communicator>(c->split(color, key));
    e.comms.push_back(split.get());
    e.owned_comms.push_back(std::move(split));
    *newcomm = static_cast<MPI_Comm>(e.comms.size()) - 1;
    return MPI_SUCCESS;
  });
}

int MPI_Comm_free(MPI_Comm* comm) {
  mpi::Communicator* c = comm_of(*comm);
  if (!c || *comm <= MPI_COMM_SELF) return MPI_ERR_COMM;
  env().comms[*comm] = nullptr;  // handle dangles; storage freed at finalize
  *comm = MPI_COMM_NULL;
  return MPI_SUCCESS;
}

int MPI_Comm_set_errhandler(MPI_Comm comm, MPI_Errhandler errhandler) {
  if (!comm_of(comm)) return MPI_ERR_COMM;
  if (errhandler != MPI_ERRORS_ARE_FATAL && errhandler != MPI_ERRORS_RETURN) {
    return MPI_ERR_OTHER;
  }
  // Rank-wide, whichever communicator it was set on: the shim keeps one
  // ambient handler per rank, like real MPI programs that only ever set it
  // on MPI_COMM_WORLD.
  env().errhandler = errhandler;
  return MPI_SUCCESS;
}

// --- Fault tolerance (ULFM-style MPIX extensions) ----------------------------

int MPIX_Comm_revoke(MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    c->revoke();
    return MPI_SUCCESS;
  });
}

int MPIX_Comm_shrink(MPI_Comm comm, MPI_Comm* newcomm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    RankEnv& e = env();
    auto shrunk = std::make_unique<mpi::Communicator>(c->shrink());
    e.comms.push_back(shrunk.get());
    e.owned_comms.push_back(std::move(shrunk));
    *newcomm = static_cast<MPI_Comm>(e.comms.size()) - 1;
    return MPI_SUCCESS;
  });
}

int MPIX_Comm_agree(MPI_Comm comm, int* flag) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    *flag = static_cast<int>(
        c->agree(static_cast<std::uint32_t>(*flag)) & 0xffffffffu);
    return MPI_SUCCESS;
  });
}

// --- Point-to-point -----------------------------------------------------------------

namespace {
int do_send(const void* buf, int count, MPI_Datatype type, int dest, int tag,
            MPI_Comm comm, bool sync) {
  return guarded([&]() -> int {
    if (dest == MPI_PROC_NULL) return MPI_SUCCESS;
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    const mpi::Datatype* t = type_of(type);
    if (!t || count < 0) return MPI_ERR_TYPE;
    mem::Buffer b;
    std::size_t off = 0;
    if (!resolve(buf, count * t->size(), &b, &off)) return MPI_ERR_BUFFER;
    if (sync) {
      c->ssend(b, off, count, *t, dest, tag);
    } else {
      c->send(b, off, count, *t, dest, tag);
    }
    return MPI_SUCCESS;
  });
}
}  // namespace

int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest,
             int tag, MPI_Comm comm) {
  return do_send(buf, count, type, dest, tag, comm, false);
}

int MPI_Ssend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm) {
  return do_send(buf, count, type, dest, tag, comm, true);
}

int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status) {
  return guarded([&]() -> int {
    if (source == MPI_PROC_NULL) {
      if (status) {
        status->MPI_SOURCE = MPI_PROC_NULL;
        status->MPI_TAG = MPI_ANY_TAG;
        status->count_bytes_ = 0;
      }
      return MPI_SUCCESS;
    }
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    const mpi::Datatype* t = type_of(type);
    if (!t || count < 0) return MPI_ERR_TYPE;
    mem::Buffer b;
    std::size_t off = 0;
    if (!resolve(buf, count * t->size(), &b, &off)) return MPI_ERR_BUFFER;
    fill_status(status, c->recv(b, off, count, *t, source, tag));
    return MPI_SUCCESS;
  });
}

int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    if (dest == MPI_PROC_NULL) {
      *request = MPI_REQUEST_NULL;
      return MPI_SUCCESS;
    }
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    const mpi::Datatype* t = type_of(type);
    if (!t || count < 0) return MPI_ERR_TYPE;
    mem::Buffer b;
    std::size_t off = 0;
    if (!resolve(buf, count * t->size(), &b, &off)) return MPI_ERR_BUFFER;
    *request = stash_request(c->isend(b, off, count, *t, dest, tag));
    return MPI_SUCCESS;
  });
}

int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    if (source == MPI_PROC_NULL) {
      *request = MPI_REQUEST_NULL;
      return MPI_SUCCESS;
    }
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    const mpi::Datatype* t = type_of(type);
    if (!t || count < 0) return MPI_ERR_TYPE;
    mem::Buffer b;
    std::size_t off = 0;
    if (!resolve(buf, count * t->size(), &b, &off)) return MPI_ERR_BUFFER;
    *request = stash_request(c->irecv(b, off, count, *t, source, tag));
    return MPI_SUCCESS;
  });
}

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
  return guarded([&]() -> int {
    if (*request == MPI_REQUEST_NULL) return MPI_SUCCESS;
    RankEnv& e = env();
    int slot;
    switch (decode_request(*request, &slot)) {
      case ReqRef::Invalid:
        return MPI_ERR_REQUEST;
      case ReqRef::Stale:
        // A copy of a handle whose incarnation already completed: nothing
        // left to wait for, and the slot must not be freed twice.
        *request = MPI_REQUEST_NULL;
        return MPI_SUCCESS;
      case ReqRef::Ok:
        break;
    }
    fill_status(status, e.ctx->world.engine().wait(e.requests[slot]));
    release_request(slot);
    *request = MPI_REQUEST_NULL;
    return MPI_SUCCESS;
  });
}

int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses) {
  for (int i = 0; i < count; ++i) {
    const int rc =
        MPI_Wait(&requests[i], statuses ? &statuses[i] : MPI_STATUS_IGNORE);
    if (rc != MPI_SUCCESS) return rc;
  }
  return MPI_SUCCESS;
}

int MPI_Waitany(int count, MPI_Request* requests, int* index,
                MPI_Status* status) {
  return guarded([&]() -> int {
    RankEnv& e = env();
    std::vector<mpi::Request> active;
    std::vector<std::pair<int, int>> at;  // (index, slot) per active entry
    for (int i = 0; i < count; ++i) {
      if (requests[i] == MPI_REQUEST_NULL) continue;
      int slot = -1;
      switch (decode_request(requests[i], &slot)) {
        case ReqRef::Invalid:
          return MPI_ERR_REQUEST;
        case ReqRef::Stale:
          requests[i] = MPI_REQUEST_NULL;
          continue;
        case ReqRef::Ok:
          active.push_back(e.requests[slot]);
          at.emplace_back(i, slot);
          break;
      }
    }
    if (active.empty()) {
      *index = MPI_UNDEFINED;
      return MPI_SUCCESS;
    }
    const std::size_t w = e.ctx->world.engine().waitany(active);
    const auto [i, slot] = at[w];
    fill_status(status, e.requests[slot].status());
    release_request(slot);
    requests[i] = MPI_REQUEST_NULL;
    *index = i;
    return MPI_SUCCESS;
  });
}

int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status) {
  return guarded([&]() -> int {
    if (*request == MPI_REQUEST_NULL) {
      *flag = 1;
      return MPI_SUCCESS;
    }
    RankEnv& e = env();
    int slot;
    switch (decode_request(*request, &slot)) {
      case ReqRef::Invalid:
        return MPI_ERR_REQUEST;
      case ReqRef::Stale:
        *flag = 1;
        *request = MPI_REQUEST_NULL;
        return MPI_SUCCESS;
      case ReqRef::Ok:
        break;
    }
    if (!e.ctx->world.test(e.requests[slot])) {
      *flag = 0;
      return MPI_SUCCESS;
    }
    *flag = 1;
    fill_status(status, e.requests[slot].status());
    release_request(slot);
    *request = MPI_REQUEST_NULL;
    return MPI_SUCCESS;
  });
}

int MPI_Testall(int count, MPI_Request* requests, int* flag,
                MPI_Status* statuses) {
  return guarded([&]() -> int {
    RankEnv& e = env();
    std::vector<mpi::Request> active;
    std::vector<std::pair<int, int>> at;  // (index, slot) per active entry
    for (int i = 0; i < count; ++i) {
      if (requests[i] == MPI_REQUEST_NULL) continue;
      int slot = -1;
      switch (decode_request(requests[i], &slot)) {
        case ReqRef::Invalid:
          return MPI_ERR_REQUEST;
        case ReqRef::Stale:
          requests[i] = MPI_REQUEST_NULL;
          continue;
        case ReqRef::Ok:
          active.push_back(e.requests[slot]);
          at.emplace_back(i, slot);
          break;
      }
    }
    if (!e.ctx->world.engine().testall(active)) {
      // Statuses stay undefined until everything completes (MPI semantics).
      *flag = 0;
      return MPI_SUCCESS;
    }
    *flag = 1;
    for (const auto& [i, slot] : at) {
      fill_status(statuses ? &statuses[i] : MPI_STATUS_IGNORE,
                  e.requests[slot].status());
      release_request(slot);
      requests[i] = MPI_REQUEST_NULL;
    }
    return MPI_SUCCESS;
  });
}

int MPI_Testany(int count, MPI_Request* requests, int* index, int* flag,
                MPI_Status* status) {
  return guarded([&]() -> int {
    RankEnv& e = env();
    std::vector<mpi::Request> active;
    std::vector<std::pair<int, int>> at;  // (index, slot) per active entry
    for (int i = 0; i < count; ++i) {
      if (requests[i] == MPI_REQUEST_NULL) continue;
      int slot = -1;
      switch (decode_request(requests[i], &slot)) {
        case ReqRef::Invalid:
          return MPI_ERR_REQUEST;
        case ReqRef::Stale:
          requests[i] = MPI_REQUEST_NULL;
          continue;
        case ReqRef::Ok:
          active.push_back(e.requests[slot]);
          at.emplace_back(i, slot);
          break;
      }
    }
    if (active.empty()) {
      // No active request: trivially "completed" with undefined index.
      *index = MPI_UNDEFINED;
      *flag = 1;
      return MPI_SUCCESS;
    }
    const auto w = e.ctx->world.engine().testany(active);
    if (!w) {
      *index = MPI_UNDEFINED;
      *flag = 0;
      return MPI_SUCCESS;
    }
    const auto [i, slot] = at[*w];
    fill_status(status, e.requests[slot].status());
    release_request(slot);
    requests[i] = MPI_REQUEST_NULL;
    *index = i;
    *flag = 1;
    return MPI_SUCCESS;
  });
}

int MPI_Request_free(MPI_Request* request) {
  return guarded([&]() -> int {
    if (*request == MPI_REQUEST_NULL) return MPI_ERR_REQUEST;
    int slot;
    switch (decode_request(*request, &slot)) {
      case ReqRef::Invalid:
        return MPI_ERR_REQUEST;
      case ReqRef::Stale:
        *request = MPI_REQUEST_NULL;
        return MPI_SUCCESS;
      case ReqRef::Ok:
        break;
    }
    // Dropping the handle does not cancel the operation: the engine keeps
    // its own reference to the request state until it completes.
    release_request(slot);
    *request = MPI_REQUEST_NULL;
    return MPI_SUCCESS;
  });
}

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    fill_status(status, c->probe(source, tag));
    return MPI_SUCCESS;
  });
}

int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag,
               MPI_Status* status) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    auto st = c->iprobe(source, tag);
    *flag = st.has_value() ? 1 : 0;
    if (st) fill_status(status, *st);
    return MPI_SUCCESS;
  });
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 int dest, int sendtag, void* recvbuf, int recvcount,
                 MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    const mpi::Datatype* st = type_of(sendtype);
    const mpi::Datatype* rt = type_of(recvtype);
    if (!st || !rt) return MPI_ERR_TYPE;
    mem::Buffer sb, rb;
    std::size_t soff = 0, roff = 0;
    if (!resolve(sendbuf, sendcount * st->size(), &sb, &soff) ||
        !resolve(recvbuf, recvcount * rt->size(), &rb, &roff)) {
      return MPI_ERR_BUFFER;
    }
    fill_status(status,
                c->sendrecv(sb, soff, sendcount, *st, dest, sendtag, rb,
                            roff, recvcount, *rt, source, recvtag));
    return MPI_SUCCESS;
  });
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count) {
  const std::size_t es = type_size(type);
  if (es == 0) return MPI_ERR_TYPE;
  if (status->count_bytes_ % es != 0) return MPI_ERR_TYPE;
  *count = static_cast<int>(status->count_bytes_ / es);
  return MPI_SUCCESS;
}

// --- Collectives -----------------------------------------------------------------

namespace {
/// Resolve a (buf, count, type) triple or bail with MPI_ERR_*.
int resolve3(const void* buf, int count, MPI_Datatype type, mem::Buffer* b,
             std::size_t* off, const mpi::Datatype** t) {
  *t = type_of(type);
  if (!*t || count < 0) return MPI_ERR_TYPE;
  if (!resolve(buf, count * (*t)->size(), b, off)) return MPI_ERR_BUFFER;
  return MPI_SUCCESS;
}
}  // namespace

int MPI_Barrier(MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    c->barrier();
    return MPI_SUCCESS;
  });
}

int MPI_Bcast(void* buffer, int count, MPI_Datatype type, int root,
              MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mem::Buffer b;
    std::size_t off;
    const mpi::Datatype* t;
    if (const int rc = resolve3(buffer, count, type, &b, &off, &t)) return rc;
    c->bcast(b, off, count, *t, root);
    return MPI_SUCCESS;
  });
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count,
               MPI_Datatype type, MPI_Op op, int root, MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc = resolve3(sendbuf, count, type, &sb, &soff, &t)) return rc;
    if (c->rank() == root) {
      if (const int rc = resolve3(recvbuf, count, type, &rb, &roff, &t)) return rc;
    } else {
      rb = sb;
      roff = soff;  // unused at non-roots
    }
    c->reduce(sb, soff, rb, roff, count, *t, o, root);
    return MPI_SUCCESS;
  });
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype type, MPI_Op op, MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc = resolve3(sendbuf, count, type, &sb, &soff, &t)) return rc;
    if (const int rc = resolve3(recvbuf, count, type, &rb, &roff, &t)) return rc;
    c->allreduce(sb, soff, rb, roff, count, *t, o);
    return MPI_SUCCESS;
  });
}

int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf,
                             int recvcount, MPI_Datatype type, MPI_Op op,
                             MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc =
            resolve3(sendbuf, recvcount * c->size(), type, &sb, &soff, &t)) {
      return rc;
    }
    if (const int rc = resolve3(recvbuf, recvcount, type, &rb, &roff, &t)) {
      return rc;
    }
    c->reduce_scatter_block(sb, soff, rb, roff, recvcount, *t, o);
    return MPI_SUCCESS;
  });
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
               void* recvbuf, int recvcount, MPI_Datatype recvtype, int root,
               MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mem::Buffer sb, rb;
    std::size_t soff, roff = 0;
    const mpi::Datatype* st;
    const mpi::Datatype* rt = type_of(recvtype);
    if (const int rc = resolve3(sendbuf, sendcount, sendtype, &sb, &soff, &st)) {
      return rc;
    }
    if (c->rank() == root) {
      if (!rt || !resolve(recvbuf, c->size() * recvcount * rt->size(), &rb,
                          &roff)) {
        return MPI_ERR_BUFFER;
      }
    } else {
      rb = sb;
    }
    c->gather(sb, soff, sendcount, *st, rb, roff, root);
    return MPI_SUCCESS;
  });
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                void* recvbuf, int recvcount, MPI_Datatype recvtype,
                int root, MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mem::Buffer sb, rb;
    std::size_t soff = 0, roff;
    const mpi::Datatype* rt;
    const mpi::Datatype* st = type_of(sendtype);
    if (const int rc = resolve3(recvbuf, recvcount, recvtype, &rb, &roff, &rt)) {
      return rc;
    }
    if (c->rank() == root) {
      if (!st || !resolve(sendbuf, c->size() * sendcount * st->size(), &sb,
                          &soff)) {
        return MPI_ERR_BUFFER;
      }
    } else {
      sb = rb;
    }
    c->scatter(sb, soff, sendcount, *rt, rb, roff, root);
    return MPI_SUCCESS;
  });
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                  void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    (void)recvcount;
    mem::Buffer sb, rb;
    std::size_t soff, roff = 0;
    const mpi::Datatype* st;
    const mpi::Datatype* rt = type_of(recvtype);
    if (const int rc = resolve3(sendbuf, sendcount, sendtype, &sb, &soff, &st)) {
      return rc;
    }
    if (!rt ||
        !resolve(recvbuf, c->size() * sendcount * rt->size(), &rb, &roff)) {
      return MPI_ERR_BUFFER;
    }
    c->allgather(sb, soff, sendcount, *st, rb, roff);
    return MPI_SUCCESS;
  });
}

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    (void)recvcount;
    (void)recvtype;
    mem::Buffer sb, rb;
    std::size_t soff = 0, roff = 0;
    const mpi::Datatype* st = type_of(sendtype);
    if (!st) return MPI_ERR_TYPE;
    if (!resolve(sendbuf, c->size() * sendcount * st->size(), &sb, &soff) ||
        !resolve(recvbuf, c->size() * sendcount * st->size(), &rb, &roff)) {
      return MPI_ERR_BUFFER;
    }
    c->alltoall(sb, soff, sendcount, *st, rb, roff);
    return MPI_SUCCESS;
  });
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count,
             MPI_Datatype type, MPI_Op op, MPI_Comm comm) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc = resolve3(sendbuf, count, type, &sb, &soff, &t)) return rc;
    if (const int rc = resolve3(recvbuf, count, type, &rb, &roff, &t)) return rc;
    c->scan(sb, soff, rb, roff, count, *t, o);
    return MPI_SUCCESS;
  });
}

// --- Nonblocking collectives -------------------------------------------------------

int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    *request = stash_request(c->ibarrier());
    return MPI_SUCCESS;
  });
}

int MPI_Ibcast(void* buffer, int count, MPI_Datatype type, int root,
               MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mem::Buffer b;
    std::size_t off;
    const mpi::Datatype* t;
    if (const int rc = resolve3(buffer, count, type, &b, &off, &t)) return rc;
    *request = stash_request(c->ibcast(b, off, count, *t, root));
    return MPI_SUCCESS;
  });
}

int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count,
                   MPI_Datatype type, MPI_Op op, MPI_Comm comm,
                   MPI_Request* request) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc = resolve3(sendbuf, count, type, &sb, &soff, &t)) return rc;
    if (const int rc = resolve3(recvbuf, count, type, &rb, &roff, &t)) return rc;
    *request = stash_request(c->iallreduce(sb, soff, rb, roff, count, *t, o));
    return MPI_SUCCESS;
  });
}

int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                   void* recvbuf, int recvcount, MPI_Datatype recvtype,
                   MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    (void)recvcount;
    mem::Buffer sb, rb;
    std::size_t soff, roff = 0;
    const mpi::Datatype* st;
    const mpi::Datatype* rt = type_of(recvtype);
    if (const int rc = resolve3(sendbuf, sendcount, sendtype, &sb, &soff, &st)) {
      return rc;
    }
    if (!rt ||
        !resolve(recvbuf, c->size() * sendcount * rt->size(), &rb, &roff)) {
      return MPI_ERR_BUFFER;
    }
    *request = stash_request(c->iallgather(sb, soff, sendcount, *st, rb, roff));
    return MPI_SUCCESS;
  });
}

int MPI_Ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              int recvcount, MPI_Datatype type, MPI_Op op,
                              MPI_Comm comm, MPI_Request* request) {
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c) return MPI_ERR_COMM;
    mpi::Op o;
    if (!op_of(op, &o)) return MPI_ERR_OP;
    mem::Buffer sb, rb;
    std::size_t soff, roff;
    const mpi::Datatype* t;
    if (const int rc =
            resolve3(sendbuf, recvcount * c->size(), type, &sb, &soff, &t)) {
      return rc;
    }
    if (const int rc = resolve3(recvbuf, recvcount, type, &rb, &roff, &t)) {
      return rc;
    }
    *request = stash_request(
        c->ireduce_scatter_block(sb, soff, rb, roff, recvcount, *t, o));
    return MPI_SUCCESS;
  });
}

// --- One-sided (MPI-3 RMA) ----------------------------------------------------

namespace {

/// guarded() flavour for window operations: the *window's* error handler
/// decides whether fault errors surface as codes, so a program can opt a
/// single window into MPIX_ERR_PROC_FAILED returns while the rest of the
/// rank stays fatal-by-default.
template <typename Fn>
int guarded_w(MPI_Win win, Fn&& fn) {
  try {
    return fn();
  } catch (const mpi::MpiError& e) {
    const int code = classify(e);
    if (code == MPIX_ERR_PROC_FAILED || code == MPIX_ERR_REVOKED) {
      const RankEnv::WinEntry* w = win_of(win);
      const MPI_Errhandler eh = w ? w->errhandler : env().errhandler;
      if (eh == MPI_ERRORS_ARE_FATAL) throw;
    }
    return code;
  }
}

/// Decode the common (origin, counts, types, window) argument bundle of
/// the communication calls. Origin and target shapes must agree in bytes
/// (a contiguous-only engine has no resizing to offer).
int rma_args(const void* origin, int origin_count, MPI_Datatype origin_type,
             int target_count, MPI_Datatype target_type, MPI_Win win,
             std::size_t target_disp, RankEnv::WinEntry** went,
             mem::Buffer* buf, std::size_t* off, const mpi::Datatype** type,
             std::size_t* disp) {
  RankEnv::WinEntry* w = win_of(win);
  if (!w) return MPI_ERR_WIN;
  const mpi::Datatype* ot = type_of(origin_type);
  const mpi::Datatype* tt = type_of(target_type);
  if (!ot || !tt || origin_count < 0 || target_count < 0) return MPI_ERR_TYPE;
  if (origin_count * ot->size() != target_count * tt->size()) {
    return MPI_ERR_TYPE;
  }
  if (!resolve(origin, origin_count * ot->size(), buf, off)) {
    return MPI_ERR_BUFFER;
  }
  *went = w;
  *type = ot;
  *disp = target_disp * static_cast<std::size_t>(w->disp_unit);
  return MPI_SUCCESS;
}

}  // namespace

int MPI_Win_create(void* base, std::size_t size, int disp_unit,
                   void* info_ignored, MPI_Comm comm, MPI_Win* win) {
  (void)info_ignored;
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c || !win || disp_unit <= 0) return c ? MPI_ERR_OTHER : MPI_ERR_COMM;
    mem::Buffer b;
    std::size_t off = 0;
    RankEnv::WinEntry entry;
    if (size > 0) {
      if (!resolve(base, size, &b, &off)) return MPI_ERR_BUFFER;
    } else {
      // Zero-size participation still needs a registered region to ride
      // the collective exchange; give it a private byte.
      RankEnv& e = env();
      b = c->alloc(1);
      e.allocs.emplace(b.data(), b);
      entry.base = b.data();
      entry.owned_mem = true;
    }
    entry.win = std::make_unique<mpi::Window>(*c, b, off, size);
    entry.disp_unit = disp_unit;
    *win = env().wins.stash(std::move(entry));
    return MPI_SUCCESS;
  });
}

int MPI_Win_allocate(std::size_t size, int disp_unit, void* info_ignored,
                     MPI_Comm comm, void* baseptr, MPI_Win* win) {
  (void)info_ignored;
  return guarded([&]() -> int {
    mpi::Communicator* c = comm_of(comm);
    if (!c || !win || !baseptr || disp_unit <= 0) {
      return c ? MPI_ERR_OTHER : MPI_ERR_COMM;
    }
    RankEnv& e = env();
    // Allocate through the allocs map (not Window::allocate) so the window
    // memory is a first-class raw-pointer region: the app can pass it to
    // any other shim (MPI_Send from the window, memset via *baseptr, ...).
    mem::Buffer b = c->alloc(size > 0 ? size : 1);
    e.allocs.emplace(b.data(), b);
    RankEnv::WinEntry entry;
    entry.win = std::make_unique<mpi::Window>(*c, b, 0, size);
    entry.disp_unit = disp_unit;
    entry.base = b.data();
    entry.owned_mem = true;
    *static_cast<void**>(baseptr) = b.data();
    *win = env().wins.stash(std::move(entry));
    return MPI_SUCCESS;
  });
}

int MPI_Win_free(MPI_Win* win) {
  return guarded([&]() -> int {
    if (!win) return MPI_ERR_WIN;
    RankEnv& e = env();
    int slot;
    switch (e.wins.decode(*win, &slot)) {
      case WinRef::Invalid:
        return *win == MPI_WIN_NULL ? MPI_SUCCESS : MPI_ERR_WIN;
      case WinRef::Stale:
        *win = MPI_WIN_NULL;  // already freed through another handle copy
        return MPI_SUCCESS;
      case WinRef::Ok: break;
    }
    RankEnv::WinEntry& w = e.wins[slot];
    w.win->free();
    w.win.reset();
    if (w.owned_mem) {
      auto it = e.allocs.find(w.base);
      if (it != e.allocs.end()) {
        e.ctx->world.free(it->second);
        e.allocs.erase(it);
      }
    }
    e.wins.release(slot);
    *win = MPI_WIN_NULL;
    return MPI_SUCCESS;
  });
}

int MPI_Win_fence(int assert_ignored, MPI_Win win) {
  (void)assert_ignored;
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->fence();
    return MPI_SUCCESS;
  });
}

int MPI_Win_lock(int lock_type, int rank, int assert_ignored, MPI_Win win) {
  (void)assert_ignored;
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    if (lock_type != MPI_LOCK_SHARED && lock_type != MPI_LOCK_EXCLUSIVE) {
      return MPI_ERR_OTHER;
    }
    w->win->lock(rank, lock_type == MPI_LOCK_EXCLUSIVE
                           ? mpi::Window::Lock::Exclusive
                           : mpi::Window::Lock::Shared);
    return MPI_SUCCESS;
  });
}

int MPI_Win_lock_all(int assert_ignored, MPI_Win win) {
  (void)assert_ignored;
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->lock_all();
    return MPI_SUCCESS;
  });
}

int MPI_Win_unlock(int rank, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->unlock(rank);
    return MPI_SUCCESS;
  });
}

int MPI_Win_unlock_all(MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->unlock_all();
    return MPI_SUCCESS;
  });
}

int MPI_Win_flush(int rank, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->flush(rank);
    return MPI_SUCCESS;
  });
}

int MPI_Win_flush_local(int rank, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w = win_of(win);
    if (!w) return MPI_ERR_WIN;
    w->win->flush_local(rank);
    return MPI_SUCCESS;
  });
}

int MPI_Win_set_errhandler(MPI_Win win, MPI_Errhandler errhandler) {
  RankEnv::WinEntry* w = win_of(win);
  if (!w) return MPI_ERR_WIN;
  if (errhandler != MPI_ERRORS_ARE_FATAL && errhandler != MPI_ERRORS_RETURN) {
    return MPI_ERR_OTHER;
  }
  w->errhandler = errhandler;
  return MPI_SUCCESS;
}

int MPI_Put(const void* origin, int origin_count, MPI_Datatype origin_type,
            int target_rank, std::size_t target_disp, int target_count,
            MPI_Datatype target_type, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w;
    mem::Buffer b;
    std::size_t off, disp;
    const mpi::Datatype* t;
    if (const int rc = rma_args(origin, origin_count, origin_type,
                                target_count, target_type, win, target_disp,
                                &w, &b, &off, &t, &disp)) {
      return rc;
    }
    w->win->put(b, off, origin_count, *t, target_rank, disp);
    return MPI_SUCCESS;
  });
}

int MPI_Get(void* origin, int origin_count, MPI_Datatype origin_type,
            int target_rank, std::size_t target_disp, int target_count,
            MPI_Datatype target_type, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w;
    mem::Buffer b;
    std::size_t off, disp;
    const mpi::Datatype* t;
    if (const int rc = rma_args(origin, origin_count, origin_type,
                                target_count, target_type, win, target_disp,
                                &w, &b, &off, &t, &disp)) {
      return rc;
    }
    w->win->get(b, off, origin_count, *t, target_rank, disp);
    return MPI_SUCCESS;
  });
}

int MPI_Accumulate(const void* origin, int origin_count,
                   MPI_Datatype origin_type, int target_rank,
                   std::size_t target_disp, int target_count,
                   MPI_Datatype target_type, MPI_Op op, MPI_Win win) {
  return guarded_w(win, [&]() -> int {
    mpi::Op o;
    if (!rma_op_of(op, &o)) return MPI_ERR_OP;
    RankEnv::WinEntry* w;
    mem::Buffer b;
    std::size_t off, disp;
    const mpi::Datatype* t;
    if (const int rc = rma_args(origin, origin_count, origin_type,
                                target_count, target_type, win, target_disp,
                                &w, &b, &off, &t, &disp)) {
      return rc;
    }
    w->win->accumulate(b, off, origin_count, *t, o, target_rank, disp);
    return MPI_SUCCESS;
  });
}

int MPI_Rput(const void* origin, int origin_count, MPI_Datatype origin_type,
             int target_rank, std::size_t target_disp, int target_count,
             MPI_Datatype target_type, MPI_Win win, MPI_Request* request) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w;
    mem::Buffer b;
    std::size_t off, disp;
    const mpi::Datatype* t;
    if (const int rc = rma_args(origin, origin_count, origin_type,
                                target_count, target_type, win, target_disp,
                                &w, &b, &off, &t, &disp)) {
      return rc;
    }
    *request =
        stash_request(w->win->rput(b, off, origin_count, *t, target_rank, disp));
    return MPI_SUCCESS;
  });
}

int MPI_Rget(void* origin, int origin_count, MPI_Datatype origin_type,
             int target_rank, std::size_t target_disp, int target_count,
             MPI_Datatype target_type, MPI_Win win, MPI_Request* request) {
  return guarded_w(win, [&]() -> int {
    RankEnv::WinEntry* w;
    mem::Buffer b;
    std::size_t off, disp;
    const mpi::Datatype* t;
    if (const int rc = rma_args(origin, origin_count, origin_type,
                                target_count, target_type, win, target_disp,
                                &w, &b, &off, &t, &disp)) {
      return rc;
    }
    *request =
        stash_request(w->win->rget(b, off, origin_count, *t, target_rank, disp));
    return MPI_SUCCESS;
  });
}

// --- Launcher -----------------------------------------------------------------------

sim::Time run(mpi::RunConfig config, int (*rank_main)(int, char**), int argc,
              char** argv) {
  return mpi::run_mpi(std::move(config), [&](mpi::RankCtx& ctx) {
    RankEnv local;
    local.ctx = &ctx;
    // The env lives on this rank's (fiber) stack; publish it through the
    // process's ambient slot so shim calls find it via Process::current().
    // The guard also unpublishes on exceptional unwinds (engine teardown).
    struct AmbientGuard {
      sim::Process& p;
      ~AmbientGuard() { p.set_ambient(nullptr); }
    } guard{ctx.proc};
    ctx.proc.set_ambient(&local);
    const int rc = rank_main(argc, argv);
    if (rc != 0) {
      throw mpi::MpiError("rank main returned " + std::to_string(rc));
    }
    if (local.initialized && !local.finalized) {
      throw mpi::MpiError("rank main returned without MPI_Finalize");
    }
  });
}

}  // namespace dcfa::capi
