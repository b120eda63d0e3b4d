#pragma once

// Classic MPI C API over DCFA-MPI.
//
// The paper's portability argument — "the MPI applications running on the
// host could be easily moved to co-processors" — presumes programs written
// against the familiar MPI C interface. This shim provides that surface:
// MPI_Init/MPI_Send/MPI_Allreduce/... with MPI_COMM_WORLD, wildcards,
// MPI_Status and error codes, so paper-era C-style programs port with two
// mechanical changes:
//
//  1. memory that MPI touches comes from MPI_Alloc_mem (the simulator needs
//     to know which device memory a pointer lives in), and
//  2. the program's `main` is handed to dcfa::capi::run(), which plays the
//     mpirun/mcexec role and executes it once per rank.
//
// Every rank runs on its own simulated process (a fiber sharing the engine's
// thread), so the ambient "current rank" state lives in that process's
// ambient slot (sim::Process::ambient()) — the same trick real MPI plays
// with per-process globals.
//
// Unsupported corners fail loudly with MPI_ERR_* codes or exceptions; see
// tests/test_capi.cpp for the covered surface.

#include <cstddef>

#include "mpi/runtime.hpp"

namespace dcfa::capi {

// --- Handles and constants ---------------------------------------------------

using MPI_Comm = int;
constexpr MPI_Comm MPI_COMM_NULL = -1;
constexpr MPI_Comm MPI_COMM_WORLD = 0;
constexpr MPI_Comm MPI_COMM_SELF = 1;

using MPI_Datatype = int;
constexpr MPI_Datatype MPI_BYTE = 0;
constexpr MPI_Datatype MPI_CHAR = 1;
constexpr MPI_Datatype MPI_INT = 2;
constexpr MPI_Datatype MPI_FLOAT = 3;
constexpr MPI_Datatype MPI_DOUBLE = 4;
constexpr MPI_Datatype MPI_LONG_LONG = 5;

using MPI_Op = int;
constexpr MPI_Op MPI_SUM = 0;
constexpr MPI_Op MPI_PROD = 1;
constexpr MPI_Op MPI_MAX = 2;
constexpr MPI_Op MPI_MIN = 3;
/// RMA-only (MPI_Accumulate): element-wise overwrite.
constexpr MPI_Op MPI_REPLACE = 4;

constexpr int MPI_ANY_SOURCE = mpi::kAnySource;
constexpr int MPI_ANY_TAG = mpi::kAnyTag;
constexpr int MPI_PROC_NULL = -3;
constexpr int MPI_UNDEFINED = -32766;

struct MPI_Status {
  int MPI_SOURCE = MPI_ANY_SOURCE;
  int MPI_TAG = MPI_ANY_TAG;
  int MPI_ERROR = 0;
  std::size_t count_bytes_ = 0;  // internal, read via MPI_Get_count
};
inline MPI_Status* const MPI_STATUS_IGNORE = nullptr;
inline MPI_Status* const MPI_STATUSES_IGNORE = nullptr;

/// Request handles are generation-counted: the slot index lives in the low
/// 16 bits, a generation stamp in the next 15, so a handle copied before
/// its request completed is detected as stale (completion calls on it
/// succeed idempotently) instead of aliasing a recycled slot.
using MPI_Request = int;
constexpr MPI_Request MPI_REQUEST_NULL = -1;

/// Window handles share the request handles' generation-counting layout
/// (slot in the low 16 bits, generation stamp above), so a handle copied
/// before MPI_Win_free was called on another copy is detected as stale —
/// freeing it again succeeds idempotently instead of aliasing a recycled
/// slot.
using MPI_Win = int;
constexpr MPI_Win MPI_WIN_NULL = -1;

constexpr int MPI_LOCK_SHARED = 1;
constexpr int MPI_LOCK_EXCLUSIVE = 2;

enum : int {
  MPI_SUCCESS = 0,
  MPI_ERR_COMM = 1,
  MPI_ERR_TYPE = 2,
  MPI_ERR_OP = 3,
  MPI_ERR_RANK = 4,
  MPI_ERR_TAG = 5,
  MPI_ERR_BUFFER = 6,
  MPI_ERR_REQUEST = 7,
  MPI_ERR_TRUNCATE = 8,
  MPI_ERR_OTHER = 9,
  MPIX_ERR_PROC_FAILED = 10,  ///< operation depended on a failed rank
  MPIX_ERR_REVOKED = 11,      ///< communicator was revoked
  MPI_ERR_WIN = 12,           ///< invalid window handle
};

/// Error handlers. The shim supports the two standard predefined handlers:
/// with MPI_ERRORS_ARE_FATAL (the default, as in MPI) an engine error
/// escapes as a C++ exception and kills the job; with MPI_ERRORS_RETURN the
/// call returns the matching MPI_ERR_*/MPIX_ERR_* code instead, which is
/// what a fault-tolerant program needs to see MPIX_ERR_PROC_FAILED and
/// react with MPIX_Comm_revoke/shrink.
using MPI_Errhandler = int;
constexpr MPI_Errhandler MPI_ERRORS_ARE_FATAL = 0;
constexpr MPI_Errhandler MPI_ERRORS_RETURN = 1;

// --- Environment --------------------------------------------------------------

int MPI_Init(int* argc, char*** argv);
int MPI_Finalize();
int MPI_Initialized(int* flag);
int MPI_Abort(MPI_Comm comm, int errorcode);
double MPI_Wtime();

/// Allocate device memory MPI calls may reference. All buffers passed to
/// communication calls must come from here (or lie inside such a block).
int MPI_Alloc_mem(std::size_t size, void* info_ignored, void* baseptr);
int MPI_Free_mem(void* base);

// --- Communicators -------------------------------------------------------------

int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_size(MPI_Comm comm, int* size);
int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm);
int MPI_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm* newcomm);
int MPI_Comm_free(MPI_Comm* comm);
int MPI_Comm_set_errhandler(MPI_Comm comm, MPI_Errhandler errhandler);

// --- Fault tolerance (ULFM-style MPIX extensions) ----------------------------
//
// The recovery workflow after a peer dies mid-run: an operation fails with
// MPIX_ERR_PROC_FAILED (visible under MPI_ERRORS_RETURN), the application
// calls MPIX_Comm_revoke to interrupt everyone else's pending operations on
// the communicator, then MPIX_Comm_shrink to agree on the survivor set and
// continue on the new, smaller communicator.

/// Revoke `comm`: non-collective; poisons local pending operations on it
/// and floods a revocation notice so every member's operations fail with
/// MPIX_ERR_REVOKED instead of hanging.
int MPIX_Comm_revoke(MPI_Comm comm);

/// Collective over survivors: agree on the failed set and build a new
/// communicator containing only live ranks. Works on revoked communicators.
int MPIX_Comm_shrink(MPI_Comm comm, MPI_Comm* newcomm);

/// Fault-tolerant agreement: *flag becomes the bitwise OR of every live
/// member's input. Completes even if members die mid-vote.
int MPIX_Comm_agree(MPI_Comm comm, int* flag);

// --- Point-to-point --------------------------------------------------------------

int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest,
             int tag, MPI_Comm comm);
int MPI_Ssend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm);
int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status);
int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm, MPI_Request* request);
int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Wait(MPI_Request* request, MPI_Status* status);
int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses);
/// Block until one of the (non-null) requests completes; *index gets its
/// position, or MPI_UNDEFINED when every entry is MPI_REQUEST_NULL.
int MPI_Waitany(int count, MPI_Request* requests, int* index,
                MPI_Status* status);
int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status);
int MPI_Testall(int count, MPI_Request* requests, int* flag,
                MPI_Status* statuses);
int MPI_Testany(int count, MPI_Request* requests, int* index, int* flag,
                MPI_Status* status);
/// Release the handle without waiting; an in-flight operation still runs to
/// completion inside the engine (its state is reference-counted).
int MPI_Request_free(MPI_Request* request);
int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status);
int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag,
               MPI_Status* status);
int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 int dest, int sendtag, void* recvbuf, int recvcount,
                 MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status);
int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count);

// --- Collectives ------------------------------------------------------------------

int MPI_Barrier(MPI_Comm comm);
int MPI_Bcast(void* buffer, int count, MPI_Datatype type, int root,
              MPI_Comm comm);
int MPI_Reduce(const void* sendbuf, void* recvbuf, int count,
               MPI_Datatype type, MPI_Op op, int root, MPI_Comm comm);
int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype type, MPI_Op op, MPI_Comm comm);
/// Reduce size*recvcount elements and scatter one recvcount-element block
/// to each rank (runs the collectives engine's ring reduce-scatter).
int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf,
                             int recvcount, MPI_Datatype type, MPI_Op op,
                             MPI_Comm comm);
int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
               void* recvbuf, int recvcount, MPI_Datatype recvtype, int root,
               MPI_Comm comm);
int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                void* recvbuf, int recvcount, MPI_Datatype recvtype,
                int root, MPI_Comm comm);
int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                  void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  MPI_Comm comm);
int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 MPI_Comm comm);
int MPI_Scan(const void* sendbuf, void* recvbuf, int count,
             MPI_Datatype type, MPI_Op op, MPI_Comm comm);

// --- Nonblocking collectives -------------------------------------------------------
//
// Each returns immediately with a request that completes under
// MPI_Wait/Test/Waitall/Waitany/Testall/Testany, freely mixed with
// point-to-point requests. The schedule advances whenever this rank waits
// or tests on anything; buffers must not be touched until completion.

int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request);
int MPI_Ibcast(void* buffer, int count, MPI_Datatype type, int root,
               MPI_Comm comm, MPI_Request* request);
int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count,
                   MPI_Datatype type, MPI_Op op, MPI_Comm comm,
                   MPI_Request* request);
int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                   void* recvbuf, int recvcount, MPI_Datatype recvtype,
                   MPI_Comm comm, MPI_Request* request);
int MPI_Ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              int recvcount, MPI_Datatype type, MPI_Op op,
                              MPI_Comm comm, MPI_Request* request);

// --- One-sided (MPI-3 RMA) ----------------------------------------------------
//
// Windows over mpi::Window (src/mpi/window.hpp): fence and passive-target
// synchronisation, Put/Get/Accumulate, request-returning Rput/Rget whose
// requests mix freely with every other kind in MPI_Wait*/Test*. Target
// displacements are scaled by the window's disp_unit. Each window carries
// its own error handler (MPI_Win_set_errhandler): under MPI_ERRORS_RETURN,
// passive-target operations toward a dead rank return MPIX_ERR_PROC_FAILED
// instead of hanging.

/// Expose `size` bytes at `base` (memory from MPI_Alloc_mem). Collective.
int MPI_Win_create(void* base, std::size_t size, int disp_unit,
                   void* info_ignored, MPI_Comm comm, MPI_Win* win);
/// Allocate `size` bytes and expose them; *baseptr receives the memory,
/// which lives until MPI_Win_free. Collective.
int MPI_Win_allocate(std::size_t size, int disp_unit, void* info_ignored,
                     MPI_Comm comm, void* baseptr, MPI_Win* win);
/// Collective teardown; *win becomes MPI_WIN_NULL. Freeing a stale handle
/// copy succeeds idempotently.
int MPI_Win_free(MPI_Win* win);
int MPI_Win_fence(int assert_ignored, MPI_Win win);
int MPI_Win_lock(int lock_type, int rank, int assert_ignored, MPI_Win win);
int MPI_Win_lock_all(int assert_ignored, MPI_Win win);
int MPI_Win_unlock(int rank, MPI_Win win);
int MPI_Win_unlock_all(MPI_Win win);
int MPI_Win_flush(int rank, MPI_Win win);
int MPI_Win_flush_local(int rank, MPI_Win win);
int MPI_Win_set_errhandler(MPI_Win win, MPI_Errhandler errhandler);

int MPI_Put(const void* origin, int origin_count, MPI_Datatype origin_type,
            int target_rank, std::size_t target_disp, int target_count,
            MPI_Datatype target_type, MPI_Win win);
int MPI_Get(void* origin, int origin_count, MPI_Datatype origin_type,
            int target_rank, std::size_t target_disp, int target_count,
            MPI_Datatype target_type, MPI_Win win);
int MPI_Accumulate(const void* origin, int origin_count,
                   MPI_Datatype origin_type, int target_rank,
                   std::size_t target_disp, int target_count,
                   MPI_Datatype target_type, MPI_Op op, MPI_Win win);
int MPI_Rput(const void* origin, int origin_count, MPI_Datatype origin_type,
             int target_rank, std::size_t target_disp, int target_count,
             MPI_Datatype target_type, MPI_Win win, MPI_Request* request);
int MPI_Rget(void* origin, int origin_count, MPI_Datatype origin_type,
             int target_rank, std::size_t target_disp, int target_count,
             MPI_Datatype target_type, MPI_Win win, MPI_Request* request);

// --- Launcher ----------------------------------------------------------------------

/// The mpirun/mcexec role: build the simulated cluster, run `rank_main`
/// once per rank (each on its own simulated Phi/host process), return the
/// virtual time the job took. `rank_main` must call MPI_Init and
/// MPI_Finalize like any MPI program.
sim::Time run(mpi::RunConfig config, int (*rank_main)(int, char**),
              int argc = 0, char** argv = nullptr);

}  // namespace dcfa::capi
