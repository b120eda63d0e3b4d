// Second C API batch: rooted collectives, alltoall, sendrecv, dup, ssend,
// iprobe, wtime monotonicity, window handles, passive-target RMA, reduce
// and the ULFM calls — the remaining MPI_* surface.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "capi/mpi_compat.hpp"
#include "mpi/window.hpp"

using namespace dcfa;
using namespace dcfa::capi;

namespace {

mpi::RunConfig cfg(int nprocs) {
  mpi::RunConfig c;
  c.mode = mpi::MpiMode::DcfaPhi;
  c.nprocs = nprocs;
  return c;
}

#define C_EXPECT(cond)                                              \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "C_EXPECT failed at %s:%d: %s\n",        \
                   __FILE__, __LINE__, #cond);                      \
      ADD_FAILURE() << "C_EXPECT failed: " << #cond;                \
      return 1;                                                     \
    }                                                               \
  } while (0)

int gather_scatter_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  double *mine, *all, *back;
  MPI_Alloc_mem(8 * sizeof(double), nullptr, &mine);
  MPI_Alloc_mem(size * 8 * sizeof(double), nullptr, &all);
  MPI_Alloc_mem(8 * sizeof(double), nullptr, &back);
  for (int i = 0; i < 8; ++i) mine[i] = rank * 10.0 + i;
  C_EXPECT(MPI_Gather(mine, 8, MPI_DOUBLE, all, 8, MPI_DOUBLE, 1,
                      MPI_COMM_WORLD) == MPI_SUCCESS);
  if (rank == 1) {
    for (int r = 0; r < size; ++r) {
      C_EXPECT(all[r * 8 + 3] == r * 10.0 + 3);
    }
  }
  C_EXPECT(MPI_Scatter(all, 8, MPI_DOUBLE, back, 8, MPI_DOUBLE, 1,
                       MPI_COMM_WORLD) == MPI_SUCCESS);
  C_EXPECT(back[5] == rank * 10.0 + 5);
  MPI_Free_mem(mine);
  MPI_Free_mem(all);
  MPI_Free_mem(back);
  MPI_Finalize();
  return 0;
}

int allgather_alltoall_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  long long *mine, *all;
  MPI_Alloc_mem(4 * sizeof(long long), nullptr, &mine);
  MPI_Alloc_mem(size * 4 * sizeof(long long), nullptr, &all);
  for (int i = 0; i < 4; ++i) mine[i] = rank * 100 + i;
  C_EXPECT(MPI_Allgather(mine, 4, MPI_LONG_LONG, all, 4, MPI_LONG_LONG,
                         MPI_COMM_WORLD) == MPI_SUCCESS);
  for (int r = 0; r < size; ++r) {
    C_EXPECT(all[r * 4 + 2] == r * 100 + 2);
  }
  // Alltoall: block b holds rank*1000 + b.
  long long *sendv, *recvv;
  MPI_Alloc_mem(size * 2 * sizeof(long long), nullptr, &sendv);
  MPI_Alloc_mem(size * 2 * sizeof(long long), nullptr, &recvv);
  for (int b = 0; b < size; ++b) {
    sendv[b * 2] = rank * 1000 + b;
    sendv[b * 2 + 1] = -1;
  }
  C_EXPECT(MPI_Alltoall(sendv, 2, MPI_LONG_LONG, recvv, 2, MPI_LONG_LONG,
                        MPI_COMM_WORLD) == MPI_SUCCESS);
  for (int s = 0; s < size; ++s) {
    C_EXPECT(recvv[s * 2] == s * 1000 + rank);
  }
  MPI_Free_mem(mine);
  MPI_Free_mem(all);
  MPI_Free_mem(sendv);
  MPI_Free_mem(recvv);
  MPI_Finalize();
  return 0;
}

int sendrecv_dup_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  MPI_Comm dup;
  C_EXPECT(MPI_Comm_dup(MPI_COMM_WORLD, &dup) == MPI_SUCCESS);
  int drank;
  MPI_Comm_rank(dup, &drank);
  C_EXPECT(drank == rank);
  float *s, *r;
  MPI_Alloc_mem(16 * sizeof(float), nullptr, &s);
  MPI_Alloc_mem(16 * sizeof(float), nullptr, &r);
  for (int i = 0; i < 16; ++i) s[i] = rank + i * 0.5f;
  MPI_Status st;
  C_EXPECT(MPI_Sendrecv(s, 16, MPI_FLOAT, (rank + 1) % size, 5, r, 16,
                        MPI_FLOAT, (rank + size - 1) % size, 5, dup,
                        &st) == MPI_SUCCESS);
  C_EXPECT(st.MPI_SOURCE == (rank + size - 1) % size);
  C_EXPECT(r[4] == (rank + size - 1) % size + 2.0f);
  MPI_Free_mem(s);
  MPI_Free_mem(r);
  MPI_Finalize();
  return 0;
}

int ssend_iprobe_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int* v;
  MPI_Alloc_mem(sizeof(int), nullptr, &v);
  if (rank == 0) {
    const double t0 = MPI_Wtime();
    *v = 99;
    C_EXPECT(MPI_Ssend(v, 1, MPI_INT, 1, 6, MPI_COMM_WORLD) == MPI_SUCCESS);
    // Ssend cannot complete before the (delayed) receive matched.
    C_EXPECT(MPI_Wtime() - t0 > 400e-6);
  } else {
    int flag = 1;
    C_EXPECT(MPI_Iprobe(0, 6, MPI_COMM_WORLD, &flag, MPI_STATUS_IGNORE) ==
             MPI_SUCCESS);
    // Probe polls until the RTS shows up.
    MPI_Status env;
    while (!flag) {
      MPI_Iprobe(0, 6, MPI_COMM_WORLD, &flag, &env);
    }
    C_EXPECT(env.MPI_TAG == 6);
    // Model a buffer not yet ready for 500us, then receive.
    const double t0 = MPI_Wtime();
    while (MPI_Wtime() - t0 < 500e-6) {
      int dummy;
      MPI_Iprobe(0, 999, MPI_COMM_WORLD, &dummy, MPI_STATUS_IGNORE);
    }
    C_EXPECT(MPI_Recv(v, 1, MPI_INT, 0, 6, MPI_COMM_WORLD,
                      MPI_STATUS_IGNORE) == MPI_SUCCESS);
    C_EXPECT(*v == 99);
  }
  MPI_Free_mem(v);
  MPI_Finalize();
  return 0;
}

int nbc_collectives_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);

  // Three collectives in flight at once, completed by one MPI_Waitall.
  double *sb, *rb;
  int *mine, *all;
  MPI_Alloc_mem(64 * sizeof(double), nullptr, &sb);
  MPI_Alloc_mem(64 * sizeof(double), nullptr, &rb);
  MPI_Alloc_mem(4 * sizeof(int), nullptr, &mine);
  MPI_Alloc_mem(size * 4 * sizeof(int), nullptr, &all);
  for (int i = 0; i < 64; ++i) sb[i] = rank + i;
  for (int i = 0; i < 4; ++i) mine[i] = rank * 10 + i;
  MPI_Request reqs[3];
  C_EXPECT(MPI_Iallreduce(sb, rb, 64, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD,
                          &reqs[0]) == MPI_SUCCESS);
  C_EXPECT(MPI_Iallgather(mine, 4, MPI_INT, all, 4, MPI_INT, MPI_COMM_WORLD,
                          &reqs[1]) == MPI_SUCCESS);
  C_EXPECT(MPI_Ibarrier(MPI_COMM_WORLD, &reqs[2]) == MPI_SUCCESS);
  C_EXPECT(MPI_Waitall(3, reqs, MPI_STATUSES_IGNORE) == MPI_SUCCESS);
  for (int i = 0; i < 3; ++i) C_EXPECT(reqs[i] == MPI_REQUEST_NULL);
  const double ranksum = size * (size - 1) / 2.0;
  for (int i = 0; i < 64; ++i) C_EXPECT(rb[i] == ranksum + size * i);
  for (int r = 0; r < size; ++r) {
    for (int i = 0; i < 4; ++i) C_EXPECT(all[r * 4 + i] == r * 10 + i);
  }

  // Ibcast completed through the test path.
  if (rank == 0) {
    for (int i = 0; i < 64; ++i) sb[i] = 7.25 * i;
  }
  MPI_Request br;
  C_EXPECT(MPI_Ibcast(sb, 64, MPI_DOUBLE, 0, MPI_COMM_WORLD, &br) ==
           MPI_SUCCESS);
  int flag = 0;
  while (!flag) {
    C_EXPECT(MPI_Test(&br, &flag, MPI_STATUS_IGNORE) == MPI_SUCCESS);
  }
  C_EXPECT(br == MPI_REQUEST_NULL);
  for (int i = 0; i < 64; ++i) C_EXPECT(sb[i] == 7.25 * i);

  // Ireduce_scatter_block: element j of my block sums rank contributions.
  double *rsin, *rsout;
  MPI_Alloc_mem(size * 8 * sizeof(double), nullptr, &rsin);
  MPI_Alloc_mem(8 * sizeof(double), nullptr, &rsout);
  for (int i = 0; i < size * 8; ++i) rsin[i] = rank + i;
  MPI_Request rr;
  C_EXPECT(MPI_Ireduce_scatter_block(rsin, rsout, 8, MPI_DOUBLE, MPI_SUM,
                                     MPI_COMM_WORLD, &rr) == MPI_SUCCESS);
  MPI_Status st;
  C_EXPECT(MPI_Wait(&rr, &st) == MPI_SUCCESS);
  for (int j = 0; j < 8; ++j) {
    C_EXPECT(rsout[j] == ranksum + size * (rank * 8 + j));
  }

  MPI_Free_mem(sb);
  MPI_Free_mem(rb);
  MPI_Free_mem(mine);
  MPI_Free_mem(all);
  MPI_Free_mem(rsin);
  MPI_Free_mem(rsout);
  MPI_Finalize();
  return 0;
}

int request_lifecycle_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int* v;
  MPI_Alloc_mem(4 * sizeof(int), nullptr, &v);

  if (rank == 0) {
    // Stale copies of a completed handle: wait/test must succeed
    // idempotently and must not free the slot twice.
    MPI_Request r;
    C_EXPECT(MPI_Irecv(v, 1, MPI_INT, 1, 11, MPI_COMM_WORLD, &r) ==
             MPI_SUCCESS);
    MPI_Request copy1 = r, copy2 = r;
    C_EXPECT(MPI_Wait(&r, MPI_STATUS_IGNORE) == MPI_SUCCESS);
    C_EXPECT(r == MPI_REQUEST_NULL && v[0] == 111);
    int flag = 0;
    C_EXPECT(MPI_Test(&copy1, &flag, MPI_STATUS_IGNORE) == MPI_SUCCESS);
    C_EXPECT(flag == 1 && copy1 == MPI_REQUEST_NULL);
    C_EXPECT(MPI_Wait(&copy2, MPI_STATUS_IGNORE) == MPI_SUCCESS);
    C_EXPECT(copy2 == MPI_REQUEST_NULL);

    // A handle that never existed is an error, not a crash.
    MPI_Request bogus = 0x7ffffff0;
    C_EXPECT(MPI_Wait(&bogus, MPI_STATUS_IGNORE) == MPI_ERR_REQUEST);
    C_EXPECT(MPI_Test(&bogus, &flag, MPI_STATUS_IGNORE) == MPI_ERR_REQUEST);
    C_EXPECT(MPI_Request_free(&bogus) == MPI_ERR_REQUEST);
    MPI_Request null_req = MPI_REQUEST_NULL;
    C_EXPECT(MPI_Request_free(&null_req) == MPI_ERR_REQUEST);

    // Waitany drains a set one completion at a time.
    MPI_Request pair[2];
    C_EXPECT(MPI_Irecv(v, 1, MPI_INT, 1, 12, MPI_COMM_WORLD, &pair[0]) ==
             MPI_SUCCESS);
    C_EXPECT(MPI_Irecv(v + 1, 1, MPI_INT, 1, 13, MPI_COMM_WORLD, &pair[1]) ==
             MPI_SUCCESS);
    int idx1, idx2;
    MPI_Status st;
    C_EXPECT(MPI_Waitany(2, pair, &idx1, &st) == MPI_SUCCESS);
    C_EXPECT(pair[idx1] == MPI_REQUEST_NULL && st.MPI_SOURCE == 1);
    C_EXPECT(MPI_Waitany(2, pair, &idx2, &st) == MPI_SUCCESS);
    C_EXPECT(idx1 != idx2 && pair[idx2] == MPI_REQUEST_NULL);
    C_EXPECT(v[0] == 12 && v[1] == 13);
    int idx3 = 0;
    C_EXPECT(MPI_Waitany(2, pair, &idx3, &st) == MPI_SUCCESS);
    C_EXPECT(idx3 == MPI_UNDEFINED);

    // Testall/Testany: poll a pair to completion.
    C_EXPECT(MPI_Irecv(v, 1, MPI_INT, 1, 14, MPI_COMM_WORLD, &pair[0]) ==
             MPI_SUCCESS);
    C_EXPECT(MPI_Irecv(v + 1, 1, MPI_INT, 1, 15, MPI_COMM_WORLD, &pair[1]) ==
             MPI_SUCCESS);
    flag = 0;
    MPI_Status sts[2];
    while (!flag) {
      C_EXPECT(MPI_Testall(2, pair, &flag, sts) == MPI_SUCCESS);
    }
    C_EXPECT(pair[0] == MPI_REQUEST_NULL && pair[1] == MPI_REQUEST_NULL);
    C_EXPECT(sts[0].MPI_TAG == 14 && sts[1].MPI_TAG == 15);
    C_EXPECT(v[0] == 14 && v[1] == 15);
    int tidx = 0;
    C_EXPECT(MPI_Testany(2, pair, &tidx, &flag, MPI_STATUS_IGNORE) ==
             MPI_SUCCESS);
    C_EXPECT(flag == 1 && tidx == MPI_UNDEFINED);

    // Request_free releases the handle; the receive still completes inside
    // the engine (the barrier below gives it time to land).
    MPI_Request fr;
    C_EXPECT(MPI_Irecv(v + 2, 1, MPI_INT, 1, 16, MPI_COMM_WORLD, &fr) ==
             MPI_SUCCESS);
    C_EXPECT(MPI_Request_free(&fr) == MPI_SUCCESS);
    C_EXPECT(fr == MPI_REQUEST_NULL);
  } else if (rank == 1) {
    v[0] = 111;
    C_EXPECT(MPI_Send(v, 1, MPI_INT, 0, 11, MPI_COMM_WORLD) == MPI_SUCCESS);
    for (int tag : {12, 13, 14, 15, 16}) {
      v[0] = tag;
      C_EXPECT(MPI_Send(v, 1, MPI_INT, 0, tag, MPI_COMM_WORLD) ==
               MPI_SUCCESS);
    }
  }
  C_EXPECT(MPI_Barrier(MPI_COMM_WORLD) == MPI_SUCCESS);
  if (rank == 0) C_EXPECT(v[2] == 16);
  MPI_Free_mem(v);
  MPI_Finalize();
  return 0;
}

int window_lifecycle_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  const int right = (rank + 1) % size;
  const int left = (rank + size - 1) % size;
  int* src;
  MPI_Alloc_mem(4 * sizeof(int), nullptr, &src);

  // Put into the right neighbour's window; the closing fence completes it.
  int* base = nullptr;
  MPI_Win win;
  C_EXPECT(MPI_Win_allocate(4 * sizeof(int), sizeof(int), nullptr,
                            MPI_COMM_WORLD, &base, &win) == MPI_SUCCESS);
  for (int i = 0; i < 4; ++i) {
    base[i] = -1;
    src[i] = rank * 100 + i;
  }
  C_EXPECT(MPI_Win_fence(0, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Put(src, 4, MPI_INT, right, 0, 4, MPI_INT, win) ==
           MPI_SUCCESS);
  C_EXPECT(MPI_Win_fence(0, win) == MPI_SUCCESS);
  for (int i = 0; i < 4; ++i) C_EXPECT(base[i] == left * 100 + i);

  // Freeing through one copy leaves the other stale: refused, not a crash.
  MPI_Win stale = win;
  C_EXPECT(MPI_Win_free(&win) == MPI_SUCCESS);
  C_EXPECT(win == MPI_WIN_NULL);
  C_EXPECT(MPI_Win_fence(0, stale) == MPI_ERR_WIN);
  C_EXPECT(MPI_Put(src, 1, MPI_INT, right, 0, 1, MPI_INT, stale) ==
           MPI_ERR_WIN);

  // The next window recycles the slot under a new generation; the stale
  // copy must not reach it — not even to free it.
  int* base2 = nullptr;
  MPI_Win win2;
  C_EXPECT(MPI_Win_allocate(4 * sizeof(int), sizeof(int), nullptr,
                            MPI_COMM_WORLD, &base2, &win2) == MPI_SUCCESS);
  C_EXPECT((win2 & 0xffff) == (stale & 0xffff) && win2 != stale);
  C_EXPECT(MPI_Win_fence(0, stale) == MPI_ERR_WIN);
  C_EXPECT(MPI_Win_free(&stale) == MPI_SUCCESS && stale == MPI_WIN_NULL);
  for (int i = 0; i < 4; ++i) src[i] = rank * 100 + 50 + i;
  C_EXPECT(MPI_Win_fence(0, win2) == MPI_SUCCESS);
  C_EXPECT(MPI_Put(src, 4, MPI_INT, right, 0, 4, MPI_INT, win2) ==
           MPI_SUCCESS);
  C_EXPECT(MPI_Win_fence(0, win2) == MPI_SUCCESS);
  for (int i = 0; i < 4; ++i) C_EXPECT(base2[i] == left * 100 + 50 + i);
  C_EXPECT(MPI_Win_free(&win2) == MPI_SUCCESS);

  MPI_Free_mem(src);
  MPI_Finalize();
  return 0;
}

// What one rank saw of the reduce and ULFM calls, filled once through the C
// API and once through the C++ Communicator it wraps.
struct ReduceUlfmSeen {
  std::array<int, 8> reduced{};      ///< MPI_Reduce result (root only)
  std::array<int, 2> scattered{};    ///< MPI_Reduce_scatter_block block
  int shrunk_size = 0;
  int shrunk_rank = -1;
  int agreed = 0;                    ///< MPIX_Comm_agree over 1 << rank
  bool revoked_barrier_failed = false;  ///< barrier on the revoked comm
};
constexpr int kReduceRanks = 4;
constexpr int kReduceRoot = 2;
std::vector<ReduceUlfmSeen> c_seen, cpp_seen;

int reduce_ulfm_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  ReduceUlfmSeen& seen = c_seen[rank];
  int *in, *out, *rs_in, *rs_out;
  MPI_Alloc_mem(8 * sizeof(int), nullptr, &in);
  MPI_Alloc_mem(8 * sizeof(int), nullptr, &out);
  MPI_Alloc_mem(size * 2 * sizeof(int), nullptr, &rs_in);
  MPI_Alloc_mem(2 * sizeof(int), nullptr, &rs_out);
  for (int i = 0; i < 8; ++i) in[i] = rank * 10 + i;
  for (int i = 0; i < size * 2; ++i) rs_in[i] = rank * 100 + i;
  C_EXPECT(MPI_Reduce(in, out, 8, MPI_INT, MPI_SUM, kReduceRoot,
                      MPI_COMM_WORLD) == MPI_SUCCESS);
  if (rank == kReduceRoot) std::memcpy(seen.reduced.data(), out, 8 * sizeof(int));
  C_EXPECT(MPI_Reduce_scatter_block(rs_in, rs_out, 2, MPI_INT, MPI_SUM,
                                    MPI_COMM_WORLD) == MPI_SUCCESS);
  std::memcpy(seen.scattered.data(), rs_out, 2 * sizeof(int));
  // Nobody failed, so the shrink is a dup.
  MPI_Comm shrunk;
  C_EXPECT(MPIX_Comm_shrink(MPI_COMM_WORLD, &shrunk) == MPI_SUCCESS);
  MPI_Comm_size(shrunk, &seen.shrunk_size);
  MPI_Comm_rank(shrunk, &seen.shrunk_rank);
  seen.agreed = 1 << rank;
  C_EXPECT(MPIX_Comm_agree(shrunk, &seen.agreed) == MPI_SUCCESS);
  // Revoked, the communicator fails every later operation.
  C_EXPECT(MPI_Comm_set_errhandler(shrunk, MPI_ERRORS_RETURN) == MPI_SUCCESS);
  C_EXPECT(MPIX_Comm_revoke(shrunk) == MPI_SUCCESS);
  seen.revoked_barrier_failed = MPI_Barrier(shrunk) == MPIX_ERR_REVOKED;
  C_EXPECT(MPI_Comm_free(&shrunk) == MPI_SUCCESS);
  MPI_Free_mem(in);
  MPI_Free_mem(out);
  MPI_Free_mem(rs_in);
  MPI_Free_mem(rs_out);
  MPI_Finalize();
  return 0;
}

void reduce_ulfm_cpp(mpi::RankCtx& ctx) {
  mpi::Communicator& comm = ctx.world;
  const int rank = comm.rank();
  const int size = comm.size();
  ReduceUlfmSeen& seen = cpp_seen[rank];
  const mem::Buffer in = comm.alloc(8 * sizeof(int));
  const mem::Buffer out = comm.alloc(8 * sizeof(int));
  const mem::Buffer rs_in = comm.alloc(size * 2 * sizeof(int));
  const mem::Buffer rs_out = comm.alloc(2 * sizeof(int));
  int* iv = reinterpret_cast<int*>(in.data());
  int* rv = reinterpret_cast<int*>(rs_in.data());
  for (int i = 0; i < 8; ++i) iv[i] = rank * 10 + i;
  for (int i = 0; i < size * 2; ++i) rv[i] = rank * 100 + i;
  comm.reduce(in, 0, out, 0, 8, mpi::type_int(), mpi::Op::Sum, kReduceRoot);
  if (rank == kReduceRoot) {
    std::memcpy(seen.reduced.data(), out.data(), 8 * sizeof(int));
  }
  comm.reduce_scatter_block(rs_in, 0, rs_out, 0, 2, mpi::type_int(),
                            mpi::Op::Sum);
  std::memcpy(seen.scattered.data(), rs_out.data(), 2 * sizeof(int));
  mpi::Communicator shrunk = comm.shrink();
  seen.shrunk_size = shrunk.size();
  seen.shrunk_rank = shrunk.rank();
  seen.agreed = static_cast<int>(shrunk.agree(1u << rank));
  shrunk.revoke();
  try {
    shrunk.barrier();
  } catch (const mpi::MpiError& e) {
    seen.revoked_barrier_failed = e.errc() == mpi::MpiErrc::Revoked;
  }
  for (const mem::Buffer& b : {in, out, rs_in, rs_out}) comm.free(b);
}

// What one rank saw of the passive-target RMA calls, filled once through
// the C API and once through the C++ Window it wraps. Each rank exposes
// kRmaSlots ints initialised to rank * 100 + i.
constexpr int kRmaRanks = 4;
constexpr int kRmaSlots = 16;
struct RmaSeen {
  std::array<int, 4> got{};    ///< MPI_Get of the right neighbour's 0..3
  std::array<int, 4> rgot{};   ///< MPI_Rget of the left neighbour's 4..7
  std::array<int, kRmaSlots> window{};  ///< own window after everything
};
std::vector<RmaSeen> c_rma, cpp_rma;

// Accumulates into rank 0's slots 10..13, one op each, under exclusive
// locks: Sum, Prod, Max and Min of rank + 2 over every rank commute, so
// the result does not depend on the lock order.
constexpr MPI_Op kAccOps[] = {MPI_SUM, MPI_PROD, MPI_MAX, MPI_MIN};
constexpr mpi::Op kAccCppOps[] = {mpi::Op::Sum, mpi::Op::Prod, mpi::Op::Max,
                                  mpi::Op::Min};

int rma_main(int, char**) {
  MPI_Init(nullptr, nullptr);
  int rank, size;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  const int right = (rank + 1) % size;
  const int left = (rank + size - 1) % size;
  RmaSeen& seen = c_rma[rank];
  int *base, *buf;
  MPI_Alloc_mem(kRmaSlots * sizeof(int), nullptr, &base);
  MPI_Alloc_mem(8 * sizeof(int), nullptr, &buf);
  for (int i = 0; i < kRmaSlots; ++i) base[i] = rank * 100 + i;
  MPI_Win win;
  C_EXPECT(MPI_Win_create(base, kRmaSlots * sizeof(int), sizeof(int), nullptr,
                          MPI_COMM_WORLD, &win) == MPI_SUCCESS);
  C_EXPECT(MPI_Win_set_errhandler(win, MPI_ERRORS_RETURN) == MPI_SUCCESS);
  C_EXPECT(MPI_Win_set_errhandler(win, 7) == MPI_ERR_OTHER);
  C_EXPECT(MPI_Win_set_errhandler(MPI_WIN_NULL, MPI_ERRORS_RETURN) ==
           MPI_ERR_WIN);

  // Shared epochs toward everyone: read both neighbours, write the right.
  C_EXPECT(MPI_Win_lock_all(0, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Get(buf, 4, MPI_INT, right, 0, 4, MPI_INT, win) ==
           MPI_SUCCESS);
  C_EXPECT(MPI_Win_flush(right, win) == MPI_SUCCESS);
  std::memcpy(seen.got.data(), buf, 4 * sizeof(int));
  MPI_Request req;
  C_EXPECT(MPI_Rget(buf + 4, 4, MPI_INT, left, 4, 4, MPI_INT, win, &req) ==
           MPI_SUCCESS);
  C_EXPECT(MPI_Wait(&req, MPI_STATUS_IGNORE) == MPI_SUCCESS);
  std::memcpy(seen.rgot.data(), buf + 4, 4 * sizeof(int));
  buf[0] = rank * 1000;
  buf[1] = rank * 1000 + 1;
  C_EXPECT(MPI_Rput(buf, 2, MPI_INT, right, 8, 2, MPI_INT, win, &req) ==
           MPI_SUCCESS);
  C_EXPECT(MPI_Wait(&req, MPI_STATUS_IGNORE) == MPI_SUCCESS);
  C_EXPECT(MPI_Win_flush_local(right, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Win_unlock_all(win) == MPI_SUCCESS);
  C_EXPECT(MPI_Barrier(MPI_COMM_WORLD) == MPI_SUCCESS);

  // Every accumulate op: the four commuting ones into rank 0 under an
  // exclusive lock, MPI_REPLACE into the right neighbour's slot 15 under a
  // shared one, and an op no window accepts.
  buf[0] = rank + 2;
  C_EXPECT(MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win) == MPI_SUCCESS);
  for (int k = 0; k < 4; ++k) {
    C_EXPECT(MPI_Accumulate(buf, 1, MPI_INT, 0, 10 + k, 1, MPI_INT,
                            kAccOps[k], win) == MPI_SUCCESS);
  }
  C_EXPECT(MPI_Win_unlock(0, win) == MPI_SUCCESS);
  buf[1] = -rank;
  C_EXPECT(MPI_Win_lock(MPI_LOCK_SHARED, right, 0, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Accumulate(buf + 1, 1, MPI_INT, right, 15, 1, MPI_INT,
                          MPI_REPLACE, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Accumulate(buf, 1, MPI_INT, right, 14, 1, MPI_INT, 99, win) ==
           MPI_ERR_OP);
  C_EXPECT(MPI_Win_unlock(right, win) == MPI_SUCCESS);
  C_EXPECT(MPI_Win_lock(3, right, 0, win) == MPI_ERR_OTHER);
  C_EXPECT(MPI_Barrier(MPI_COMM_WORLD) == MPI_SUCCESS);
  std::memcpy(seen.window.data(), base, kRmaSlots * sizeof(int));

  C_EXPECT(MPI_Win_free(&win) == MPI_SUCCESS);
  MPI_Free_mem(base);
  MPI_Free_mem(buf);
  MPI_Finalize();
  return 0;
}

void rma_cpp(mpi::RankCtx& ctx) {
  mpi::Communicator& comm = ctx.world;
  const int rank = comm.rank();
  const int size = comm.size();
  const int right = (rank + 1) % size;
  const int left = (rank + size - 1) % size;
  RmaSeen& seen = cpp_rma[rank];
  const mem::Buffer base = comm.alloc(kRmaSlots * sizeof(int));
  const mem::Buffer buf = comm.alloc(8 * sizeof(int));
  int* bv = reinterpret_cast<int*>(buf.data());
  for (int i = 0; i < kRmaSlots; ++i) {
    reinterpret_cast<int*>(base.data())[i] = rank * 100 + i;
  }
  const std::size_t es = sizeof(int);
  mpi::Window win(comm, base, 0, kRmaSlots * es);

  win.lock_all();
  win.get(buf, 0, 4, mpi::type_int(), right, 0);
  win.flush(right);
  std::memcpy(seen.got.data(), bv, 4 * es);
  mpi::Request req = win.rget(buf, 4 * es, 4, mpi::type_int(), left, 4 * es);
  comm.wait(req);
  std::memcpy(seen.rgot.data(), bv + 4, 4 * es);
  bv[0] = rank * 1000;
  bv[1] = rank * 1000 + 1;
  req = win.rput(buf, 0, 2, mpi::type_int(), right, 8 * es);
  comm.wait(req);
  win.flush_local(right);
  win.unlock_all();
  comm.barrier();

  bv[0] = rank + 2;
  win.lock(0, mpi::Window::Lock::Exclusive);
  for (int k = 0; k < 4; ++k) {
    win.accumulate(buf, 0, 1, mpi::type_int(), kAccCppOps[k], 0,
                   (10 + k) * es);
  }
  win.unlock(0);
  bv[1] = -rank;
  win.lock(right, mpi::Window::Lock::Shared);
  win.accumulate(buf, es, 1, mpi::type_int(), mpi::Op::Replace, right,
                 15 * es);
  win.unlock(right);
  comm.barrier();
  std::memcpy(seen.window.data(), base.data(), kRmaSlots * es);

  win.free();
  comm.free(base);
  comm.free(buf);
}

}  // namespace

TEST(CApiMore, GatherScatter) { run(cfg(4), gather_scatter_main); }
TEST(CApiMore, AllgatherAlltoall) { run(cfg(4), allgather_alltoall_main); }
TEST(CApiMore, SendrecvOnDup) { run(cfg(3), sendrecv_dup_main); }
TEST(CApiMore, SsendAndIprobe) { run(cfg(2), ssend_iprobe_main); }
TEST(CApiMore, NonblockingCollectives) { run(cfg(4), nbc_collectives_main); }
TEST(CApiMore, RequestLifecycle) { run(cfg(2), request_lifecycle_main); }
TEST(CApiMore, WindowLifecycle) { run(cfg(2), window_lifecycle_main); }

TEST(CApiMore, PassiveTargetRmaMatchesTheCppApi) {
  c_rma.assign(kRmaRanks, {});
  cpp_rma.assign(kRmaRanks, {});
  run(cfg(kRmaRanks), rma_main);
  mpi::run_mpi(cfg(kRmaRanks), rma_cpp);
  for (int r = 0; r < kRmaRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(c_rma[r].got, cpp_rma[r].got);
    EXPECT_EQ(c_rma[r].rgot, cpp_rma[r].rgot);
    EXPECT_EQ(c_rma[r].window, cpp_rma[r].window);
  }
  // And the C++ side computed the right thing.
  const int right1 = 2, left1 = 0, last = kRmaRanks - 1;
  EXPECT_EQ(cpp_rma[1].got[3], right1 * 100 + 3);
  EXPECT_EQ(cpp_rma[1].rgot[0], left1 * 100 + 4);
  EXPECT_EQ(cpp_rma[1].window[8], 0 * 1000);       // rank 0's rput
  EXPECT_EQ(cpp_rma[1].window[9], 0 * 1000 + 1);
  EXPECT_EQ(cpp_rma[1].window[15], 0);             // rank 0's replace
  EXPECT_EQ(cpp_rma[0].window[15], -last);
  // Rank 0's slots 10..13 started at 10..13; ranks add 2..5.
  EXPECT_EQ(cpp_rma[0].window[10], 10 + 2 + 3 + 4 + 5);
  EXPECT_EQ(cpp_rma[0].window[11], 11 * 2 * 3 * 4 * 5);
  EXPECT_EQ(cpp_rma[0].window[12], 12);  // max(12, 2..5)
  EXPECT_EQ(cpp_rma[0].window[13], 2);   // min(13, 2..5)
  EXPECT_EQ(cpp_rma[2].window[14], 214);  // the rejected op wrote nothing
}

TEST(CApiMore, ReduceAndUlfmMatchTheCppApi) {
  c_seen.assign(kReduceRanks, {});
  cpp_seen.assign(kReduceRanks, {});
  run(cfg(kReduceRanks), reduce_ulfm_main);
  mpi::run_mpi(cfg(kReduceRanks), reduce_ulfm_cpp);
  for (int r = 0; r < kReduceRanks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const ReduceUlfmSeen& c = c_seen[r];
    const ReduceUlfmSeen& cpp = cpp_seen[r];
    EXPECT_EQ(c.reduced, cpp.reduced);
    EXPECT_EQ(c.scattered, cpp.scattered);
    EXPECT_EQ(c.shrunk_size, cpp.shrunk_size);
    EXPECT_EQ(c.shrunk_rank, cpp.shrunk_rank);
    EXPECT_EQ(c.agreed, cpp.agreed);
    EXPECT_TRUE(c.revoked_barrier_failed);
    EXPECT_TRUE(cpp.revoked_barrier_failed);
  }
  // And the C++ side computed the right thing: 4 ranks of rank * 10 + i.
  EXPECT_EQ(cpp_seen[kReduceRoot].reduced[3], (0 + 10 + 20 + 30) + 4 * 3);
  EXPECT_EQ(cpp_seen[1].scattered[0], (0 + 100 + 200 + 300) + 4 * 2);
  EXPECT_EQ(cpp_seen[0].shrunk_size, kReduceRanks);
  EXPECT_EQ(cpp_seen[0].agreed, (1 << kReduceRanks) - 1);
}
