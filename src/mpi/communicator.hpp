#pragma once

#include <optional>
#include <span>
#include <vector>

#include "mpi/engine.hpp"

namespace dcfa::mpi {

/// MPI communicator: a group of ranks plus an isolated matching context.
/// Rank numbers in every call are communicator-relative; the engine works on
/// world ranks underneath. Construction of the world communicator is done by
/// the Runtime; derived ones come from dup()/split().
///
/// All buffers are simulated-device memory (`mem::Buffer`), allocated with
/// alloc() in this endpoint's natural domain (Phi GDDR for DCFA-MPI ranks,
/// host DRAM for host MPI ranks).
class Communicator {
 public:
  Communicator(Engine& engine, std::uint32_t id, std::vector<int> group,
               int my_index);

  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_.size()); }
  /// World rank of a communicator-relative rank (for engine-level callers).
  int world_rank(int comm_rank) const { return to_world(comm_rank); }
  std::uint32_t id() const { return id_; }
  Engine& engine() { return engine_; }

  // --- Point-to-point --------------------------------------------------------
  Request isend(const mem::Buffer& buf, std::size_t offset, std::size_t count,
                const Datatype& type, int dst, int tag);
  Request irecv(const mem::Buffer& buf, std::size_t offset, std::size_t count,
                const Datatype& type, int src, int tag);
  void send(const mem::Buffer& buf, std::size_t offset, std::size_t count,
            const Datatype& type, int dst, int tag);
  /// Synchronous-mode send: completes only once the receive has matched
  /// (always takes the rendezvous handshake; MPI_Ssend).
  void ssend(const mem::Buffer& buf, std::size_t offset, std::size_t count,
             const Datatype& type, int dst, int tag);
  Request issend(const mem::Buffer& buf, std::size_t offset,
                 std::size_t count, const Datatype& type, int dst, int tag);
  /// Probe for an unmatched incoming message without receiving it.
  std::optional<Status> iprobe(int src, int tag);
  Status probe(int src, int tag);

  /// Persistent communication request (MPI_Send_init / MPI_Recv_init):
  /// captures the call's arguments once; each start() posts a fresh
  /// operation with them. Reusing one buffer across many iterations is the
  /// pattern the paper's MR cache pool exists for.
  class Persistent {
   public:
    Persistent() = default;
    /// Post the operation (MPI_Start). The previous incarnation must have
    /// completed.
    Request& start();
    Request& request() { return active_; }
    bool valid() const { return comm_ != nullptr; }

   private:
    friend class Communicator;
    Communicator* comm_ = nullptr;
    bool is_send_ = false;
    bool sync_ = false;
    mem::Buffer buf_;
    std::size_t offset_ = 0;
    std::size_t count_ = 0;
    const Datatype* type_ = nullptr;
    int peer_ = 0;
    int tag_ = 0;
    Request active_;
  };
  Persistent send_init(const mem::Buffer& buf, std::size_t offset,
                       std::size_t count, const Datatype& type, int dst,
                       int tag);
  Persistent ssend_init(const mem::Buffer& buf, std::size_t offset,
                        std::size_t count, const Datatype& type, int dst,
                        int tag);
  Persistent recv_init(const mem::Buffer& buf, std::size_t offset,
                       std::size_t count, const Datatype& type, int src,
                       int tag);
  Status recv(const mem::Buffer& buf, std::size_t offset, std::size_t count,
              const Datatype& type, int src, int tag);
  Status wait(Request& req);
  bool test(Request& req);
  /// Completion calls accept mixed request sets: point-to-point, persistent
  /// and collective-backed requests complete through the same engine loop.
  void waitall(std::span<Request> reqs);
  /// Block until any valid request completes; its index, or SIZE_MAX when
  /// the set holds no valid request (MPI_Waitany's MPI_UNDEFINED case).
  std::size_t waitany(std::span<Request> reqs);
  /// One progress pass; true when every valid request is complete.
  bool testall(std::span<Request> reqs);
  /// One progress pass; index of a completed valid request, or nullopt.
  std::optional<std::size_t> testany(std::span<Request> reqs);
  /// Concurrent send+receive (MPI_Sendrecv); deadlock-free by construction.
  Status sendrecv(const mem::Buffer& sbuf, std::size_t soff,
                  std::size_t scount, const Datatype& stype, int dst,
                  int stag, const mem::Buffer& rbuf, std::size_t roff,
                  std::size_t rcount, const Datatype& rtype, int src,
                  int rtag);

  // --- Convenience byte-level wrappers ---------------------------------------
  void send_bytes(const mem::Buffer& buf, std::size_t offset,
                  std::size_t bytes, int dst, int tag) {
    send(buf, offset, bytes, type_byte(), dst, tag);
  }
  Status recv_bytes(const mem::Buffer& buf, std::size_t offset,
                    std::size_t bytes, int src, int tag) {
    return recv(buf, offset, bytes, type_byte(), src, tag);
  }

  // --- Collectives -------------------------------------------------------------
  // The blocking forms post the same compiled schedule as their
  // nonblocking i* counterparts and wait on the returned request — there is
  // one algorithm implementation (the schedule emitters below), not two.
  void barrier();
  void bcast(const mem::Buffer& buf, std::size_t offset, std::size_t count,
             const Datatype& type, int root);
  void reduce(const mem::Buffer& sendbuf, std::size_t soff,
              const mem::Buffer& recvbuf, std::size_t roff, std::size_t count,
              const Datatype& type, Op op, int root);
  void allreduce(const mem::Buffer& sendbuf, std::size_t soff,
                 const mem::Buffer& recvbuf, std::size_t roff,
                 std::size_t count, const Datatype& type, Op op);

  // --- Nonblocking collectives (MPI_I*) ---------------------------------------
  // Each returns immediately with a collective-backed Request that advances
  // under the engine's progress loop (any wait/test on this rank drives it)
  // and completes through the same wait/test/waitall/waitany as p2p
  // requests. Buffers must stay untouched until completion. Collectives —
  // blocking and nonblocking alike — must be posted in the same order on
  // every rank of the communicator.
  Request ibarrier();
  Request ibcast(const mem::Buffer& buf, std::size_t offset,
                 std::size_t count, const Datatype& type, int root);
  Request iallreduce(const mem::Buffer& sendbuf, std::size_t soff,
                     const mem::Buffer& recvbuf, std::size_t roff,
                     std::size_t count, const Datatype& type, Op op);
  Request iallgather(const mem::Buffer& sendbuf, std::size_t soff,
                     std::size_t count, const Datatype& type,
                     const mem::Buffer& recvbuf, std::size_t roff);
  Request ireduce_scatter_block(const mem::Buffer& sendbuf, std::size_t soff,
                                const mem::Buffer& recvbuf, std::size_t roff,
                                std::size_t recvcount, const Datatype& type,
                                Op op);
  /// Reduce size()*recvcount elements from every rank's sendbuf, leaving
  /// rank r with the r-th reduced block of recvcount elements
  /// (MPI_Reduce_scatter_block). Runs the collectives engine's ring
  /// reduce-scatter directly — the bandwidth-optimal building block of the
  /// ring allreduce.
  void reduce_scatter_block(const mem::Buffer& sendbuf, std::size_t soff,
                            const mem::Buffer& recvbuf, std::size_t roff,
                            std::size_t recvcount, const Datatype& type,
                            Op op);
  /// Root gathers `count` elements from every rank into recvbuf, rank order.
  void gather(const mem::Buffer& sendbuf, std::size_t soff, std::size_t count,
              const Datatype& type, const mem::Buffer& recvbuf,
              std::size_t roff, int root);
  void scatter(const mem::Buffer& sendbuf, std::size_t soff,
               std::size_t count, const Datatype& type,
               const mem::Buffer& recvbuf, std::size_t roff, int root);
  void allgather(const mem::Buffer& sendbuf, std::size_t soff,
                 std::size_t count, const Datatype& type,
                 const mem::Buffer& recvbuf, std::size_t roff);
  void alltoall(const mem::Buffer& sendbuf, std::size_t soff,
                std::size_t count, const Datatype& type,
                const mem::Buffer& recvbuf, std::size_t roff);
  /// Inclusive prefix reduction: rank r receives OP over ranks 0..r.
  void scan(const mem::Buffer& sendbuf, std::size_t soff,
            const mem::Buffer& recvbuf, std::size_t roff, std::size_t count,
            const Datatype& type, Op op);
  /// Variable-count gather: rank r contributes counts[r] elements, landing
  /// at displs[r] (in elements) of recvbuf on the root.
  void gatherv(const mem::Buffer& sendbuf, std::size_t soff,
               std::size_t count, const Datatype& type,
               const mem::Buffer& recvbuf, std::size_t roff,
               std::span<const std::size_t> counts,
               std::span<const std::size_t> displs, int root);
  /// Variable-count scatter (inverse of gatherv).
  void scatterv(const mem::Buffer& sendbuf, std::size_t soff,
                std::span<const std::size_t> counts,
                std::span<const std::size_t> displs, const Datatype& type,
                const mem::Buffer& recvbuf, std::size_t roff,
                std::size_t count, int root);

  // --- Fault tolerance (ULFM-style recovery API) -------------------------------
  /// Revoke this communicator: every pending and future operation on it
  /// completes with MpiErrc::Revoked, on every member. NOT collective — any
  /// member may call it unilaterally (typically after an operation returned
  /// ProcFailed); the revocation notice floods to the rest of the group and
  /// is gossiped on first sight.
  void revoke();
  bool revoked() const { return engine_.comm_revoked(id_); }
  /// Fault-tolerant agreement (MPIX_Comm_agree): returns the bitwise OR of
  /// every contributing member's value. Collective over the surviving
  /// members; tolerates participants dying mid-vote (a dead member's value
  /// is included only if it voted before dying). Coordinator succession is
  /// safe: decisions are first-wins, so a takeover after the coordinator's
  /// death cannot fork the outcome. The value is 64 bits regardless of
  /// group size — callers needing a per-member bit (shrink) agree on
  /// 64-rank chunks in consecutive rounds.
  std::uint64_t agree(std::uint64_t value);
  /// Build a new communicator from the surviving members, preserving
  /// relative rank order (MPIX_Comm_shrink). Collective over survivors;
  /// internally runs one agree() round per 64 members on the failed-member
  /// set so every survivor derives the identical group and communicator id
  /// at any group size.
  Communicator shrink();

  // --- Communicator management ------------------------------------------------
  Communicator dup();
  /// Group by `color` (same color => same new communicator), ordered by
  /// (key, old rank). Collective over this communicator.
  Communicator split(int color, int key);

  // --- Utilities ----------------------------------------------------------------
  /// Virtual wall-clock in seconds (MPI_Wtime).
  double wtime() const;
  mem::Buffer alloc(std::size_t bytes, std::size_t align = 64) {
    return engine_.ib().alloc_buffer(bytes, align);
  }
  void free(const mem::Buffer& buf) {
    engine_.forget_buffer(buf);
    engine_.ib().free_buffer(buf);
  }

  /// Cluster-unique id for the next window created on this communicator.
  /// Window creation is collective and posted in the same order on every
  /// member, so the per-comm sequence agrees everywhere — the same argument
  /// that makes next_coll_tag_base consistent.
  std::uint64_t next_win_id() {
    return (static_cast<std::uint64_t>(id_) << 32) | win_seq_++;
  }

  /// Rank-local id for a persistent channel's checker exposures. Unlike
  /// window ids this needs no cross-rank agreement (channels are pairwise
  /// and never touch the lock board), so the counter is free-running; the
  /// high bit keeps the namespace disjoint from window ids.
  std::uint64_t next_channel_id() {
    return (1ull << 63) | (static_cast<std::uint64_t>(id_) << 32) |
           chan_seq_++;
  }

 private:
  int to_world(int comm_rank) const;
  int from_world(int world_rank) const;
  Status translate(Status s) const;

  // --- Collectives engine: schedule emitters (collectives.cpp) ---------------
  // Each emitter appends this rank's stages for one algorithm to a
  // CollSchedule (mpi/coll.hpp); the engine's executor advances them. One
  // emitter per algorithm serves both the blocking and nonblocking entry
  // points. `tag_base` is the schedule's reserved tag window (from
  // next_coll_tag_base); emitters address its phase slots so concurrent
  // collectives on the same communicator never cross-match.

  // Balanced element partition of a vector into per-rank blocks; defined in
  // collectives.cpp (off has size parts+1, off[parts] == total).
  struct BlockPart;

  /// Per-schedule tag window: each collective posted on this communicator
  /// reserves the next kCollSchedPhases-tag slot (round-robin over
  /// kCollSchedWindow slots). Consistent across ranks because collectives
  /// are posted in the same order everywhere.
  int next_coll_tag_base();

  /// Ring reduce-scatter over `part`: P-1 pipelined stages leaving this
  /// rank with the fully reduced block `final_block` in place in buf.
  void emit_rs_ring(CollSchedule& sched, const mem::Buffer& buf,
                    std::size_t base, const BlockPart& part,
                    const Datatype& type, Op op, std::size_t seg_elems,
                    int final_block, int tag);
  /// Give every folding (has_op) pipe of the emitted schedule one shared,
  /// schedule-owned scratch sized to the largest block they fold, capped at
  /// two segments. No-op when the schedule has no folding pipe.
  void attach_fold_scratch(CollSchedule& sched);
  /// Ring allgather over `part`: this rank starts owning `my_block` and,
  /// after P-1 pipelined stages through neighbours `to`/`from` (comm
  /// ranks), holds every block. Block ids live in communicator rank space
  /// or, for bcast, in root-relative vrank space (callers pass translated
  /// `to`/`from`).
  void emit_ag_ring(CollSchedule& sched, const mem::Buffer& buf,
                    std::size_t base, const BlockPart& part,
                    const Datatype& type, std::size_t seg_elems, int my_block,
                    int to, int from, int tag);
  void emit_allreduce_rd(CollSchedule& sched, int tag_base,
                         const mem::Buffer& recvbuf, std::size_t roff,
                         std::size_t count, const Datatype& type, Op op);
  void emit_allreduce_ring(CollSchedule& sched, int tag_base,
                           const mem::Buffer& recvbuf, std::size_t roff,
                           std::size_t count, const Datatype& type, Op op);
  void emit_allreduce_rab(CollSchedule& sched, int tag_base,
                          const mem::Buffer& recvbuf, std::size_t roff,
                          std::size_t count, const Datatype& type, Op op);
  /// Binomial reduce to rank 0 then binomial bcast (the pre-engine
  /// baseline; allreduce's small-comm / forced fallback).
  void emit_allreduce_binomial(CollSchedule& sched, int tag_base,
                               const mem::Buffer& recvbuf, std::size_t roff,
                               std::size_t count, const Datatype& type,
                               Op op);
  void emit_bcast_binomial(CollSchedule& sched, int tag_base,
                           const mem::Buffer& buf, std::size_t offset,
                           std::size_t count, const Datatype& type, int root);
  void emit_bcast_scatter_ag(CollSchedule& sched, int tag_base,
                             const mem::Buffer& buf, std::size_t offset,
                             std::size_t count, const Datatype& type,
                             int root);
  void emit_allgather_rd(CollSchedule& sched, int tag_base,
                         const mem::Buffer& recvbuf, std::size_t roff,
                         std::size_t count, const Datatype& type);
  /// Windowed pairwise alltoall of `bytes` per peer: stages of up to
  /// kAlltoallStepsPerStage steps, each step a receive from rank-k and a
  /// send to rank+k, on the fixed alltoall tag (no window slot). The self
  /// block is the caller's local copy.
  void emit_alltoall(CollSchedule& sched, const mem::Buffer& sendbuf,
                     std::size_t soff, const mem::Buffer& recvbuf,
                     std::size_t roff, std::size_t bytes);

  /// Derived-communicator id: deterministic across members because split is
  /// collective and every member mixes the same ingredients.
  std::uint32_t derive_id(int color);

  Engine& engine_;
  std::uint32_t id_;
  std::vector<int> group_;  ///< comm rank -> world rank
  int my_index_;
  std::uint32_t derive_counter_ = 0;
  /// Collective-schedule counter feeding next_coll_tag_base.
  std::uint64_t coll_seq_ = 0;
  /// Agreement round counter; advances identically on every member because
  /// agree() is collective, so (comm id, round) names one vote board.
  std::uint64_t agree_seq_ = 0;
  /// Window creation counter feeding next_win_id.
  std::uint32_t win_seq_ = 0;
  /// Channel exposure-id counter feeding next_channel_id (rank-local).
  std::uint32_t chan_seq_ = 0;
};

}  // namespace dcfa::mpi
