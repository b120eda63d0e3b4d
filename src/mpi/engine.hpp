#pragma once

#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "dcfa/phi_verbs.hpp"
#include "mpi/coll.hpp"
#include "mpi/datatype.hpp"
#include "mpi/mr_cache.hpp"
#include "mpi/offload_cache.hpp"
#include "mpi/packet.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/check.hpp"
#include "verbs/verbs.hpp"

namespace dcfa::mpi {

/// Out-of-band wiring board (the PMI / mpirun role). Wiring a pair is the
/// same three steps for the eager mesh at setup, a first touch under lazy
/// wiring and a reconnect: each side publishes its half of the pair (its QP
/// address and the one block the peer RDMA-writes packets and credit updates
/// into) under the pair's connection epoch, asks the peer for the peer's
/// half, and waits for it. A publish or a request pokes only the rank it
/// names.
class Bootstrap {
 public:
  struct PeerInfo {
    verbs::QpAddress qp;
    /// The publisher's remote block: credit cell, then ring.
    mem::SimAddr block_addr = 0;
    ib::MKey block_rkey = 0;
  };
  /// One queued request: `from` asks for the target's half at `epoch`.
  struct PairRequest {
    int from = -1;
    std::uint32_t epoch = 0;
    bool operator==(const PairRequest&) const = default;
  };

  // --- The connection handshake (docs/simulator.md, docs/faults.md) ---------
  /// Publish `from`'s half of its pair with `to` at connection generation
  /// `epoch` (0 = first wiring), and poke `to`.
  void publish(int from, int to, std::uint32_t epoch, PeerInfo info);
  /// `from`'s half for `to` at `epoch`; nullptr until `from` published it.
  const PeerInfo* try_get(int from, int to, std::uint32_t epoch) const;
  /// `from` asks `to` to build (epoch 0, first touch) or rebuild (epoch > 0)
  /// its half of their pair: queued for `to`, and `to` is poked. Invariant:
  /// `from` has already published, so the responder never blocks on it.
  void request(int from, int to, std::uint32_t epoch);
  /// Drain `rank`'s queued requests that `ready` accepts, in arrival order;
  /// the rest stay queued for a later drain.
  std::vector<PairRequest> take_requests(
      int rank, const std::function<bool(const PairRequest&)>& ready);
  /// `from` gave up on its pair with `to` for good (its endpoint turned
  /// Failed). `to` learns through its request queue, and then fails what
  /// still depends on the pair instead of waiting for traffic, or a
  /// publication, that never comes.
  void abandon_pair(int from, int to);
  bool pair_abandoned(int from, int to) const;
  /// Per-rank poke: `fn` runs on every publish or request naming `rank`, on
  /// a vote naming it coordinator and on every other change to the shared
  /// boards below, so a blocked rank learns it has work. Pass an empty
  /// function to clear.
  void set_watch(int rank, std::function<void()> fn);

  // --- Rank-death registry and failure board (rank_kill; docs/faults.md) ----
  /// Launcher-level ground truth: the victim's own kill timer records its
  /// death here. Survivors learn of deaths through the failure board below;
  /// detection paths consult the registry to short-circuit doomed reconnect
  /// attempts, and the detection-latency metric measures against death_time.
  void mark_dead(int rank, sim::Time when);
  bool is_dead(int rank) const;
  /// Virtual death time, or -1 while `rank` is alive.
  sim::Time death_time(int rank) const;

  /// Failure board: announce-ordered list of failed ranks under a monotonic
  /// epoch (== announcements so far). Idempotent per rank; the announce
  /// order is globally consistent, so every rank adopts failures in the
  /// same order and the whole recovery stays deterministic.
  void announce_failure(int rank);
  std::uint64_t fail_epoch() const;
  /// The i-th announced failed rank (i < fail_epoch()).
  int failed_at(std::size_t i) const;

  // --- Agreement board (MPIX_Comm_agree / shrink; docs/faults.md) -----------
  /// One vote per (comm, agreement-seq, rank); re-posts overwrite. Pokes
  /// only `coordinator`, the lowest member the voter believes alive: only
  /// a coordinator reads votes, and its death rings every watch, so a
  /// successor still finds the vote on the board.
  void post_vote(std::uint32_t comm, std::uint64_t seq, int rank,
                 std::uint64_t value, int coordinator);
  /// nullptr until `rank` voted in that round.
  const std::uint64_t* get_vote(std::uint32_t comm, std::uint64_t seq,
                                int rank) const;
  /// First decision posted for (comm, seq) wins; later posts are ignored,
  /// which keeps agreement consistent across coordinator succession.
  void post_decision(std::uint32_t comm, std::uint64_t seq,
                     std::uint64_t value);
  const std::uint64_t* get_decision(std::uint32_t comm,
                                    std::uint64_t seq) const;

  // --- RMA passive-target lock board (Window::lock/lock_all; docs/rma.md) ---
  /// Out-of-band lock table keyed by (window id, target rank): the
  /// passive-target side of MPI-3 RMA must not require the target to enter
  /// MPI calls, so lock arbitration runs over the bootstrap (the PMI role),
  /// exactly like agreement. An exclusive lock is granted only when no one
  /// holds the slot; a shared lock coexists with other shared holders.
  /// Returns false without side effects when the lock cannot be granted
  /// now; callers retry when an unlock or a death rings their watch
  /// (Engine::wait_until).
  bool rma_try_lock(std::uint64_t win, int target, int origin, bool exclusive);
  /// Release origin's hold (idempotent) and wake waiters.
  void rma_unlock(std::uint64_t win, int target, int origin);
  /// Drop every lock `origin` holds on any window (rank death: survivors
  /// blocked in Window::lock toward a slot the victim held must not hang).
  void rma_release_rank(int origin);

 private:
  /// Ring one rank's watch (no-op before that rank set one).
  void poke(int rank);
  /// Ring every rank's watch.
  void notify();

  /// One passive-target lock slot (window, target): MPI-3 lock
  /// compatibility — one exclusive holder XOR any number of shared ones.
  struct RmaLockSlot {
    int exclusive = -1;        ///< origin holding exclusive, -1 if none
    std::set<int> shared;      ///< origins holding shared
  };

  /// Published halves keyed by (from, to, epoch).
  std::map<std::tuple<int, int, std::uint32_t>, PeerInfo> peers_;
  std::map<int, std::vector<PairRequest>> requests_;  ///< target -> queue
  std::set<std::pair<int, int>> abandoned_;  ///< (from, to) given up
  std::map<int, std::function<void()>> watches_;
  std::map<int, sim::Time> dead_;           ///< rank -> virtual death time
  std::vector<int> failed_order_;           ///< failure board, announce order
  std::set<int> announced_;                 ///< dedup for announce_failure
  std::map<std::tuple<std::uint32_t, std::uint64_t, int>, std::uint64_t>
      votes_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> decisions_;
  std::map<std::pair<std::uint64_t, int>, RmaLockSlot> rma_locks_;
};

/// DCFA-MPI per-rank protocol engine: the P2P communication layer of
/// Section IV-B over the uniform verbs interface.
///
/// Implements, faithfully to the paper:
///  * the one-copy Eager protocol (preregistered ring buffers, packets of
///    header+payload+tail SGEs, tail-detection, credit-based slot reuse);
///  * all three zero-copy rendezvous protocols — Sender-First (RTS ->
///    receiver RDMA-read -> DONE), Receiver-First (RTR -> sender RDMA-write
///    -> DONE) and Simultaneous (sender drops the RTR, receiver reads);
///  * per-(pair, communicator) sequence ids with the ANY_SOURCE
///    sequence-locking rule;
///  * Eager/rendezvous mis-prediction recovery (sender-eager/receiver-rndv:
///    copy + drop stale RTR; sender-rndv/receiver-eager truncation => MPI
///    error);
///  * the MR buffer-cache pool;
///  * the offloading send buffer (host shadow staging) for sends crossing
///    the threshold when running on a Xeon Phi endpoint.
///
/// Under fault injection both work-request kinds that move bytes — eager
/// ring writes and rendezvous RDMA reads/writes — are tracked by one
/// record (TrackedWr) through one retry cycle (docs/faults.md).
class Engine {
 public:
  /// Protocol switches. Every tunable number (eager and offload
  /// thresholds, retry timeout and budget, collective crossovers and
  /// segment size) is a sim::Platform field, read from the HCA's platform.
  struct Options {
    /// Use the offloading send buffer design (only effective on PhiVerbs).
    bool offload_send_buffer = true;
    /// Disable the MR cache (ablation: register/deregister per message).
    bool mr_cache = true;
    /// Section VI future work, implemented: delegate large collective
    /// reductions to the host CPU (DCFA-MPI CMD ReduceShadow).
    bool offload_reductions = false;
    /// Section VI future work, implemented: delegate large derived-datatype
    /// packing to the host CPU (DCFA-MPI CMD PackShadow); the packed host
    /// buffer doubles as the offloading send buffer.
    bool offload_datatypes = false;
    /// Forced collective algorithms (ablation benches, tests); Auto selects
    /// by message and comm size (see mpi/coll.hpp).
    CollAlgo allreduce_algo = CollAlgo::Auto;
    CollAlgo bcast_algo = CollAlgo::Auto;
    CollAlgo allgather_algo = CollAlgo::Auto;
    /// Wire endpoints on first touch instead of building the full N-1 mesh
    /// in setup(). At thousands of ranks the mesh is the dominant memory
    /// (rings + staging per pair) and setup becomes O(N^2) cluster-wide;
    /// first-touch wiring keeps each rank at its actual peer set (log N for
    /// the tree/ring collectives). Off by default: the eager mesh keeps the
    /// historical event schedule — and every existing trace — unchanged.
    bool lazy_endpoints = false;
  };

  struct Stats {
    std::uint64_t eager_sends = 0;
    std::uint64_t rndv_sends = 0;
    std::uint64_t sender_first = 0;    ///< completed via RTS/read/DONE
    std::uint64_t receiver_first = 0;  ///< completed via RTR/write/DONE
    std::uint64_t rtrs_dropped = 0;    ///< simultaneous / mis-predicted
    std::uint64_t eager_mispredicts = 0;  ///< eager data met an RTR-state recv
    std::uint64_t offload_syncs = 0;   ///< sync_offload_mr invocations
    std::uint64_t offload_sync_bytes = 0;
    std::uint64_t packets_rx = 0;
    std::uint64_t endpoint_polls = 0;  ///< endpoints visited by progress()
    std::uint64_t credits_sent = 0;
    std::uint64_t credits_piggybacked = 0;  ///< header credits that advanced
    std::uint64_t tx_stalls = 0;       ///< emissions deferred for credit
    std::uint64_t reductions_offloaded = 0;  ///< host-delegated combines
    std::uint64_t packs_offloaded = 0;       ///< host-delegated packs
    // --- Fault recovery (all zero unless a fault spec armed the injector) ---
    std::uint64_t retransmits = 0;       ///< ring packets re-posted
    std::uint64_t wc_errors = 0;         ///< error CQEs on faultable WRs
    std::uint64_t wc_timeouts = 0;       ///< retry timers that found no CQE
    std::uint64_t credit_acked = 0;      ///< packets confirmed by credit only
    std::uint64_t dup_packets_dropped = 0;  ///< stale retransmits discarded
    std::uint64_t data_op_retries = 0;   ///< rendezvous RDMA ops re-posted
    std::uint64_t retry_exhausted = 0;   ///< operations failed after budget
    std::uint64_t offload_fallbacks = 0; ///< CMD failures absorbed locally
    std::uint64_t cmd_retries = 0;       ///< DCFA CMD requests resent
    std::uint64_t cmd_timeouts = 0;      ///< DCFA CMD reply timeouts
    // --- Fatal-fault recovery (zero unless qp_fatal/delegate_crash armed) ---
    std::uint64_t reconnects = 0;        ///< endpoint epoch bumps completed
    std::uint64_t proxy_failovers = 0;   ///< endpoints degraded to proxy path
    std::uint64_t epoch_fenced = 0;      ///< stale cross-epoch packets dropped
    std::uint64_t liveness_probes = 0;   ///< RDMA reads of a peer's cell
    /// Unsignaled WRs (probes, credits) whose responder stopped answering.
    std::uint64_t liveness_suspicions = 0;
    // --- Collectives engine (per-algorithm invocation counts) ---------------
    std::uint64_t coll_allreduce_rd = 0;        ///< recursive doubling
    std::uint64_t coll_allreduce_ring = 0;      ///< pipelined ring
    std::uint64_t coll_allreduce_rab = 0;       ///< Rabenseifner
    std::uint64_t coll_allreduce_binomial = 0;  ///< reduce+bcast fallback
    std::uint64_t coll_bcast_binomial = 0;
    std::uint64_t coll_bcast_scatter_ag = 0;    ///< scatter + ring allgather
    std::uint64_t coll_allgather_ring = 0;
    std::uint64_t coll_allgather_rd = 0;
    std::uint64_t coll_segments = 0;  ///< pipeline segments moved
    std::uint64_t coll_schedules = 0;  ///< collective schedules completed
    // --- Rank-failure semantics (zero unless rank_kill armed) ----------------
    std::uint64_t rank_failures_known = 0;   ///< deaths adopted from the board
    std::uint64_t failure_detect_max_ns = 0; ///< max(adopt time - death time)
    std::uint64_t proc_failed_ops = 0;   ///< ops failed with PROC_FAILED
    std::uint64_t comms_revoked = 0;     ///< revocations processed locally
    // --- One-sided RMA (Window / Channel; bumped from window.cpp,
    // channel.cpp via coll_stats(), like the collectives counters) ------------
    std::uint64_t rma_puts = 0;          ///< put/rput operations started
    std::uint64_t rma_gets = 0;          ///< get/rget operations started
    std::uint64_t rma_accumulates = 0;   ///< accumulate operations started
    std::uint64_t rma_flushes = 0;       ///< flush/flush_local completions
    std::uint64_t rma_locks = 0;         ///< passive-target locks granted
    std::uint64_t rma_mr_negotiations = 0;  ///< window/channel MRs exposed
    std::uint64_t channel_posts = 0;     ///< persistent-channel hot-path posts
    std::uint64_t channel_negotiations = 0; ///< channel setup rkey exchanges
  };

  Engine(int rank, int nranks, std::unique_ptr<verbs::Ib> ib,
         Bootstrap& bootstrap, Options options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Build QPs/rings/MRs for every peer, exchange addresses, connect.
  /// Collective: every rank's engine must call it.
  void setup();
  /// Release protocol resources (drains caches). Call after the last
  /// communication; collective in spirit.
  void finalize();

  int rank() const { return rank_; }
  int size() const { return nranks_; }
  verbs::Ib& ib() { return *ib_; }
  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  const sim::Platform& platform() const { return platform_; }
  /// Collectives-engine counters live in Stats but are bumped by the
  /// Communicator collectives (collectives.cpp), which sit outside Engine.
  Stats& coll_stats() { return stats_; }
  MrCache* mr_cache() { return mr_cache_.get(); }
  OffloadShadowCache* shadow_cache() { return shadow_cache_.get(); }

  /// Non-blocking send of `count` elements of `type` starting at
  /// buf[offset] to world rank `dst`. `sync` forces the rendezvous
  /// handshake regardless of size (MPI_Issend semantics: completion implies
  /// the receive matched).
  Request isend(const mem::Buffer& buf, std::size_t offset, std::size_t count,
                const Datatype& type, int dst, int tag, std::uint32_t comm_id,
                bool sync = false);
  /// Non-blocking receive into buf[offset..]; `src` may be kAnySource and
  /// `tag` kAnyTag.
  Request irecv(const mem::Buffer& buf, std::size_t offset, std::size_t count,
                const Datatype& type, int src, int tag, std::uint32_t comm_id);

  /// Non-blocking probe: is there an unmatched incoming message that a
  /// receive with (src, tag) would match right now? Returns its envelope
  /// without consuming it (MPI_Iprobe). Wildcards allowed.
  std::optional<Status> iprobe(int src, int tag, std::uint32_t comm_id);
  /// Blocking probe (MPI_Probe).
  Status probe(int src, int tag, std::uint32_t comm_id);

  /// Block until `req` completes; throws MpiError on protocol errors.
  Status wait(Request& req);
  /// Advance, then report completion without blocking.
  bool test(Request& req);
  /// Block until any valid request in the set completes; returns its index,
  /// or SIZE_MAX when the set holds no valid request. Mixed p2p /
  /// persistent / collective sets are fine — completion is kind-agnostic.
  std::size_t waitany(std::span<Request> reqs);
  /// Advance once; true when every valid request in the set is complete.
  bool testall(std::span<Request> reqs);
  /// Advance once; index of some completed valid request, or nullopt.
  std::optional<std::size_t> testany(std::span<Request> reqs);
  /// Drive the progress engine once (poll CQ, scan rings, drain queues,
  /// advance collective schedules).
  void progress();

  /// Hand a compiled collective schedule to the executor. Posts stage 0
  /// immediately and returns the collective-backed request; the schedule
  /// advances under progress() until every stage completes.
  Request start_coll(std::shared_ptr<CollSchedule> sched);
  /// An already-complete collective request (degenerate collectives: one
  /// rank, zero elements).
  Request completed_request();

  /// Invalidate cached registrations before freeing a user buffer.
  void forget_buffer(const mem::Buffer& buf);

  // --- One-sided RMA primitives (Window and Channel support) -----------------
  /// Register `buf` for remote one-sided access and return the MR (owned by
  /// the caller; release with release_window_mr).
  ib::MemoryRegion* expose_window_mr(const mem::Buffer& buf);
  void release_window_mr(ib::MemoryRegion* mr);
  /// A payload exposed for RDMA: (addr, lkey-for-local-use,
  /// rkey-for-remote-use).
  struct Exposure {
    mem::SimAddr addr;
    ib::MKey lkey;
    ib::MKey rkey;
  };
  /// The offloading send buffer (IV-B4), decided here for every sender
  /// (rendezvous payloads, window puts, channel writes): when `bytes` of
  /// buf[off..] should leave the co-processor through the host shadow, sync
  /// them into it and return where they now live. Returns nothing when the
  /// payload is not eligible, or when the host delegation definitively
  /// failed the shadow (counted in offload_fallbacks); the caller then
  /// exposes `buf` through a plain MR. The first call per buffer registers
  /// the shadow.
  std::optional<Exposure> stage_offload(const mem::Buffer& buf,
                                        std::size_t off, std::size_t bytes);
  /// An MR covering `buf`: the MR cache's, or (cache off) a fresh
  /// registration. A definitive CMD failure surfaces as an MpiError.
  ib::MemoryRegion* register_window(const mem::Buffer& buf);
  /// Drop what register_window returned (a no-op with the MR cache on).
  void release_window(ib::MemoryRegion* mr);
  /// The one one-sided post, under every window op and channel write: RDMA
  /// `opcode` (RdmaWrite or RdmaRead) of `bytes` between the local
  /// (laddr, lkey) and (raddr, rkey) at `peer`. DcfaRace tracks the remote
  /// range as a `race` access of kind `op` named `label` from post until
  /// completion; `on_done` fires at local completion, which in this model
  /// implies remote delivery. A self op is a memcpy. Throws ProcFailed for
  /// a dead peer.
  void rma_post(int peer, ib::Opcode opcode, mem::SimAddr laddr,
                ib::MKey lkey, std::size_t bytes, mem::SimAddr raddr,
                ib::MKey rkey, sim::CheckKind race, sim::Checker::AccessOp op,
                const char* label, std::function<void()> on_done);
  /// Drive progress until `pred()` holds (blocks the owning process). The
  /// out-of-band boards (agreement, RMA locks) are waited on here too: every
  /// board change rings each rank's watch.
  void wait_until(const std::function<bool()>& pred);
  /// The cluster invariant checker, for components layered above the engine
  /// (Window/Channel epoch and exposure hooks). Same instance chk() serves
  /// the protocol internals.
  sim::Checker& checker();

  // --- Rank-failure semantics (ULFM-style recovery; docs/faults.md) ----------
  /// True once this rank's scheduled rank_kill fired. Every blocking entry
  /// point checks it and throws RankKilled to unwind the rank body.
  bool dead() const { return dead_; }
  /// Register a communicator's world-rank membership. The Communicator ctor
  /// calls this so failure handling can map a dead rank onto the schedules,
  /// sends and receives that depend on it.
  void register_comm(std::uint32_t comm_id, std::vector<int> group);
  /// Revoke `comm_id` locally: poison every pending operation on it with
  /// MpiErrc::Revoked and flood a Revoke notice to every live group member
  /// (MPIX_Comm_revoke). Idempotent; each rank re-floods exactly once, so
  /// the gossip terminates.
  void revoke_comm(std::uint32_t comm_id);
  bool comm_revoked(std::uint32_t comm_id) const {
    return revoked_.count(comm_id) != 0;
  }
  /// Failed-rank knowledge as adopted from the global failure board.
  bool rank_failed(int rank) const { return known_failed_.count(rank) != 0; }
  /// No effect. Liveness comes from the transport: a peer's HCA answers
  /// probes whatever its CPU does, so a computing rank needs no grace. Kept
  /// for callers written against the timeout it used to widen.
  void set_liveness_grace(sim::Time) {}
  /// The out-of-band wiring/failure/agreement boards (Communicator::agree
  /// and shrink run their votes over these, not over p2p traffic, so they
  /// work even when the communicator itself is poisoned).
  Bootstrap& bootstrap() { return bootstrap_; }
  /// Drive every valid request in the set to a terminal phase, then throw
  /// for the first errored one. Unlike wait-in-a-loop, a failure on request
  /// i cannot leave request i+1 undriven: fault-tolerant callers catch the
  /// MpiError and inspect Request::failed()/errc() per request.
  void waitall(std::span<Request> reqs);
  /// Watchdog hook: dump every live engine's state (rank, endpoint health,
  /// in-flight schedules, known failures) to `out`. Called from a foreign
  /// OS thread only when the deadline watchdog is about to abort a hung
  /// run — best-effort, unsynchronised reads are acceptable there.
  static void dump_all(std::FILE* out);

  /// acc[i] = acc[i] OP in[i] over `count` elements, charging the owning
  /// core's element throughput — or, when offload_reductions is on and the
  /// vector is large enough, staging both operands to the host, delegating
  /// the combine to the host CPU, and pulling the result back. Used by the
  /// collectives.
  void combine(Op op, const Datatype& type, const mem::Buffer& acc,
               std::size_t acc_off, const mem::Buffer& in, std::size_t in_off,
               std::size_t count);

 private:
  struct ArrivedPacket {
    PacketHeader hdr;
    std::vector<std::byte> payload;  ///< eager payload copy (slot is reused)
  };

  /// Receiver + sender channel state for one (peer, comm) pair.
  struct Channel {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_assign_seq = 0;
    std::map<std::uint64_t, ArrivedPacket> arrived;
    std::map<std::uint64_t, std::shared_ptr<RequestState>> posted;
    std::map<std::uint64_t, std::shared_ptr<RequestState>> sends;
    std::map<std::uint64_t, PacketHeader> arrived_rtr;
  };

  /// One tracked work request under fault injection: a ring packet or a
  /// rendezvous RDMA read/write. Both are idempotent (same bytes, same
  /// addresses; a ring packet's staging slot cannot be reused before the
  /// peer's credit proves consumption), so recovery is a plain re-post of
  /// `wr` with backoff until the budget runs out.
  struct TrackedWr {
    /// Ring packet (keyed by absolute ring index), else a rendezvous data
    /// op (keyed by the endpoint's data-op post count).
    bool ring = false;
    std::uint64_t key = 0;
    ib::SendWr wr;  ///< template; wr_id/signaled/faultable set per post
    /// Fires once with the final verdict (Success, or RetryExceeded after
    /// the budget). Empty for control packets — their owner is failed
    /// directly on exhaustion.
    std::function<void(const ib::Wc&)> on_result;
    /// The request the record serves. A data op whose owner has already
    /// turned terminal is settled instead of re-posted (settle_orphan).
    std::shared_ptr<RequestState> owner;
    PacketHeader hdr;             ///< ring packets: the staged header
    std::size_t payload_len = 0;  ///< ring packets: the staged payload
    /// Every wr_id posted for this record. A dropped CQE never fires its
    /// completion callback, so the ids are garbage-collected when the
    /// record finishes — otherwise outstanding_ never drains.
    std::vector<std::uint64_t> wr_ids;
    int attempts = 1;
    /// Data ops: an attempt before the latest one completed successfully.
    /// The bytes are in place; re-posts become zero-length probes and the
    /// latest CQE finishes the op with success.
    bool landed = false;
    /// Bumped on every (re)post; a pending retry timer whose epoch no
    /// longer matches is stale and must not fire (events can't be
    /// cancelled in the simulator).
    std::uint64_t epoch = 0;
  };

  /// Endpoint health (fatal-fault recovery state machine; docs/faults.md):
  /// Healthy -> Suspect (death signal observed) -> Reconnecting (epoch bump
  /// in progress) -> back to Healthy, or Degraded (delegate dead, endpoint
  /// failed over to the host-proxy path — still fully functional), or
  /// Failed (reconnect budget exhausted; operations raise MpiError).
  enum class ConnState { Healthy, Suspect, Reconnecting, Degraded, Failed };

  /// One registered piece of memory (an endpoint's remote block, a staging
  /// arena chunk): the buffer, its MR (null while deregistered) and the
  /// access it is registered with.
  struct Region {
    mem::Buffer buf;
    ib::MemoryRegion* mr = nullptr;
    unsigned access = 0;
  };

  /// Per-peer connection: QP, its two memory blocks, credits, deferred
  /// emissions and, under fault injection, the tracked WRs in flight toward
  /// the peer.
  struct Endpoint {
    int peer = -1;
    ib::QueuePair* qp = nullptr;

    /// The endpoint's memory, laid out by EndpointLayout: the remote block
    /// (credit cell + receive ring) that the peer writes, registered on its
    /// own, and the local block (credit source + probe cell + staging) that
    /// only I write: a slice of a staging-arena chunk, under the chunk's
    /// lkey. Every SGE over the slice goes through wire::sge.
    Region remote_block;
    mem::Buffer local_block;
    ib::MKey local_lkey = 0;
    mem::SimAddr peer_block = 0;  ///< the peer's remote block (where I write)
    ib::MKey peer_rkey = 0;

    std::uint64_t sent_packets = 0;
    std::uint64_t consumed_by_peer = 0;
    std::uint64_t my_consumed = 0;
    std::uint64_t my_consumed_reported = 0;

    // --- Fatal-fault recovery ------------------------------------------------
    ConnState conn_state = ConnState::Healthy;
    /// Connection generation, stamped into every packet header and checked
    /// on receive; bumped by each successful reconnect.
    std::uint32_t epoch = 0;
    int reconnects = 0;  ///< cumulative epoch bumps (budget: mpi_max_reconnects)
    /// The pair was given up for good, by this side or the peer (see
    /// abandon_endpoint): terminal, its operations already failed.
    bool abandoned = false;
    /// my_consumed + consumed_by_peer at the last liveness tick: a change
    /// means the peer was heard from since.
    std::uint64_t heard_at_tick = 0;

    /// Emissions deferred for credit. The owner rides alongside the opaque
    /// closure so failure handling can fail the request a queued packet
    /// belongs to instead of emitting toward a dead peer (control packets
    /// and credit updates queue with no owner and are simply dropped).
    struct PendingTx {
      std::function<void()> emit;
      std::shared_ptr<RequestState> owner;
    };
    std::deque<PendingTx> pending_tx;

    /// Fault mode only: tracked WRs not yet confirmed. Ring packets are
    /// keyed by absolute ring index (the sent_packets value at emission),
    /// rendezvous data ops by post order.
    std::map<std::uint64_t, TrackedWr> unacked;
    std::map<std::uint64_t, TrackedWr> data_ops;
    std::uint64_t data_ops_posted = 0;

    /// Fault mode only: packets whose CQE succeeded but whose consumption
    /// the peer's credit has not yet proven (the payload still sits in the
    /// staging slot — it cannot be reused before that credit). No timers
    /// run on these; they exist so a reconnect can replay them, because
    /// the ring rebuild destroys any still-unconsumed occupants (e.g. a
    /// reconnect after a QP wedge, toward a peer still computing).
    /// Purged as the peer's credit counter passes them.
    struct DeliveredTx {
      PacketHeader hdr;
      std::size_t payload_len = 0;
    };
    std::map<std::uint64_t, DeliveredTx> delivered;

    /// Sequencing is per (communicator, tag): MPI's non-overtaking rule
    /// applies within a (source, comm, tag) triple, and keying the paper's
    /// sequence ids by tag lets unrelated tags (e.g. collective traffic vs
    /// user messages) interleave freely.
    std::map<std::pair<std::uint32_t, int>, Channel> channels;
  };

  /// Self-messaging (rank sending to itself) short-circuits the network but
  /// keeps the same sequence/matching semantics.
  struct SelfMsg {
    int tag = 0;
    std::size_t bytes = 0;
    std::vector<std::byte> data;
  };
  struct SelfChannel {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_assign_seq = 0;
    std::map<std::uint64_t, SelfMsg> arrived;
    std::map<std::uint64_t, std::shared_ptr<RequestState>> posted;
  };

  /// Per-communicator receive ordering state (ANY_SOURCE lock).
  struct CommRecv {
    /// Recvs that cannot take a sequence id yet. Non-empty implies the head
    /// is an ANY_SOURCE request that has not met a matching packet — the
    /// paper's "all the sequences for receive requests will be locked".
    std::deque<std::shared_ptr<RequestState>> deferred;
  };

  // --- TX path ---------------------------------------------------------------
  int slots() const { return layout_.slots; }
  std::uint64_t slots_free(const Endpoint& ep) const {
    return usable_slots_ - (ep.sent_packets - ep.consumed_by_peer);
  }
  /// Run `emit` now if a slot is free and nothing is queued ahead; otherwise
  /// defer it (drained by progress when credits return). `owner` names the
  /// request the emission serves, for failure handling of queued packets.
  void tx(Endpoint& ep, std::function<void()> emit,
          std::shared_ptr<RequestState> owner = nullptr);
  void drain_tx(Endpoint& ep);
  /// Write a packet into the peer's next ring slot (requires a free slot).
  /// Under fault injection the write is tracked for retransmission;
  /// `on_complete`/`owner` then receive the final delivery verdict.
  void emit_packet(Endpoint& ep, PacketHeader hdr,
                   const std::byte* payload, std::size_t len,
                   std::function<void(const ib::Wc&)> on_complete = {},
                   std::shared_ptr<RequestState> owner = nullptr);
  void emit_control(Endpoint& ep, PacketType type,
                    const std::shared_ptr<RequestState>& req,
                    mem::SimAddr buf_addr, ib::MKey rkey,
                    std::uint64_t buf_bytes,
                    std::uint32_t dir = PacketHeader::kToSender);
  void send_credit(Endpoint& ep);
  /// The idle flush (armed endpoints only): write a credit toward every
  /// live peer whose consumption is unreported, before this rank sleeps or
  /// finalizes — a peer whose packet's CQE was lost waits on exactly that
  /// counter as its ack.
  void flush_credits();
  /// The paper's ring write of staged `slot`: header, payload and tail
  /// SGEs, laid down contiguously in the peer's ring so the tail lands
  /// last-after-data. Callers set signaling and the wr_id.
  ib::SendWr ring_write(const Endpoint& ep, int slot, std::size_t len) const;

  // --- Fault recovery (see docs/faults.md) -----------------------------------
  /// Post `wr` signaled under a fresh wr_id whose CQE runs `on_wc`; returns
  /// the wr_id. The only writer of outstanding_ (dcfa_lint signaled-post).
  std::uint64_t post_signaled(ib::QueuePair* qp, ib::SendWr wr,
                              std::function<void(const ib::Wc&)> on_wc);
  /// Post a rendezvous RDMA data WR for `owner`; with faults armed it is
  /// tracked in the endpoint's data_ops and re-posted on error/timeout until
  /// the budget runs out.
  void post_data_wr(Endpoint& ep, ib::SendWr wr,
                    std::shared_ptr<RequestState> owner,
                    std::function<void(const ib::Wc&)> on_result);
  /// (Re)post a tracked record as a signaled faultable WR and arm its retry
  /// timer with the current backoff.
  void post_tracked(Endpoint& ep, TrackedWr& rec);
  /// The record of (peer, kind, key), or null once it finished.
  TrackedWr* find_tracked(int peer, bool ring, std::uint64_t key);
  /// CQE for a tracked record: success finishes it, an injected error
  /// schedules a backoff re-post. A data op is decided by its latest
  /// attempt's CQE; an earlier attempt's success only marks it landed.
  void on_tracked_wc(int peer, bool ring, std::uint64_t key, const ib::Wc& wc);
  /// Retry timer body: re-post, or give up once the budget is spent (a
  /// landed data op then finishes with success). Before
  /// that a ring packet is credit-acked if the peer consumed its slot
  /// meanwhile (after_error skips both checks — an error CQE means nothing
  /// was delivered and was already judged against the budget).
  void tracked_check(int peer, bool ring, std::uint64_t key,
                     std::uint64_t epoch, bool after_error);
  /// Once `rec` has spent its retry budget, hand the endpoint to a
  /// reconnect or, failing that, finish `rec` with `wc`. Returns whether
  /// the budget was spent.
  bool budget_spent(Endpoint& ep, TrackedWr& rec, const ib::Wc& wc);
  /// Remove `rec` from its endpoint store and unhook its CQE callbacks;
  /// returns the record.
  TrackedWr take_tracked(Endpoint& ep, TrackedWr& rec);
  /// Deliver the final verdict to the record's callback/owner and drop it.
  void finish_tracked(Endpoint& ep, TrackedWr& rec, const ib::Wc& wc);
  /// Defuse every tracked record of `ep` (no retry timer or CQE callback of
  /// theirs fires any more) and hand them back, removed from the endpoint:
  /// ring packets in index order, then data ops in post order.
  std::vector<TrackedWr> quiesce(Endpoint& ep);
  /// Failure verdict for a record pulled out by quiesce: its callback gets
  /// `err`, else its owner is failed with `why` (the caller's blame scope
  /// classifies both).
  void fail_tracked(TrackedWr& rec, const ib::Wc& err, const std::string& why);
  /// A data op whose owner turned terminal while the op waited for a
  /// re-post (a revoke or a peer death failed it elsewhere) may target
  /// memory freed since: a schedule temporary reaped by reap_condemned, or
  /// a user buffer the failed request handed back. Remove it from `ep` and
  /// deliver a flush verdict instead of re-posting. Returns whether `rec`
  /// was settled.
  bool settle_orphan(Endpoint& ep, TrackedWr& rec);
  /// Enqueue `fn` to run in the rank's process context after `delay`
  /// (timers fire in engine context where post_send is illegal).
  void schedule_recovery(sim::Time delay, std::function<void()> fn);

  // --- Fatal-fault recovery (connection re-establishment) --------------------
  /// React to a death signal on `ep` (QP wedged in the error state, retry
  /// budget exhausted, a responder that stopped answering): mark it Suspect,
  /// post a reconnect request to the bootstrap board, and queue
  /// perform_reconnect. Returns false when recovery is not available —
  /// fatal faults unarmed, or the cumulative reconnect budget is spent (the
  /// endpoint turns Failed and the caller falls through to its normal
  /// failure path). `why` is a string literal: the trace keeps the pointer.
  bool maybe_start_reconnect(Endpoint& ep, const char* why);
  /// Re-establish `ep` at `target_epoch`: quiesce in-flight state, tear down
  /// and re-create the QP and the remote block's MR through the transport
  /// (DCFA CMD on a Phi endpoint), re-exchange connection info via
  /// the bootstrap, then replay every still-pending packet and re-post every
  /// pending rendezvous data operation. Both sides run this symmetrically.
  void perform_reconnect(Endpoint& ep, std::uint32_t target_epoch);

  // --- The connection handshake: publish, request, await, service ------------
  /// How a wait on the peer's half ended.
  enum class PeerWait { Connected, Dead, Abandoned };
  /// The one place a rank blocks on a peer: wait until ep.peer publishes its
  /// half for `epoch`, then connect `ep` to it. While blocked the rank
  /// serves other ranks' requests (A waiting on B while C waits on A must
  /// still build A's half toward C). Ends without connecting when the peer
  /// is dead or gave the pair up.
  PeerWait await_peer(Endpoint& ep, std::uint32_t epoch);
  /// Serve this rank's queued requests, run from progress() and await_peer:
  /// build and publish our half for a first-touch requester (never blocks:
  /// publish-before-request), reconnect an endpoint whose peer asked for a
  /// newer epoch, fail an endpoint whose peer abandoned the pair. A request
  /// whose endpoint awaits its first half or is mid-reconnect stays queued.
  void service_requests();
  /// Create this side of the pair with `peer` (remote block, local-block
  /// slice, QP) and publish it on the bootstrap. A first-touch responder
  /// passes the requester's half and connects to it before publishing.
  Endpoint& open_endpoint(int peer,
                          const Bootstrap::PeerInfo* theirs = nullptr);

  // --- Endpoint lifecycle ------------------------------------------------------
  /// Register `ep`'s remote block and route landings on it to its active
  /// mark. On first registration, also give `ep` its local block: the next
  /// slice of the staging arena, opening (allocating and registering) a
  /// chunk when the last one is used up. Chunks double (1, 2, 4, 8 blocks)
  /// up to kArenaChunkBlocks, then hold that many or half the arena,
  /// whichever is more, never more than the peers still without a block.
  /// A rebuild keeps its slice. This pair is the only code that
  /// (de)registers endpoint memory: setup, the reconnect rebuild and
  /// finalize all go through it (dcfa_lint endpoint-mr).
  void reg_endpoint(Endpoint& ep);
  /// Deregister `ep`'s remote block, dropping the landing route with its
  /// MR; the buffer stays allocated. With `release` (finalize), also give
  /// back its slice: the last slice back deregisters and frees the chunks.
  void dereg_endpoint(Endpoint& ep, bool release = false);
  /// This side's half of the pair, as published on the bootstrap.
  Bootstrap::PeerInfo peer_info(const Endpoint& ep) const;
  /// Wire remote addresses from a published PeerInfo into an opened
  /// endpoint and connect its QP.
  void connect_endpoint(Endpoint& ep, const Bootstrap::PeerInfo& info);
  /// First touch toward `peer` (Options::lazy_endpoints): open our side,
  /// request theirs, await it.
  Endpoint& establish_endpoint(int peer);

  // --- Peer liveness (fatal faults only; docs/faults.md) ---------------------
  /// Must this rank notice if ep.peer dies? Packets toward it are queued or
  /// unacknowledged, or (rank kills armed) it is expected to send. Only a
  /// Healthy or Degraded endpoint whose QP works counts: a reconnect or a
  /// failure verdict already owns the rest.
  bool watched(const Endpoint& ep) const;
  /// Queue a liveness tick one mpi_heartbeat_period out, unless one is
  /// already queued or no endpoint is watched. progress() calls this, so
  /// the timer runs only while some traffic depends on a peer.
  void arm_liveness();
  /// The tick: one probe toward every watched peer that has no WR of ours
  /// in flight and was not heard from since the last tick, an unsignaled
  /// RDMA read of its credit cell. A live peer's HCA answers whatever its
  /// CPU does. A dead one's does not, and the read completes RetryExceeded
  /// (unanswered()).
  void liveness_tick();
  /// An unsignaled WR on `qpn` got no answer (RetryExceeded): its peer is
  /// suspect, and maybe_start_reconnect decides.
  void unanswered(ib::Qpn qpn);

  // --- Protocol steps --------------------------------------------------------
  void start_send(const std::shared_ptr<RequestState>& req);
  void send_eager(Endpoint& ep, const std::shared_ptr<RequestState>& req);
  void send_rts(Endpoint& ep, const std::shared_ptr<RequestState>& req);
  void rdma_write_to(Endpoint& ep, const std::shared_ptr<RequestState>& req,
                     const PacketHeader& rtr);
  void start_rdma_read(Endpoint& ep,
                       const std::shared_ptr<RequestState>& req,
                       const PacketHeader& rts);
  /// Model one core's strided pack/unpack over `bytes` of payload.
  void charge_pack(std::size_t bytes);
  /// Charge the owning core one poll (a test, a probe, or a ring scan that
  /// found a packet).
  void charge_poll();
  /// Delegate the packing of a non-contiguous send to the host CPU; the
  /// packed host buffer is recorded in packed_ and released at completion.
  /// Returns true when delegation happened.
  bool try_offload_pack(const std::shared_ptr<RequestState>& req);
  /// Expose the request's payload for RDMA: its host-packed buffer, the
  /// offloading send buffer (stage_offload), else an MR.
  Exposure expose_send_payload(const std::shared_ptr<RequestState>& req);

  // --- RX path ---------------------------------------------------------------
  /// Consume every complete packet at the head of `ep`'s ring. Returns true
  /// when the scan stopped on a non-empty slot (epoch fence, duplicate
  /// scrub, tail still in flight), so the endpoint needs another visit.
  bool scan_ring(Endpoint& ep);
  void read_credit_cell(Endpoint& ep);
  /// The one ack rule, for a credit from the cell or a packet header: the
  /// peer consumed `value` packets. A higher value frees ring slots, purges
  /// the delivered records below it and finishes every tracked ring packet
  /// it covers.
  void apply_credit(Endpoint& ep, std::uint64_t value);
  void handle_packet(Endpoint& ep, const PacketHeader& hdr,
                     const std::byte* payload);
  void handle_eager(Endpoint& ep, Channel& ch, const PacketHeader& hdr,
                    const std::byte* payload);
  void handle_rts(Endpoint& ep, Channel& ch, const PacketHeader& hdr);
  void handle_rtr(Endpoint& ep, Channel& ch, const PacketHeader& hdr);
  void handle_done(Endpoint& ep, Channel& ch, const PacketHeader& hdr);
  void handle_err(Endpoint& ep, Channel& ch, const PacketHeader& hdr);
  /// Revoke notice: dispatched before channel resolution (a revocation is
  /// per-communicator, not per-channel) — adopt + gossip.
  void handle_revoke(const PacketHeader& hdr);

  /// Deliver eager payload into a posted receive and complete it.
  void deliver_eager(Endpoint& ep, const std::shared_ptr<RequestState>& req,
                     const PacketHeader& hdr, const std::byte* payload);
  /// A receive request just got its sequence id: look for an already-arrived
  /// packet, start the right protocol, or send an RTR / wait.
  void activate_recv(Endpoint& ep, Channel& ch,
                     const std::shared_ptr<RequestState>& req);
  /// Try to resolve deferred receives (wildcard locking drain).
  void drain_deferred(std::uint32_t comm_id);
  /// Find a (source, tag) channel whose next-expected packet has arrived
  /// and is compatible with the wildcard receive `req` (the paper's
  /// ANY_SOURCE "first matching packet" rule, generalised to ANY_TAG).
  /// Lowest (source, tag) wins, self at its natural rank position.
  struct WildMatch {
    int src;
    int tag;
  };
  std::optional<WildMatch> find_wildcard_match(
      const std::shared_ptr<RequestState>& req);

  // --- Self messaging ---------------------------------------------------------
  void self_send(const std::shared_ptr<RequestState>& req);
  void self_activate_recv(const std::shared_ptr<RequestState>& req, int tag);
  void self_deliver(const std::shared_ptr<RequestState>& req, SelfMsg msg);

  void complete(const std::shared_ptr<RequestState>& req, int source,
                int tag, std::size_t bytes);
  /// Terminal error on a request. `errc`/`peer` classify it; when left at
  /// the defaults the ambient blame scope (set around callback-mediated
  /// failure paths like retry exhaustion) supplies the taxonomy instead.
  void fail(const std::shared_ptr<RequestState>& req, std::string why,
            MpiErrc errc = MpiErrc::Other, int peer = -1);
  /// ULFM posting guards: a p2p op on a revoked communicator, toward a
  /// known-dead rank or over an abandoned pair (its reconnect budget ran out
  /// on a wedged QP, here or at the peer) can never complete, so it is
  /// failed at once instead of being sequenced (no seq is ever burned on a
  /// doomed op). True if it was.
  bool born_failed(const std::shared_ptr<RequestState>& st);
  /// fail() and fail_schedule()'s shared classification: inherit the
  /// ambient blame when no taxonomy was given, append " [errc=… peer=…]"
  /// to `why`, and count PROC_FAILED operations.
  void classify_failure(std::string& why, MpiErrc& errc, int& peer);

  /// Scoped ambient blame (see blame_errc_/blame_peer_ below): opened around
  /// callback chains whose fail() calls cannot name the culprit themselves.
  struct BlameScope {
    Engine& e;
    MpiErrc saved_errc;
    int saved_peer;
    BlameScope(Engine& en, MpiErrc errc, int peer)
        : e(en), saved_errc(en.blame_errc_), saved_peer(en.blame_peer_) {
      en.blame_errc_ = errc;
      en.blame_peer_ = peer;
    }
    ~BlameScope() {
      e.blame_errc_ = saved_errc;
      e.blame_peer_ = saved_peer;
    }
  };

  // --- Blocking ----------------------------------------------------------------
  /// The one way a rank blocks: clear the wake flag, run `pass`, return once
  /// it reports done, and otherwise sleep on wake_ unless a wake arrived
  /// during the pass (level-triggered: virtual time passes inside a pass,
  /// and a wake that lands then must not be lost). A rank about to sleep
  /// first flushes its unreported credits (flush_credits), and re-checks
  /// the flag, because posting them takes time too. Every blocking call is
  /// a pass handed to it (dcfa_lint one-wait).
  template <class Pass>
  void block_until(Pass&& pass);
  /// Set the wake flag and wake a blocked pass: a CQE, a landing, a board
  /// change or recovery work that the next pass must see.
  void wake();

  // --- Rank-failure semantics (internals; docs/faults.md) --------------------
  /// Throw RankKilled once this rank's kill fate fired — checked at every
  /// blocking entry point and at the top of progress().
  void check_alive() const {
    if (dead_) throw RankKilled{};
  }
  /// Kill-timer body: record the death on the launcher registry, silence
  /// this rank's QPs, and arrange for the next engine entry to unwind.
  void die();
  /// Pull newly announced failures from the bootstrap failure board (in
  /// announce order) and fail every local operation depending on them.
  void adopt_failures();
  /// First-observer path: announce `peer` on the failure board, then adopt.
  /// `why` is a string literal, as for maybe_start_reconnect.
  void declare_failed(int peer, const char* why);
  /// Fail everything that depends on dead `peer`: fail_endpoint's set,
  /// deferred wildcard receives it could have satisfied, and collective
  /// schedules whose group contains it.
  void fail_peer_ops(int peer);
  /// Turn `ep` Failed and fail what rides on the pair: unacked and queued
  /// packets, rendezvous data ops, and posted sends/recvs on its channels,
  /// with taxonomy `errc`. `why` is a string literal.
  void fail_endpoint(Endpoint& ep, MpiErrc errc, const char* why);
  /// This side gives up on `ep` for good (reconnect budget spent on a
  /// wedged QP, rebuild impossible): the endpoint turns Failed and
  /// abandoned, and the peer learns through the bootstrap's abandoned-pair
  /// board. The caller fails the endpoint's operations.
  void mark_abandoned(Endpoint& ep);
  /// mark_abandoned, then fail the endpoint's remaining operations on the
  /// next progress pass (a caller may still hold a reference into the
  /// endpoint's records).
  void abandon_endpoint(Endpoint& ep, const char* why);
  /// Fail every pending operation on a revoked communicator.
  void poison_comm(std::uint32_t comm_id, const char* why);
  bool comm_contains(std::uint32_t comm_id, int rank) const;
  /// Does this rank expect traffic *from* ep.peer (posted recvs, deferred
  /// wildcards, an in-flight schedule containing the peer)? Liveness
  /// monitoring must cover receive dependencies, not only packets we owe.
  bool expecting_from(const Endpoint& ep) const;
  void flood_revoke(std::uint32_t comm_id);

  // --- Collective-schedule executor (engine.cpp) -----------------------------
  enum class PipeState { Busy, Done, Failed };
  /// Advance every outstanding schedule as far as its completed transfers
  /// allow; runs at the end of progress() (transfer completions land first).
  void advance_schedules();
  void advance_schedule(CollSchedule& s);
  /// Drive one pipelined stage: keep all outgoing segments posted, keep two
  /// incoming segments in flight (double-buffered scratch) ahead of the
  /// fold cursor, fold segments as they land.
  PipeState pipe_advance(CollSchedule& s, CollPipe& p);
  void run_coll_local(const CollLocal& l);
  void finish_schedule(CollSchedule& s);
  void fail_schedule(CollSchedule& s, std::string why,
                     MpiErrc errc = MpiErrc::Other, int peer = -1);
  /// Free parked scratch from failed schedules whose transfers have all
  /// reached a terminal phase (see CondemnedScratch).
  void reap_condemned();

  void poll_cq();
  /// DcfaCheck (full): after a progress pass, every endpoint outside
  /// active_ must have nothing for the next pass to do.
  void check_idle_endpoints();
  /// DcfaCheck hooks: the per-cluster invariant checker owned by the
  /// simulation engine (see src/sim/check.hpp and docs/checking.md).
  sim::Checker& chk();
  Endpoint& endpoint(int peer);
  Channel& channel(Endpoint& ep, std::uint32_t comm_id, int tag) {
    return ep.channels[{comm_id, tag}];
  }

  // --- Members ---------------------------------------------------------------
  int rank_;
  int nranks_;
  std::unique_ptr<verbs::Ib> ib_;
  core::PhiVerbs* phi_;  ///< non-null when running on DCFA Phi verbs
  sim::Telemetry& tel_;  ///< the cluster's trace/log sink
  Bootstrap& bootstrap_;
  Options options_;
  const sim::Platform& platform_;
  EndpointLayout layout_;

  ib::ProtectionDomain* pd_ = nullptr;
  ib::CompletionQueue* cq_ = nullptr;
  std::size_t write_observer_id_ = SIZE_MAX;
  std::unique_ptr<MrCache> mr_cache_;
  std::unique_ptr<OffloadShadowCache> shadow_cache_;

  std::map<int, Endpoint> endpoints_;
  /// The staging arena: local-write chunks that endpoints' local blocks are
  /// sliced from, each allocated and registered once (reg_endpoint).
  static constexpr std::size_t kArenaChunkBlocks = 8;  ///< end of doubling
  std::vector<Region> arena_;
  std::size_t arena_blocks_ = 0;  ///< blocks in all chunks
  std::size_t arena_free_ = 0;    ///< unclaimed blocks in arena_.back()
  std::size_t arena_held_ = 0;    ///< slices claimed and not given back
  /// Peers whose endpoint may have work: a landing on its remote block, a
  /// deferred emission, a reconnect rebuild, or a scan that stopped on a
  /// non-empty slot. progress() visits only these, in peer order.
  std::set<int> active_;
  /// Remote-block rkey of every endpoint -> its peer, so the HCA's landing
  /// callback marks exactly the endpoint a write hit. Entries leave with
  /// their MR's registration; unknown rkeys only wake the rank.
  std::unordered_map<ib::MKey, int> landing_peer_;
  std::map<std::pair<std::uint32_t, int>, SelfChannel> self_channels_;
  std::map<std::uint32_t, CommRecv> comm_recv_;
  std::map<std::uint64_t, std::function<void(const ib::Wc&)>> outstanding_;
  /// Host-packed send payloads awaiting completion (offload_datatypes).
  std::map<const RequestState*, core::OffloadRegion> packed_;
  std::uint64_t next_wr_id_ = 1;
  /// Collective schedules in flight (removed as they complete or fail).
  std::vector<std::shared_ptr<CollSchedule>> schedules_;
  /// Scratch owned by a failed schedule cannot be freed at failure time:
  /// transfers of the cancelled stage may still land in it. It is parked
  /// here with the still-pending request states and freed once every one
  /// is terminal — revoking the communicator (the ULFM recovery step)
  /// poisons all of them, so reclamation happens promptly in practice.
  struct CondemnedScratch {
    std::vector<mem::Buffer> bufs;
    std::vector<std::shared_ptr<RequestState>> waits;
  };
  std::vector<CondemnedScratch> condemned_;

  /// Arming flags, one per fault class in the spec. The rule: a flag guards
  /// only what changes allocation, scheduling, tracking or tracing — a
  /// check whose condition cannot hold while its fault class is unarmed
  /// (a dead peer, a foreign epoch, a stale ring index) runs unguarded.
  /// Unarmed classes therefore keep their event schedule bit-identical.
  sim::FaultInjector* faults_ = nullptr;
  /// Any fault armed: the credit cap, delivery tracking and
  /// retransmission, the idle credit flush, the fault counters in the
  /// trace.
  bool faults_armed_ = false;
  /// qp_fatal, delegate_crash or rank_kill armed: liveness probes and
  /// reconnects.
  bool fatal_armed_ = false;
  /// rank_kill armed: the kill timer, receive-side liveness (a silent
  /// sender with receives pending on it) and Failed as a terminal
  /// reconnect state.
  bool kill_armed_ = false;
  bool dead_ = false;  ///< this rank's kill fate fired
  /// First-touch wiring armed (Options::lazy_endpoints): endpoints_ holds
  /// only touched pairs, and endpoint() establishes on miss.
  bool lazy_ = false;
  /// Failed ranks this engine has adopted, and how far into the failure
  /// board it has read (board entries [0, known_fail_epoch_) are adopted).
  std::set<int> known_failed_;
  std::uint64_t known_fail_epoch_ = 0;
  /// World-rank membership per communicator (register_comm).
  std::map<std::uint32_t, std::vector<int>> comm_groups_;
  std::set<std::uint32_t> revoked_;
  /// Ambient blame for callback-mediated failures: while a failure scope is
  /// open (retry exhaustion toward a known peer, dead-peer purge), fail()
  /// calls that pass no explicit taxonomy inherit this one.
  MpiErrc blame_errc_ = MpiErrc::Other;
  int blame_peer_ = -1;
  bool tick_armed_ = false;  ///< a liveness tick is timed or queued
  std::uint64_t usable_slots_ = 0;  ///< slots(), possibly credit-capped
  /// Some endpoint consumed a packet without reporting it since the last
  /// idle flush (which walks the endpoints only when this is set).
  bool credit_unreported_ = false;
  /// Recovery work handed from timer events to the rank process (drained
  /// at the top of progress()).
  std::deque<std::function<void()>> pending_recovery_;
  /// Cleared by the destructor so late-firing timer events become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  sim::Condition wake_;
  /// Level-triggered wake flag (wake(), block_until).
  bool wake_pending_ = false;
  bool in_progress_ = false;  ///< re-entrancy guard
  Stats stats_;
  bool setup_done_ = false;
  bool finalized_ = false;
};

template <class Pass>
void Engine::block_until(Pass&& pass) {
  for (;;) {
    wake_pending_ = false;
    if (pass()) return;
    if (!wake_pending_) flush_credits();
    if (!wake_pending_) ib_->process().wait_on(wake_);
  }
}

}  // namespace dcfa::mpi
