#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/vclock.hpp"

namespace dcfa::sim {

/// How much work DcfaCheck does per protocol event.
///
///   Off   — every hook is a no-op (a level test and a return).
///   Cheap — O(1)/O(log n) local-ledger checks: sequence continuity, credit
///           monotonicity, MR liveness, epoch fences, tag-window occupancy,
///           schedule stage order.
///   Full  — Cheap plus cross-rank consistency: a credit value read by the
///           sender must be one the receiver actually wrote, and MR uses are
///           re-validated against the registered window bounds.
enum class CheckLevel { Off, Cheap, Full };

/// Violation classes DcfaCheck can report. One enum value per invariant
/// family so tests can assert on the *class* of a seeded bug, not on
/// message text.
enum class CheckKind {
  SeqRegression,   ///< a sequence id was assigned/accepted at or below the ledger
  SeqGap,          ///< a sequence id skipped ahead of the ledger
  CreditOverrun,   ///< more eager packets in flight than the ring has slots
  CreditRegression,///< a credit counter (written or read) moved backwards
  DoubleCredit,    ///< credit value inconsistent with the consumed ledger
  MrUseAfterDereg, ///< an lkey/rkey was used after dereg_mr released it
  MrUnknownKey,    ///< an lkey/rkey was used that was never registered
  MrOutOfBounds,   ///< an MR use fell outside the registered window (Full)
  StaleEpoch,      ///< a packet with a stale conn_epoch got past the fence
  EpochRegression, ///< a connection epoch moved backwards
  TagWindowAlias,  ///< two live schedules share one collective tag-window slot
  StageOrder,      ///< schedule stages ran out of order or finished early
  WireBounds,      ///< a wire-format copy overran its buffer
  FailureReplay,   ///< a rank adopted the same peer failure twice
  DeadRankTraffic, ///< a rank adopted a failure of / heard from itself dead
  RevokedUse,      ///< a collective started on a revoked communicator
  RmaNoEpoch,      ///< an RMA op was issued with no access epoch open
  RmaLockConflict, ///< a granted window lock conflicts with a held one
  RmaLockOrder,    ///< lock/unlock/fence sequencing broke the epoch machine
  RmaUnflushed,    ///< an epoch closed with RMA ops still un-flushed
  RmaBounds,       ///< a remote-rkey access escaped the target's exposures (Full)
  RaceRmaWindow,   ///< concurrent conflicting window accesses with no HB edge (Full)
  RaceBufferReuse, ///< a nonblocking op's buffer accessed while in flight (Full)
  RaceChannelCell, ///< concurrent conflicting channel cell writes (Full)
  ProgressMissedEndpoint, ///< progress left an endpoint with work unmarked (Full)
};

const char* check_kind_name(CheckKind k);

/// Thrown on the first invariant violation. Fail-fast: the simulation state
/// that produced the violation is still intact in the throwing thread, so a
/// debugger or the test harness sees the exact admitting event.
class CheckError : public std::runtime_error {
 public:
  CheckError(CheckKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  CheckKind kind() const { return kind_; }

 private:
  CheckKind kind_;
};

/// Runtime protocol-invariant checker ("DcfaCheck").
///
/// One Checker is owned by each sim::Engine and shared by every rank in that
/// cluster. All hooks run while their caller holds the simulation run token
/// (exactly one process executes at a time), so the shadow state needs no
/// locking and stays deterministic.
///
/// The checker deliberately speaks in plain integers (ranks, keys, tags,
/// sequence numbers) so the sim layer keeps zero knowledge of the mpi/ib
/// types that call into it.
class Checker {
 public:
  /// Parse a DCFA_CHECK value; throws std::invalid_argument on junk.
  static CheckLevel parse_level(const std::string& s);
  /// Level from the DCFA_CHECK environment variable. Unset means Cheap:
  /// checking is on by default and tests inherit it without opting in.
  static CheckLevel level_from_env();

  explicit Checker(CheckLevel level);

  CheckLevel level() const { return level_; }
  bool on() const { return level_ != CheckLevel::Off; }
  bool full() const { return level_ == CheckLevel::Full; }

  /// Number of invariant evaluations performed (for "the checker actually
  /// ran" assertions in tests).
  std::uint64_t events() const { return events_; }
  /// Number of violations raised. The first one throws, so this is 0 or 1
  /// unless a test swallows CheckError and keeps driving.
  std::uint64_t violations() const { return violations_; }

  /// Replay token of the schedule this cluster runs under (empty under Fifo
  /// ordering). When set, every violation report carries a
  /// " [schedule=<token>]" suffix so a failure found by exploration ships
  /// its own reproduction recipe.
  void set_schedule_token(std::string token) {
    schedule_token_ = std::move(token);
  }
  const std::string& schedule_token() const { return schedule_token_; }

  // --- per-(rank, peer, comm, tag) sequence ledgers ---------------------

  /// A send-side sequence id was assigned on `rank`'s channel to `peer`.
  void send_seq_assigned(int rank, int peer, std::uint32_t comm, int tag,
                         std::uint64_t seq);
  /// A receive got bound to an expected sequence id on `rank`'s channel
  /// from `peer` (posted-before-arrival or deferred-queue assignment).
  void recv_seq_assigned(int rank, int peer, std::uint32_t comm, int tag,
                         std::uint64_t seq);
  /// `rank` accepted a data-bearing packet (eager or RTS) from `src` after
  /// duplicate filtering. Ring order equals send order, so accepted seqs
  /// advance a per-channel watermark; a hole is only legal if the missing
  /// seq was claimed by a receiver-first rendezvous (packet_claimed), whose
  /// data arrives by RDMA write instead of a ring packet.
  void packet_accepted(int rank, int src, std::uint32_t comm, int tag,
                       std::uint64_t seq);
  /// `rank` claimed `seq` on the channel from `src` for a receiver-first
  /// rendezvous (RTR sent): the seq is admitted out of arrival order, ahead
  /// of ring packets still in flight. Claims must be unique per channel.
  void packet_claimed(int rank, int src, std::uint32_t comm, int tag,
                      std::uint64_t seq);

  // --- eager ring credit accounting -------------------------------------

  /// `rank` emitted eager packet number `sent` (post-increment value) to
  /// `peer` with `in_flight` packets outstanding against `cap` ring slots.
  void packet_emitted(int rank, int peer, std::uint64_t sent,
                      std::uint64_t in_flight, std::uint64_t cap);
  /// `rank` consumed a ring slot from `peer`; `consumed` is the new total.
  void packet_consumed(int rank, int peer, std::uint64_t consumed);
  /// `rank` wrote credit `value` toward `peer` (RDMA into peer's cell).
  void credit_written(int rank, int peer, std::uint64_t value);
  /// `rank` stamped the low 32 bits of its consumption counter for `peer`
  /// into an outgoing packet header: a credit written toward the peer. The
  /// value never exceeds the consumption and never goes backwards modulo
  /// 2^32.
  void credit_piggybacked(int rank, int peer, std::uint32_t value);
  /// `rank` read credit `value` from its local cell for `peer`.
  void credit_read(int rank, int peer, std::uint64_t value);

  // --- MR lifecycle ------------------------------------------------------

  /// `owner` namespaces the key: each ib::Hca allocates lkeys from its own
  /// counter, so the same numeric key names different MRs on different
  /// ranks of a cluster. Callers pass the MR's protection domain (available
  /// at registration, dereg, post, and cache-hit time alike).
  void mr_registered(const void* owner, std::uint64_t lkey,
                     std::uint64_t rkey, std::uint64_t addr,
                     std::uint64_t len);
  void mr_deregistered(const void* owner, std::uint64_t lkey,
                       std::uint64_t rkey);
  /// A work request referenced `key` (an lkey or rkey) over
  /// [addr, addr+len). len == 0 skips the bounds check.
  void mr_used(const void* owner, std::uint64_t key, std::uint64_t addr,
               std::uint64_t len);

  // --- connection epochs --------------------------------------------------

  /// `rank`'s connection to `peer` moved to `epoch` (reconnect completed).
  /// Also resets the credit/sequence ledgers for that direction: the ring
  /// restarts from zero on the new connection.
  void epoch_advanced(int rank, int peer, std::uint32_t epoch);
  /// `rank` admitted a packet from `src` carrying `pkt_epoch` while the
  /// endpoint is at `ep_epoch`. The receive fence must have filtered any
  /// mismatch before this point.
  void packet_epoch(int rank, int src, std::uint32_t pkt_epoch,
                    std::uint32_t ep_epoch);

  // --- collective tag windows and schedule stages -------------------------

  /// A collective schedule started on `rank`/`comm` occupying tag-window
  /// slot `window_slot` with `stages` total stages. Returns a checker id
  /// for the later stage/finish hooks.
  std::uint64_t coll_started(int rank, std::uint32_t comm, int window_slot,
                             std::size_t stages);
  void stage_started(std::uint64_t check_id, std::size_t stage);
  void coll_finished(std::uint64_t check_id);
  /// Schedule abandoned by fault handling: releases the window slot without
  /// requiring all stages to have run.
  void coll_failed(std::uint64_t check_id);

  // --- rank-failure / revocation ledgers ----------------------------------

  /// `rank` adopted the failure of `failed` into its local failure set.
  /// Each (rank, failed) adoption must happen at most once (the fail-epoch
  /// cursor makes replays a bug), and a rank must never blame itself.
  void rank_failed(int rank, int failed);
  /// `rank` marked communicator `comm` revoked. Idempotent at the engine
  /// level, so the checker too sees each (rank, comm) pair at most once.
  void comm_revoked(int rank, std::uint32_t comm);

  // --- progress coverage (Full only) ---------------------------------------

  /// End of a progress pass on `rank`: its endpoint to `peer` is outside the
  /// active set, so the next pass will not visit it. That is only sound if
  /// the slot at its consume cursor is empty, no emission is deferred and
  /// no credit is unread — anything else is work progress() missed.
  void endpoint_idle(int rank, int peer, bool slot_empty, bool tx_idle,
                     bool credit_read);

  // --- RMA windows: exposure registry, epoch machine, locks, flushes -------
  //
  // Shadow ledgers for the one-sided subsystem (docs/rma.md). Exposures are
  // the remote-rkey side: every region a rank advertises for RMA (window or
  // persistent channel) registers here, and at Full every remote access is
  // re-validated against the *target's* exposure set — the cross-rank bounds
  // check the origin-side argument validation cannot substitute for. The
  // epoch machine audits, per (origin rank, window): fence/lock mode
  // exclusivity, lock compatibility across origins, and flush ordering
  // (no epoch may close while ops are still pending).

  /// `rank` exposed [addr, addr+len) for remote one-sided access under
  /// rank-local exposure id `id`.
  void rma_exposed(int rank, std::uint64_t id, std::uint64_t addr,
                   std::uint64_t len);
  void rma_unexposed(int rank, std::uint64_t id);
  /// Origin `rank` posted a remote access (RDMA write/read) hitting
  /// [addr, addr+len) in `target`'s memory. Full re-validates containment
  /// in one of the target's live exposures.
  void rma_remote_access(int rank, int target, std::uint64_t addr,
                         std::uint64_t len);

  /// `rank` completed a fence on window `win` (called after quiescing, so
  /// no op may still be pending). Opens/continues the fence epoch; illegal
  /// while passive-target locks are held.
  void win_fence(int rank, std::uint64_t win);
  /// `rank` was *granted* a shared/exclusive lock on `target`'s side of
  /// `win`. Checks the lock-compatibility matrix against every holder.
  void win_lock(int rank, std::uint64_t win, int target, bool exclusive);
  void win_unlock(int rank, std::uint64_t win, int target);
  /// lock_all is shared-mode on every target (MPI semantics).
  void win_lock_all(int rank, std::uint64_t win, int nranks);
  void win_unlock_all(int rank, std::uint64_t win);
  /// `rank` issued put/get/accumulate on `win` toward `target`: requires an
  /// open access epoch covering that target, and counts as pending until
  /// rma_completed.
  void rma_op(int rank, std::uint64_t win, int target);
  void rma_completed(int rank, std::uint64_t win, int target);
  /// `rank` finished a flush toward `target` (engine must have drained
  /// first): requires a passive epoch on that target and zero pending ops.
  void rma_flushed(int rank, std::uint64_t win, int target);
  /// Window freed: every epoch must be closed and every op flushed.
  void win_freed(int rank, std::uint64_t win);

  // --- DcfaRace: happens-before race detection (Full only) -----------------
  //
  // A vector-clock engine derives happens-before edges from the sync events
  // the runtime already reports (matched send/recv pairs, RMA lock handoffs,
  // channel doorbell arrivals, agreement decisions) and checks *tracked
  // accesses* — window targets, in-flight nonblocking buffers, channel
  // payload cells — for concurrent conflicting access. docs/checking.md has
  // the full edge table. Every hook below is a no-op unless full().

  /// How a tracked access touches its range. Accum is read-modify-write
  /// that the runtime promises to apply atomically per element, so
  /// Accum/Accum pairs never conflict while Accum/Read and Accum/Write do.
  enum class AccessOp { Read, Write, Accum };

  /// Open a tracked access: `actor` begins op on [addr, addr+len) in
  /// `owner`'s address space (owner == actor for local buffers). Checks the
  /// new access against every tracked access to an overlapping range and
  /// raises `kind` if one conflicts without a happens-before edge.
  /// `site` is a static description used in the report ("put", "isend
  /// buffer", ...). Returns an id for race_end, 0 when not tracking.
  std::uint64_t race_begin(CheckKind kind, int owner, int actor,
                           std::uint64_t addr, std::uint64_t len, AccessOp op,
                           const char* site);
  /// Close a tracked access: the operation completed locally at `actor`, so
  /// later accesses that observe this completion (via any HB edge) are
  /// ordered after it.
  void race_end(std::uint64_t id);

  /// `rank` published channel-post number `n` (doorbell write toward cell
  /// `cell`): releases everything `rank` did so far to whoever waits for
  /// arrival `n` or later on that cell.
  void channel_posted(int rank, std::uint64_t cell, std::uint64_t n);
  /// `rank` observed arrival count >= `n` on cell `cell`: acquires the
  /// posting side's history up to post `n`.
  void channel_waited(int rank, std::uint64_t cell, std::uint64_t n);

  /// `rank` contributed its vote to agreement round `seq` on `comm`.
  void agree_voted(int rank, std::uint32_t comm, std::uint64_t seq);
  /// `rank` observed the decision of agreement round `seq` on `comm`:
  /// acquires every voter's history (agreement is a full barrier).
  void agree_decided(int rank, std::uint32_t comm, std::uint64_t seq);

  // --- wire-format helpers ------------------------------------------------

  /// Raise a WireBounds violation (used by mpi/wire.hpp when a packed copy
  /// would overrun its buffer). Always fatal regardless of level: a wire
  /// overrun is memory corruption, not a protocol anomaly.
  [[noreturn]] static void wire_bounds_violation(const std::string& what);

 private:
  struct ChannelKey {
    int rank;
    int peer;
    std::uint32_t comm;
    int tag;
    bool operator==(const ChannelKey&) const = default;
  };
  struct PairKey {
    int rank;
    int peer;
    bool operator==(const PairKey&) const = default;
  };
  using MrKey = std::pair<const void*, std::uint64_t>;  // (owner PD, key)
  struct LedgerHash {
    static std::uint64_t pack(int hi, int lo) {
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32 |
             static_cast<std::uint32_t>(lo);
    }
    std::size_t operator()(const ChannelKey& k) const {
      return splitmix64(pack(k.rank, k.peer) ^
                        splitmix64(static_cast<std::uint64_t>(k.comm) << 32 |
                                   static_cast<std::uint32_t>(k.tag)));
    }
    std::size_t operator()(const PairKey& k) const {
      return splitmix64(pack(k.rank, k.peer));
    }
    std::size_t operator()(const MrKey& k) const {
      return splitmix64(reinterpret_cast<std::uintptr_t>(k.first) ^
                        splitmix64(k.second));
    }
  };
  template <class K, class V>
  using Ledger = std::unordered_map<K, V, LedgerHash>;
  struct CreditState {
    std::uint64_t consumed = 0;        // packets this rank consumed from peer
    std::uint64_t written = 0;         // last credit value written to peer
    std::uint64_t piggybacked = 0;     // last credit value stamped in a header
    std::uint64_t read = 0;            // last credit value read for peer
    std::uint64_t emitted = 0;         // packets emitted toward peer
    std::uint32_t epoch = 0;           // connection epoch these ledgers track
  };
  struct MrState {
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    bool live = false;
  };
  struct CollState {
    int rank = -1;
    std::uint32_t comm = 0;
    int window_slot = -1;
    std::size_t stages = 0;
    std::size_t next_stage = 0;
    bool live = false;
  };

  [[noreturn]] void violate(CheckKind kind, const std::string& what);
  void count() { ++events_; }
  void check_seq(Ledger<ChannelKey, std::uint64_t>& ledger,
                 const char* role, int rank, int peer, std::uint32_t comm,
                 int tag, std::uint64_t seq);

  // --- happens-before engine (Full only) ----------------------------------
  struct RaceAccess {
    CheckKind kind = CheckKind::RaceRmaWindow;
    int owner = -1;             // rank whose memory holds the range
    int actor = -1;             // rank performing the access
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    AccessOp op = AccessOp::Read;
    bool open = true;
    std::uint64_t close_time = 0;  // actor's own clock component at close
    const char* site = "";
  };
  VClock& clock(int rank);
  /// rank's clock ticks, then its history merges into the edge named `key`.
  void hb_release(int rank, std::uint64_t key);
  /// The edge named `key` merges into rank's clock (erased if `consume`).
  void hb_acquire(int rank, std::uint64_t key, bool consume);
  static std::uint64_t hb_key(std::uint64_t tag, std::uint64_t a,
                              std::uint64_t b, std::uint64_t c,
                              std::uint64_t d);
  bool race_conflicts(const RaceAccess& a, CheckKind kind, int owner,
                      int actor, std::uint64_t addr, std::uint64_t len,
                      AccessOp op) const;
  [[noreturn]] void report_race(const RaceAccess& prior, CheckKind kind,
                                int owner, int actor, std::uint64_t addr,
                                std::uint64_t len, AccessOp op,
                                const char* site);
  void prune_owner(std::vector<std::uint64_t>& ids);

  CheckLevel level_;
  std::uint64_t events_ = 0;
  std::uint64_t violations_ = 0;
  std::string schedule_token_;

  // Receiver-side admission: `next` is the contiguous watermark (everything
  // below it was admitted); `claimed` holds receiver-first seqs admitted
  // ahead of the watermark, absorbed as the ring catches up.
  struct AcceptState {
    std::uint64_t next = 0;
    std::set<std::uint64_t> claimed;
  };

  // The ledgers the per-packet and per-WR hooks probe are hashed and
  // find-only: nothing iterates them, so their (address-dependent) order
  // never reaches a report, a counter or any other event-visible state.
  Ledger<ChannelKey, std::uint64_t> send_seq_;  // last assigned send seq
  Ledger<ChannelKey, std::uint64_t> recv_seq_;  // last assigned recv seq
  Ledger<ChannelKey, AcceptState> accepted_;
  Ledger<PairKey, CreditState> credit_;
  Ledger<PairKey, std::uint32_t> epoch_;
  // Keyed by (protection domain, key): key counters are per-Hca, so the
  // same numeric key legitimately recurs across ranks. Within one PD keys
  // are monotonic and never reused (ib::Hca hands out next_key_++), so a
  // dead key stays in the map forever as a tombstone.
  Ledger<MrKey, MrState> mrs_;
  // (rank, comm, slot) -> check_id; ranks share the checker but each has
  // its own independent copy of the rotating window.
  std::map<std::tuple<int, std::uint32_t, int>, std::uint64_t> window_;
  std::vector<CollState> colls_;
  std::set<std::pair<int, int>> failures_seen_;           // (rank, failed)
  std::set<std::pair<int, std::uint32_t>> revoked_seen_;  // (rank, comm)

  // --- RMA shadow state -----------------------------------------------------
  struct Exposure {
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
  };
  struct RmaEpochState {
    bool fence_open = false;   // a fence ran; fence-mode ops are legal
    bool lock_all = false;
    int lock_all_n = 0;        // targets covered by the open lock_all epoch
    std::set<int> locks;       // targets this origin holds a lock on
    std::map<int, std::uint64_t> pending;  // un-flushed ops per target
    std::uint64_t pending_total = 0;
  };
  struct RmaLockHolders {
    int exclusive = -1;        // origin holding the exclusive lock, or -1
    std::set<int> shared;      // origins holding shared locks
  };
  RmaEpochState& rma_state(int rank, std::uint64_t win) {
    return rma_state_[{rank, win}];
  }

  // (rank, exposure id) -> region; bounds lookups scan one rank's exposures.
  std::map<std::pair<int, std::uint64_t>, Exposure> rma_exposures_;
  std::map<std::pair<int, std::uint64_t>, RmaEpochState> rma_state_;
  std::map<std::pair<std::uint64_t, int>, RmaLockHolders> rma_locks_;

  // --- happens-before / race-ledger state (populated only at Full) ---------
  std::vector<VClock> clocks_;                  // one logical clock per rank
  std::map<std::uint64_t, VClock> hb_sync_;     // keyed release/acquire edges
  // Channel doorbell edges: (cell address, post index) -> releasing clock.
  // A waiter for arrival n acquires (and retires) every entry <= n.
  std::map<std::pair<std::uint64_t, std::uint64_t>, VClock> chan_sync_;
  std::map<std::uint64_t, RaceAccess> race_accesses_;       // id -> access
  std::map<int, std::vector<std::uint64_t>> race_by_owner_; // owner -> ids
  std::uint64_t race_next_id_ = 0;
};

}  // namespace dcfa::sim
