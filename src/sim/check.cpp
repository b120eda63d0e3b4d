#include "sim/check.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace dcfa::sim {

const char* check_kind_name(CheckKind k) {
  switch (k) {
    case CheckKind::SeqRegression: return "seq-regression";
    case CheckKind::SeqGap: return "seq-gap";
    case CheckKind::CreditOverrun: return "credit-overrun";
    case CheckKind::CreditRegression: return "credit-regression";
    case CheckKind::DoubleCredit: return "double-credit";
    case CheckKind::MrUseAfterDereg: return "mr-use-after-dereg";
    case CheckKind::MrUnknownKey: return "mr-unknown-key";
    case CheckKind::MrOutOfBounds: return "mr-out-of-bounds";
    case CheckKind::StaleEpoch: return "stale-epoch";
    case CheckKind::EpochRegression: return "epoch-regression";
    case CheckKind::TagWindowAlias: return "tag-window-alias";
    case CheckKind::StageOrder: return "stage-order";
    case CheckKind::WireBounds: return "wire-bounds";
    case CheckKind::FailureReplay: return "failure-replay";
    case CheckKind::DeadRankTraffic: return "dead-rank-traffic";
    case CheckKind::RevokedUse: return "revoked-use";
    case CheckKind::RmaNoEpoch: return "rma-no-epoch";
    case CheckKind::RmaLockConflict: return "rma-lock-conflict";
    case CheckKind::RmaLockOrder: return "rma-lock-order";
    case CheckKind::RmaUnflushed: return "rma-unflushed";
    case CheckKind::RmaBounds: return "rma-bounds";
    case CheckKind::RaceRmaWindow: return "race-rma-window";
    case CheckKind::RaceBufferReuse: return "race-buffer-reuse";
    case CheckKind::RaceChannelCell: return "race-channel-cell";
    case CheckKind::ProgressMissedEndpoint: return "progress-missed-endpoint";
  }
  return "unknown";
}

CheckLevel Checker::parse_level(const std::string& s) {
  if (s == "off" || s == "0") return CheckLevel::Off;
  if (s == "cheap" || s.empty()) return CheckLevel::Cheap;
  if (s == "full") return CheckLevel::Full;
  throw std::invalid_argument("DCFA_CHECK: unknown level '" + s +
                              "' (expected off|cheap|full)");
}

CheckLevel Checker::level_from_env() {
  const char* v = std::getenv("DCFA_CHECK");
  if (!v) return CheckLevel::Cheap;
  return parse_level(v);
}

Checker::Checker(CheckLevel level) : level_(level) {}

void Checker::violate(CheckKind kind, const std::string& what) {
  ++violations_;
  std::ostringstream os;
  os << "DcfaCheck[" << check_kind_name(kind) << "] " << what;
  // Under an explored schedule every report names its own reproduction:
  // rerun with DCFA_SIM_SCHEDULE set to this token (scripts/race_explore.py
  // prints exactly this suffix).
  if (!schedule_token_.empty()) os << " [schedule=" << schedule_token_ << "]";
  throw CheckError(kind, os.str());
}

void Checker::wire_bounds_violation(const std::string& what) {
  throw CheckError(CheckKind::WireBounds, "DcfaCheck[wire-bounds] " + what);
}

// --- sequence ledgers -------------------------------------------------------

namespace {
std::string chan_str(const char* role, int rank, int peer, std::uint32_t comm,
                     int tag) {
  std::ostringstream os;
  os << role << " rank " << rank << " <-> peer " << peer << " comm " << comm
     << " tag " << tag;
  return os.str();
}
}  // namespace

// Sequence ids are 0-based per channel and must advance by exactly 1 per
// assignment/acceptance. The ledger stores the last seen id; map presence
// distinguishes "nothing yet" from "last was 0", keeping the first id
// strictly checked too.
void Checker::check_seq(Ledger<ChannelKey, std::uint64_t>& ledger,
                        const char* role, int rank, int peer,
                        std::uint32_t comm, int tag, std::uint64_t seq) {
  count();
  const ChannelKey key{rank, peer, comm, tag};
  auto it = ledger.find(key);
  const std::uint64_t expected = it == ledger.end() ? 0 : it->second + 1;
  if (seq < expected)
    violate(CheckKind::SeqRegression,
            std::string(role) + " seq " + std::to_string(seq) +
                " at/below ledger (expected " + std::to_string(expected) +
                ", " + chan_str(role, rank, peer, comm, tag) + ")");
  if (seq > expected)
    violate(CheckKind::SeqGap,
            std::string(role) + " seq skipped ahead to " +
                std::to_string(seq) + " (expected " +
                std::to_string(expected) + ", " +
                chan_str(role, rank, peer, comm, tag) + ")");
  if (it == ledger.end()) {
    ledger.emplace(key, seq);
  } else {
    it->second = seq;
  }
}

namespace {
// (comm, tag) folded to one word so a p2p edge key fits hb_key's arity.
std::uint64_t comm_tag(std::uint32_t comm, int tag) {
  return (static_cast<std::uint64_t>(comm) << 32) ^
         static_cast<std::uint32_t>(tag);
}
}  // namespace

void Checker::send_seq_assigned(int rank, int peer, std::uint32_t comm,
                                int tag, std::uint64_t seq) {
  if (!on()) return;
  check_seq(send_seq_, "send", rank, peer, comm, tag, seq);
  // HB edge source: everything the sender did before assigning this seq is
  // released to whichever receive admits it (packet_accepted/claimed).
  if (full()) hb_release(rank, hb_key(1, rank, peer, comm_tag(comm, tag), seq));
}

void Checker::recv_seq_assigned(int rank, int peer, std::uint32_t comm,
                                int tag, std::uint64_t seq) {
  if (!on()) return;
  check_seq(recv_seq_, "recv", rank, peer, comm, tag, seq);
}

void Checker::packet_accepted(int rank, int src, std::uint32_t comm, int tag,
                              std::uint64_t seq) {
  if (!on()) return;
  count();
  AcceptState& as = accepted_[{rank, src, comm, tag}];
  if (seq < as.next || as.claimed.count(seq) > 0)
    violate(CheckKind::SeqRegression,
            "accept seq " + std::to_string(seq) + " admitted twice (" +
                chan_str("accept", rank, src, comm, tag) + ")");
  // A hole below the arriving seq is only legal if every missing seq was
  // claimed by a receiver-first rendezvous (admitted out of arrival order).
  for (std::uint64_t s = as.next; s < seq; ++s) {
    if (as.claimed.erase(s) == 0)
      violate(CheckKind::SeqGap,
              "accept seq skipped ahead to " + std::to_string(seq) +
                  " but seq " + std::to_string(s) +
                  " never arrived nor was claimed (" +
                  chan_str("accept", rank, src, comm, tag) + ")");
  }
  as.next = seq + 1;
  while (as.claimed.erase(as.next) > 0) ++as.next;
  // HB edge sink: the admitting receiver acquires the sender's history at
  // seq assignment. Each seq is admitted exactly once (accept xor claim),
  // so the edge is consumed here.
  if (full())
    hb_acquire(rank, hb_key(1, src, rank, comm_tag(comm, tag), seq), true);
}

void Checker::packet_claimed(int rank, int src, std::uint32_t comm, int tag,
                             std::uint64_t seq) {
  if (!on()) return;
  count();
  AcceptState& as = accepted_[{rank, src, comm, tag}];
  if (seq < as.next || as.claimed.count(seq) > 0)
    violate(CheckKind::SeqRegression,
            "receiver-first claim of seq " + std::to_string(seq) +
                " which was already admitted (" +
                chan_str("claim", rank, src, comm, tag) + ")");
  as.claimed.insert(seq);
  while (as.claimed.erase(as.next) > 0) ++as.next;
  if (full())
    hb_acquire(rank, hb_key(1, src, rank, comm_tag(comm, tag), seq), true);
}

// --- credit accounting ------------------------------------------------------

void Checker::packet_emitted(int rank, int peer, std::uint64_t sent,
                             std::uint64_t in_flight, std::uint64_t cap) {
  if (!on()) return;
  count();
  CreditState& cs = credit_[{rank, peer}];
  if (cap != 0 && in_flight > cap)
    violate(CheckKind::CreditOverrun,
            "rank " + std::to_string(rank) + " -> " + std::to_string(peer) +
                ": " + std::to_string(in_flight) +
                " eager packets in flight but ring has only " +
                std::to_string(cap) + " slots");
  if (sent <= cs.emitted)
    violate(CheckKind::CreditRegression,
            "rank " + std::to_string(rank) + " -> " + std::to_string(peer) +
                ": sent counter moved " + std::to_string(cs.emitted) + " -> " +
                std::to_string(sent));
  cs.emitted = sent;
}

void Checker::packet_consumed(int rank, int peer, std::uint64_t consumed) {
  if (!on()) return;
  count();
  CreditState& cs = credit_[{rank, peer}];
  if (consumed != cs.consumed + 1)
    violate(CheckKind::DoubleCredit,
            "rank " + std::to_string(rank) + " consumed-counter from peer " +
                std::to_string(peer) + " moved " +
                std::to_string(cs.consumed) + " -> " +
                std::to_string(consumed) + " (must advance by exactly 1)");
  cs.consumed = consumed;
}

void Checker::credit_written(int rank, int peer, std::uint64_t value) {
  if (!on()) return;
  count();
  CreditState& cs = credit_[{rank, peer}];
  if (value <= cs.written && value != 0)
    violate(CheckKind::CreditRegression,
            "rank " + std::to_string(rank) + " re-wrote credit " +
                std::to_string(value) + " toward peer " +
                std::to_string(peer) + " (last written " +
                std::to_string(cs.written) + ")");
  if (value > cs.consumed)
    violate(CheckKind::DoubleCredit,
            "rank " + std::to_string(rank) + " wrote credit " +
                std::to_string(value) + " toward peer " +
                std::to_string(peer) + " but has only consumed " +
                std::to_string(cs.consumed) + " packets");
  cs.written = value;
}

void Checker::credit_piggybacked(int rank, int peer, std::uint32_t value) {
  if (!on()) return;
  count();
  CreditState& cs = credit_[{rank, peer}];
  // Widen against the consumed ledger, as the receiver widens against its
  // own counter.
  const std::int64_t full =
      static_cast<std::int64_t>(cs.consumed) +
      static_cast<std::int32_t>(value - static_cast<std::uint32_t>(cs.consumed));
  if (full > static_cast<std::int64_t>(cs.consumed))
    violate(CheckKind::DoubleCredit,
            "rank " + std::to_string(rank) + " piggybacked credit " +
                std::to_string(full) + " toward peer " + std::to_string(peer) +
                " but has only consumed " + std::to_string(cs.consumed) +
                " packets");
  if (full < static_cast<std::int64_t>(cs.piggybacked))
    violate(CheckKind::CreditRegression,
            "rank " + std::to_string(rank) + " piggybacked credit " +
                std::to_string(full) + " toward peer " + std::to_string(peer) +
                " below its previous " + std::to_string(cs.piggybacked));
  cs.piggybacked = static_cast<std::uint64_t>(full);
  cs.written = std::max(cs.written, cs.piggybacked);
}

void Checker::credit_read(int rank, int peer, std::uint64_t value) {
  if (!on()) return;
  count();
  CreditState& cs = credit_[{rank, peer}];
  if (value < cs.read)
    violate(CheckKind::CreditRegression,
            "rank " + std::to_string(rank) + " read credit " +
                std::to_string(value) + " from peer " + std::to_string(peer) +
                " below previous " + std::to_string(cs.read));
  if (value > cs.emitted)
    violate(CheckKind::DoubleCredit,
            "rank " + std::to_string(rank) + " read credit " +
                std::to_string(value) + " from peer " + std::to_string(peer) +
                " but only emitted " + std::to_string(cs.emitted) +
                " packets (peer acked packets that were never sent)");
  if (full()) {
    // Cross-rank: the value in our cell must be one the peer's credit
    // writer actually produced, i.e. no larger than the peer's last write
    // toward us. Only comparable while both directions sit in the same
    // connection epoch (reconnect resets both sides at different times).
    auto it = credit_.find({peer, rank});
    if (it != credit_.end() && it->second.epoch == cs.epoch &&
        value > it->second.written)
      violate(CheckKind::DoubleCredit,
              "rank " + std::to_string(rank) + " read credit " +
                  std::to_string(value) + " from peer " +
                  std::to_string(peer) + " but peer only wrote " +
                  std::to_string(it->second.written));
  }
  cs.read = value;
}

// --- MR lifecycle -----------------------------------------------------------

void Checker::mr_registered(const void* owner, std::uint64_t lkey,
                            std::uint64_t rkey, std::uint64_t addr,
                            std::uint64_t len) {
  if (!on()) return;
  count();
  mrs_[{owner, lkey}] = MrState{addr, len, true};
  mrs_[{owner, rkey}] = MrState{addr, len, true};
}

void Checker::mr_deregistered(const void* owner, std::uint64_t lkey,
                              std::uint64_t rkey) {
  if (!on()) return;
  count();
  auto kill = [this, owner](std::uint64_t key) {
    auto it = mrs_.find({owner, key});
    if (it != mrs_.end()) it->second.live = false;
  };
  kill(lkey);
  kill(rkey);
}

void Checker::mr_used(const void* owner, std::uint64_t key,
                      std::uint64_t addr, std::uint64_t len) {
  if (!on()) return;
  count();
  auto it = mrs_.find({owner, key});
  if (it == mrs_.end()) {
    // Key never registered with this checker. The HCA's own protection
    // checks report these as LocalProtectionError completions; unknown keys
    // also arise for MRs registered before the checker existed, so only
    // flag keys we have definitely seen die.
    return;
  }
  if (!it->second.live)
    violate(CheckKind::MrUseAfterDereg,
            "key " + std::to_string(key) + " used after dereg (window was [" +
                std::to_string(it->second.addr) + ", " +
                std::to_string(it->second.addr + it->second.len) + "))");
  if (full() && len != 0) {
    const MrState& mr = it->second;
    if (addr < mr.addr || addr + len > mr.addr + mr.len)
      violate(CheckKind::MrOutOfBounds,
              "key " + std::to_string(key) + " use [" + std::to_string(addr) +
                  ", " + std::to_string(addr + len) +
                  ") outside registered window [" + std::to_string(mr.addr) +
                  ", " + std::to_string(mr.addr + mr.len) + ")");
  }
}

// --- connection epochs ------------------------------------------------------

void Checker::epoch_advanced(int rank, int peer, std::uint32_t epoch) {
  if (!on()) return;
  count();
  std::uint32_t& cur = epoch_[{rank, peer}];
  if (epoch <= cur)
    violate(CheckKind::EpochRegression,
            "rank " + std::to_string(rank) + " -> peer " +
                std::to_string(peer) + ": epoch moved " +
                std::to_string(cur) + " -> " + std::to_string(epoch));
  cur = epoch;
  // Reconnect rebuilds the ring: the eager counters restart from zero on the
  // new connection. The send/recv/accept sequence ledgers survive — requests
  // are replayed with their original seqs and replay dedup keeps delivery
  // exactly-once, so those ledgers must stay monotonic across epochs.
  CreditState& cs = credit_[{rank, peer}];
  cs = CreditState{};
  cs.epoch = epoch;
}

void Checker::packet_epoch(int rank, int src, std::uint32_t pkt_epoch,
                           std::uint32_t ep_epoch) {
  if (!on()) return;
  count();
  if (pkt_epoch != ep_epoch)
    violate(CheckKind::StaleEpoch,
            "rank " + std::to_string(rank) + " admitted packet from " +
                std::to_string(src) + " carrying epoch " +
                std::to_string(pkt_epoch) + " while connection is at epoch " +
                std::to_string(ep_epoch));
}

// --- collective tag windows and schedule stages -----------------------------

std::uint64_t Checker::coll_started(int rank, std::uint32_t comm,
                                    int window_slot, std::size_t stages) {
  if (!on()) return 0;
  count();
  if (revoked_seen_.count({rank, comm}) > 0)
    violate(CheckKind::RevokedUse,
            "rank " + std::to_string(rank) +
                " started a collective schedule on revoked comm " +
                std::to_string(comm) +
                " (the engine must born-fail such requests)");
  if (window_slot >= 0) {
    auto key = std::make_tuple(rank, comm, window_slot);
    auto it = window_.find(key);
    if (it != window_.end())
      violate(CheckKind::TagWindowAlias,
              "rank " + std::to_string(rank) + " comm " +
                  std::to_string(comm) + ": tag-window slot " +
                  std::to_string(window_slot) +
                  " already occupied by a live schedule");
    colls_.push_back(CollState{rank, comm, window_slot, stages, 0, true});
    window_[key] = colls_.size();
  } else {
    colls_.push_back(CollState{rank, comm, window_slot, stages, 0, true});
  }
  return colls_.size();  // 1-based; 0 means "checker off"
}

void Checker::stage_started(std::uint64_t check_id, std::size_t stage) {
  if (!on() || check_id == 0) return;
  count();
  CollState& cs = colls_.at(check_id - 1);
  if (!cs.live)
    violate(CheckKind::StageOrder,
            "stage " + std::to_string(stage) +
                " started on a finished schedule (check id " +
                std::to_string(check_id) + ")");
  if (stage != cs.next_stage)
    violate(CheckKind::StageOrder,
            "schedule on rank " + std::to_string(cs.rank) + " started stage " +
                std::to_string(stage) + " but stage " +
                std::to_string(cs.next_stage) + " is next in DAG order");
  if (stage >= cs.stages)
    violate(CheckKind::StageOrder,
            "schedule on rank " + std::to_string(cs.rank) + " started stage " +
                std::to_string(stage) + " of " + std::to_string(cs.stages));
  cs.next_stage = stage + 1;
}

void Checker::coll_finished(std::uint64_t check_id) {
  if (!on() || check_id == 0) return;
  count();
  CollState& cs = colls_.at(check_id - 1);
  if (!cs.live)
    violate(CheckKind::StageOrder, "schedule finished twice (check id " +
                                       std::to_string(check_id) + ")");
  if (cs.next_stage != cs.stages)
    violate(CheckKind::StageOrder,
            "schedule on rank " + std::to_string(cs.rank) +
                " finished after stage " + std::to_string(cs.next_stage) +
                " of " + std::to_string(cs.stages));
  cs.live = false;
  window_.erase({cs.rank, cs.comm, cs.window_slot});
}

void Checker::coll_failed(std::uint64_t check_id) {
  if (!on() || check_id == 0) return;
  count();
  CollState& cs = colls_.at(check_id - 1);
  if (!cs.live) return;  // failing an already-finished schedule is a no-op
  cs.live = false;
  window_.erase({cs.rank, cs.comm, cs.window_slot});
}

// --- RMA windows: exposures, epoch machine, locks, flushes -------------------

namespace {
std::string win_str(int rank, std::uint64_t win) {
  std::ostringstream os;
  os << "rank " << rank << " win " << std::hex << win;
  return os.str();
}
}  // namespace

void Checker::rma_exposed(int rank, std::uint64_t id, std::uint64_t addr,
                          std::uint64_t len) {
  if (!on()) return;
  count();
  rma_exposures_[{rank, id}] = Exposure{addr, len};
}

void Checker::rma_unexposed(int rank, std::uint64_t id) {
  if (!on()) return;
  count();
  rma_exposures_.erase({rank, id});
}

void Checker::rma_remote_access(int rank, int target, std::uint64_t addr,
                                std::uint64_t len) {
  if (!full()) return;
  count();
  // The access must land wholly inside one region `target` exposed. This is
  // the remote-rkey path: the origin's own argument checks can be wrong (or
  // bypassed), so the bounds are re-derived from the target's ledger.
  auto it = rma_exposures_.lower_bound({target, 0});
  for (; it != rma_exposures_.end() && it->first.first == target; ++it) {
    const Exposure& e = it->second;
    if (addr >= e.addr && addr + len <= e.addr + e.len) return;
  }
  violate(CheckKind::RmaBounds,
          "rank " + std::to_string(rank) + " RMA access [" +
              std::to_string(addr) + ", " + std::to_string(addr + len) +
              ") is outside every region rank " + std::to_string(target) +
              " exposed");
}

void Checker::win_fence(int rank, std::uint64_t win) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (st.lock_all || !st.locks.empty())
    violate(CheckKind::RmaLockOrder,
            "fence on " + win_str(rank, win) +
                " while passive-target locks are held (sync modes must not "
                "mix within an epoch)");
  if (st.pending_total != 0)
    violate(CheckKind::RmaUnflushed,
            "fence on " + win_str(rank, win) + " closed with " +
                std::to_string(st.pending_total) +
                " ops still pending (the engine must quiesce first)");
  st.fence_open = true;
  st.pending.clear();
}

void Checker::win_lock(int rank, std::uint64_t win, int target,
                       bool exclusive) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (st.locks.count(target) > 0 || st.lock_all)
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) + ": lock(target " + std::to_string(target) +
                ") while already holding a lock there (double lock)");
  // Lock-compatibility matrix: shared|shared is the only concurrent pair.
  RmaLockHolders& h = rma_locks_[{win, target}];
  if (h.exclusive >= 0)
    violate(CheckKind::RmaLockConflict,
            win_str(rank, win) + ": lock(target " + std::to_string(target) +
                ") granted while rank " + std::to_string(h.exclusive) +
                " holds the exclusive lock");
  if (exclusive && !h.shared.empty())
    violate(CheckKind::RmaLockConflict,
            win_str(rank, win) + ": exclusive lock on target " +
                std::to_string(target) + " granted while " +
                std::to_string(h.shared.size()) + " shared lock(s) are held");
  if (exclusive)
    h.exclusive = rank;
  else
    h.shared.insert(rank);
  st.locks.insert(target);
  // Lock acquisition orders this origin after every previous unlock of the
  // same (win, target): the cumulative release chain below.
  if (full()) hb_acquire(rank, hb_key(2, win, target, 0, 0), false);
}

void Checker::win_unlock(int rank, std::uint64_t win, int target) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (st.locks.count(target) == 0)
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) + ": unlock(target " + std::to_string(target) +
                ") without holding a lock there");
  const std::uint64_t pending = st.pending.count(target) ? st.pending[target]
                                                         : 0;
  if (pending != 0)
    violate(CheckKind::RmaUnflushed,
            win_str(rank, win) + ": unlock(target " + std::to_string(target) +
                ") with " + std::to_string(pending) +
                " ops still pending (unlock implies flush)");
  st.locks.erase(target);
  RmaLockHolders& h = rma_locks_[{win, target}];
  if (h.exclusive == rank)
    h.exclusive = -1;
  else
    h.shared.erase(rank);
  // Unlock implies flush (checked above), so everything this origin did in
  // the epoch is visible to the next locker of (win, target).
  if (full()) hb_release(rank, hb_key(2, win, target, 0, 0));
}

void Checker::win_lock_all(int rank, std::uint64_t win, int nranks) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (st.lock_all || !st.locks.empty())
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) +
                ": lock_all while already inside a passive epoch");
  // lock_all is shared mode on every target: conflicts only with exclusive.
  for (int t = 0; t < nranks; ++t) {
    RmaLockHolders& h = rma_locks_[{win, t}];
    if (h.exclusive >= 0)
      violate(CheckKind::RmaLockConflict,
              win_str(rank, win) + ": lock_all granted while rank " +
                  std::to_string(h.exclusive) +
                  " holds the exclusive lock on target " + std::to_string(t));
    h.shared.insert(rank);
    if (full()) hb_acquire(rank, hb_key(2, win, t, 0, 0), false);
  }
  st.lock_all = true;
  st.lock_all_n = nranks;
}

void Checker::win_unlock_all(int rank, std::uint64_t win) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (!st.lock_all)
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) + ": unlock_all without lock_all");
  if (st.pending_total != 0)
    violate(CheckKind::RmaUnflushed,
            win_str(rank, win) + ": unlock_all with " +
                std::to_string(st.pending_total) +
                " ops still pending (unlock implies flush)");
  for (auto& [key, h] : rma_locks_) {
    if (key.first != win) continue;
    if (h.exclusive == rank) h.exclusive = -1;
    h.shared.erase(rank);
  }
  if (full()) {
    for (int t = 0; t < st.lock_all_n; ++t)
      hb_release(rank, hb_key(2, win, t, 0, 0));
  }
  st.lock_all = false;
  st.lock_all_n = 0;
  st.pending.clear();
}

void Checker::rma_op(int rank, std::uint64_t win, int target) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  const bool passive = st.lock_all || st.locks.count(target) > 0;
  if (!passive) {
    if (!st.locks.empty())
      violate(CheckKind::RmaNoEpoch,
              win_str(rank, win) + ": op toward target " +
                  std::to_string(target) +
                  " which is not covered by the held lock set");
    else if (!st.fence_open)
      violate(CheckKind::RmaNoEpoch,
              win_str(rank, win) + ": op toward target " +
                  std::to_string(target) +
                  " with no access epoch open (no fence, no lock)");
  }
  ++st.pending[target];
  ++st.pending_total;
}

void Checker::rma_completed(int rank, std::uint64_t win, int target) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  auto it = st.pending.find(target);
  if (it != st.pending.end() && it->second > 0) {
    --it->second;
    --st.pending_total;
  }
}

void Checker::rma_flushed(int rank, std::uint64_t win, int target) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (!st.lock_all && st.locks.count(target) == 0)
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) + ": flush(target " + std::to_string(target) +
                ") outside a passive-target epoch");
  const std::uint64_t pending = st.pending.count(target) ? st.pending[target]
                                                         : 0;
  if (pending != 0)
    violate(CheckKind::RmaUnflushed,
            win_str(rank, win) + ": flush(target " + std::to_string(target) +
                ") reported complete with " + std::to_string(pending) +
                " ops still pending (the engine must drain first)");
}

void Checker::win_freed(int rank, std::uint64_t win) {
  if (!on()) return;
  count();
  RmaEpochState& st = rma_state(rank, win);
  if (st.lock_all || !st.locks.empty())
    violate(CheckKind::RmaLockOrder,
            win_str(rank, win) + ": freed while passive-target locks are "
                                 "held");
  if (st.pending_total != 0)
    violate(CheckKind::RmaUnflushed,
            win_str(rank, win) + ": freed with " +
                std::to_string(st.pending_total) + " ops still pending");
  rma_state_.erase({rank, win});
}

// --- rank-failure / revocation ledgers --------------------------------------

void Checker::rank_failed(int rank, int failed) {
  if (!on()) return;
  count();
  if (rank == failed)
    violate(CheckKind::DeadRankTraffic,
            "rank " + std::to_string(rank) +
                " adopted its own failure (a dead rank must unwind, not "
                "observe itself)");
  if (!failures_seen_.insert({rank, failed}).second)
    violate(CheckKind::FailureReplay,
            "rank " + std::to_string(rank) + " adopted failure of rank " +
                std::to_string(failed) +
                " twice (fail-epoch cursor replayed)");
}

void Checker::comm_revoked(int rank, std::uint32_t comm) {
  if (!on()) return;
  count();
  if (!revoked_seen_.insert({rank, comm}).second)
    violate(CheckKind::FailureReplay,
            "rank " + std::to_string(rank) + " revoked comm " +
                std::to_string(comm) +
                " twice (revocation must be idempotent at the engine)");
}

void Checker::endpoint_idle(int rank, int peer, bool slot_empty,
                            bool tx_idle, bool credit_read) {
  if (!full()) return;
  count();
  if (slot_empty && tx_idle && credit_read) return;
  violate(CheckKind::ProgressMissedEndpoint,
          "rank " + std::to_string(rank) + " left endpoint " +
              std::to_string(peer) + " outside the active set with " +
              (!slot_empty ? "a packet at its consume cursor"
               : !tx_idle  ? "deferred emissions queued"
                           : "an unread credit"));
}

// --- DcfaRace: vector-clock happens-before engine ---------------------------
//
// Every rank carries a logical clock; sync events the runtime already reports
// become release/acquire pairs over keyed edges, and tracked memory accesses
// are checked for concurrent conflicting overlap. The edge catalog lives in
// docs/checking.md; the keys here only need to agree between the release and
// acquire sites, never with anything outside this file.

VClock& Checker::clock(int rank) {
  if (static_cast<std::size_t>(rank) >= clocks_.size())
    clocks_.resize(rank + 1);
  return clocks_[rank];
}

std::uint64_t Checker::hb_key(std::uint64_t tag, std::uint64_t a,
                              std::uint64_t b, std::uint64_t c,
                              std::uint64_t d) {
  std::uint64_t h = splitmix64(tag);
  h = splitmix64(h ^ a);
  h = splitmix64(h ^ b);
  h = splitmix64(h ^ c);
  h = splitmix64(h ^ d);
  return h;
}

void Checker::hb_release(int rank, std::uint64_t key) {
  VClock& c = clock(rank);
  c.tick(rank);
  hb_sync_[key].merge(c);
}

void Checker::hb_acquire(int rank, std::uint64_t key, bool consume) {
  VClock& c = clock(rank);
  auto it = hb_sync_.find(key);
  if (it != hb_sync_.end()) {
    c.merge(it->second);
    if (consume) hb_sync_.erase(it);
  }
  c.tick(rank);
}

void Checker::channel_posted(int rank, std::uint64_t cell, std::uint64_t n) {
  if (!full()) return;
  count();
  VClock& c = clock(rank);
  c.tick(rank);
  chan_sync_[{cell, n}].merge(c);
}

void Checker::channel_waited(int rank, std::uint64_t cell, std::uint64_t n) {
  if (!full()) return;
  count();
  VClock& c = clock(rank);
  // Arrival count >= n orders the waiter after every post numbered <= n.
  // Entries are retired as they are absorbed: arrival counts only grow, so
  // a later waiter (for a larger n) already holds this history through the
  // channel owner's own clock.
  auto it = chan_sync_.lower_bound({cell, 0});
  while (it != chan_sync_.end() && it->first.first == cell &&
         it->first.second <= n) {
    c.merge(it->second);
    it = chan_sync_.erase(it);
  }
  c.tick(rank);
}

void Checker::agree_voted(int rank, std::uint32_t comm, std::uint64_t seq) {
  if (!full()) return;
  count();
  hb_release(rank, hb_key(3, comm, seq, 0, 0));
}

void Checker::agree_decided(int rank, std::uint32_t comm, std::uint64_t seq) {
  if (!full()) return;
  count();
  // Every decider acquires every voter's history (agreement is a barrier);
  // the edge stays for later deciders of the same round.
  hb_acquire(rank, hb_key(3, comm, seq, 0, 0), false);
}

namespace {
const char* access_op_name(Checker::AccessOp op) {
  switch (op) {
    case Checker::AccessOp::Read: return "read";
    case Checker::AccessOp::Write: return "write";
    case Checker::AccessOp::Accum: return "accum";
  }
  return "unknown";
}
}  // namespace

bool Checker::race_conflicts(const RaceAccess& a, CheckKind kind, int owner,
                             int actor, std::uint64_t addr, std::uint64_t len,
                             AccessOp op) const {
  if (!(addr < a.addr + a.len && a.addr < addr + len)) return false;
  if (a.op == AccessOp::Read && op == AccessOp::Read) return false;
  // The runtime applies accumulates atomically per element, so two accums
  // commute; an accum against a plain read or write still conflicts.
  if (a.op == AccessOp::Accum && op == AccessOp::Accum) return false;
  // Same-origin RMA ops toward the same target ride one queue pair and the
  // fabric completes them in posting order — not a race even without an
  // explicit HB edge. Buffer-reuse accesses are local, no QP to serialize
  // them.
  const bool a_qp = a.kind != CheckKind::RaceBufferReuse;
  const bool b_qp = kind != CheckKind::RaceBufferReuse;
  if (a_qp && b_qp && a.actor == actor && a.owner == owner) return false;
  return true;
}

void Checker::report_race(const RaceAccess& prior, CheckKind kind, int owner,
                          int actor, std::uint64_t addr, std::uint64_t len,
                          AccessOp op, const char* site) {
  std::ostringstream os;
  os << site << " by rank " << actor << " (" << access_op_name(op) << " [0x"
     << std::hex << addr << ", 0x" << (addr + len) << std::dec
     << ") in rank " << owner << "'s memory) races with "
     << (prior.open ? "in-flight " : "unordered ") << prior.site
     << " by rank " << prior.actor << " (" << access_op_name(prior.op)
     << " [0x" << std::hex << prior.addr << ", 0x"
     << (prior.addr + prior.len) << std::dec
     << ")): no happens-before edge orders the accesses";
  violate(kind, os.str());
}

std::uint64_t Checker::race_begin(CheckKind kind, int owner, int actor,
                                  std::uint64_t addr, std::uint64_t len,
                                  AccessOp op, const char* site) {
  if (!full()) return 0;
  if (owner < 0 || actor < 0 || len == 0) return 0;
  count();
  auto& ids = race_by_owner_[owner];
  const VClock& bc = clock(actor);
  std::uint64_t replace = 0;
  for (std::uint64_t id : ids) {
    const RaceAccess& a = race_accesses_[id];
    if (!(addr < a.addr + a.len && a.addr < addr + len)) continue;
    // A closed same-shape access by the same actor is superseded: anything
    // that would race with it races with this newer access too (the close
    // time only grows along one actor's clock), so the slot is recycled.
    if (!a.open && a.kind == kind && a.actor == actor && a.op == op &&
        a.addr == addr && a.len == len)
      replace = id;
    if (!race_conflicts(a, kind, owner, actor, addr, len, op)) continue;
    if (a.open) report_race(a, kind, owner, actor, addr, len, op, site);
    // Closed conflicting access: ordered only if this actor has observed
    // the close (its clock holds the closer's component at/after close).
    if (bc.get(a.actor) < a.close_time)
      report_race(a, kind, owner, actor, addr, len, op, site);
  }
  if (replace != 0) {
    race_accesses_.erase(replace);
    for (auto it = ids.begin(); it != ids.end(); ++it) {
      if (*it == replace) {
        ids.erase(it);
        break;
      }
    }
  }
  const std::uint64_t id = ++race_next_id_;
  race_accesses_[id] =
      RaceAccess{kind, owner, actor, addr, len, op, true, 0, site};
  ids.push_back(id);
  prune_owner(ids);
  return id;
}

void Checker::race_end(std::uint64_t id) {
  if (id == 0 || !full()) return;
  auto it = race_accesses_.find(id);
  if (it == race_accesses_.end()) return;
  count();
  RaceAccess& a = it->second;
  if (!a.open) return;
  VClock& c = clock(a.actor);
  c.tick(a.actor);
  a.open = false;
  a.close_time = c.get(a.actor);
}

void Checker::prune_owner(std::vector<std::uint64_t>& ids) {
  if (ids.size() <= 64) return;
  // A closed access every clocked rank has observed can never race again;
  // ranks that have no clock yet would race with *anything*, so losing one
  // specific prior access to them costs little. Open accesses never leave.
  auto dominated = [this](const RaceAccess& a) {
    if (a.open) return false;
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      if (static_cast<int>(r) == a.actor || clocks_[r].empty()) continue;
      if (clocks_[r].get(a.actor) < a.close_time) return false;
    }
    return true;
  };
  for (auto it = ids.begin(); it != ids.end();) {
    const RaceAccess& a = race_accesses_[*it];
    if (dominated(a)) {
      race_accesses_.erase(*it);
      it = ids.erase(it);
    } else {
      ++it;
    }
  }
  // Backstop so one hot owner cannot grow without bound: oldest closed
  // entries fall off first (ids are allocated in access order).
  while (ids.size() > 512) {
    auto victim = ids.end();
    for (auto it = ids.begin(); it != ids.end(); ++it) {
      if (!race_accesses_[*it].open) {
        victim = it;
        break;
      }
    }
    if (victim == ids.end()) break;  // all open: nothing safe to drop
    race_accesses_.erase(*victim);
    ids.erase(victim);
  }
}

}  // namespace dcfa::sim
