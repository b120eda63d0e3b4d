#include "mpi/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>

#include "mpi/wire.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace dcfa::mpi {

namespace {

// Live-engine registry for the deadline watchdog (tests/watchdog.cpp): the
// watchdog thread calls Engine::dump_all from outside the simulation when a
// run hangs past its deadline, just before aborting. The mutex only guards
// the set itself; the dumped fields are read unsynchronised (best-effort —
// the process is about to abort).
std::mutex g_engines_mu;
std::set<Engine*>& live_engines() {
  static std::set<Engine*> s;
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

void Bootstrap::publish(int from, int to, std::uint32_t epoch,
                        PeerInfo info) {
  peers_[{from, to, epoch}] = info;
  poke(to);
}

const Bootstrap::PeerInfo* Bootstrap::try_get(int from, int to,
                                              std::uint32_t epoch) const {
  auto it = peers_.find({from, to, epoch});
  return it == peers_.end() ? nullptr : &it->second;
}

void Bootstrap::request(int from, int to, std::uint32_t epoch) {
  requests_[to].push_back({from, epoch});
  poke(to);
}

std::vector<Bootstrap::PairRequest> Bootstrap::take_requests(
    int rank, const std::function<bool(const PairRequest&)>& ready) {
  auto it = requests_.find(rank);
  if (it == requests_.end()) return {};
  std::vector<PairRequest> out;
  std::erase_if(it->second, [&](const PairRequest& r) {
    if (!ready(r)) return false;
    out.push_back(r);
    return true;
  });
  if (it->second.empty()) requests_.erase(it);
  return out;
}

void Bootstrap::abandon_pair(int from, int to) {
  if (abandoned_.insert({from, to}).second) request(from, to, 0);
}

bool Bootstrap::pair_abandoned(int from, int to) const {
  return abandoned_.count({from, to}) != 0;
}

void Bootstrap::set_watch(int rank, std::function<void()> fn) {
  if (fn) {
    watches_[rank] = std::move(fn);
  } else {
    watches_.erase(rank);
  }
}

void Bootstrap::poke(int rank) {
  auto it = watches_.find(rank);
  if (it != watches_.end()) it->second();
}

void Bootstrap::notify() {
  // Wake every registered rank: one blocked in its own engine's wait loop
  // has no reason to look at the bootstrap unless told to.
  for (auto& [r, fn] : watches_) fn();
}

void Bootstrap::mark_dead(int rank, sim::Time when) {
  if (dead_.count(rank) > 0) return;
  dead_[rank] = when;
  notify();
}

bool Bootstrap::is_dead(int rank) const { return dead_.count(rank) > 0; }

sim::Time Bootstrap::death_time(int rank) const {
  auto it = dead_.find(rank);
  return it == dead_.end() ? sim::Time{-1} : it->second;
}

void Bootstrap::announce_failure(int rank) {
  if (!announced_.insert(rank).second) return;
  failed_order_.push_back(rank);
  notify();
}

std::uint64_t Bootstrap::fail_epoch() const { return failed_order_.size(); }

int Bootstrap::failed_at(std::size_t i) const { return failed_order_.at(i); }

void Bootstrap::post_vote(std::uint32_t comm, std::uint64_t seq, int rank,
                          std::uint64_t value, int coordinator) {
  votes_[{comm, seq, rank}] = value;
  poke(coordinator);
}

const std::uint64_t* Bootstrap::get_vote(std::uint32_t comm,
                                         std::uint64_t seq, int rank) const {
  auto it = votes_.find({comm, seq, rank});
  return it == votes_.end() ? nullptr : &it->second;
}

void Bootstrap::post_decision(std::uint32_t comm, std::uint64_t seq,
                              std::uint64_t value) {
  if (decisions_.count({comm, seq}) > 0) return;  // first decision wins
  decisions_[{comm, seq}] = value;
  notify();
}

const std::uint64_t* Bootstrap::get_decision(std::uint32_t comm,
                                             std::uint64_t seq) const {
  auto it = decisions_.find({comm, seq});
  return it == decisions_.end() ? nullptr : &it->second;
}

bool Bootstrap::rma_try_lock(std::uint64_t win, int target, int origin,
                             bool exclusive) {
  RmaLockSlot& slot = rma_locks_[{win, target}];
  if (slot.exclusive == origin || slot.shared.count(origin) > 0) {
    return true;  // already held (re-grant is idempotent)
  }
  if (slot.exclusive >= 0) return false;
  if (exclusive) {
    if (!slot.shared.empty()) return false;
    slot.exclusive = origin;
  } else {
    slot.shared.insert(origin);
  }
  return true;
}

void Bootstrap::rma_unlock(std::uint64_t win, int target, int origin) {
  auto it = rma_locks_.find({win, target});
  if (it == rma_locks_.end()) return;
  RmaLockSlot& slot = it->second;
  if (slot.exclusive == origin) slot.exclusive = -1;
  slot.shared.erase(origin);
  if (slot.exclusive < 0 && slot.shared.empty()) rma_locks_.erase(it);
  notify();
}

void Bootstrap::rma_release_rank(int origin) {
  bool changed = false;
  for (auto it = rma_locks_.begin(); it != rma_locks_.end();) {
    RmaLockSlot& slot = it->second;
    if (slot.exclusive == origin) {
      slot.exclusive = -1;
      changed = true;
    }
    changed |= slot.shared.erase(origin) > 0;
    if (slot.exclusive < 0 && slot.shared.empty()) {
      it = rma_locks_.erase(it);
    } else {
      ++it;
    }
  }
  if (changed) notify();
}

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

Engine::Engine(int rank, int nranks, std::unique_ptr<verbs::Ib> ib,
               Bootstrap& bootstrap, Options options)
    : rank_(rank),
      nranks_(nranks),
      ib_(std::move(ib)),
      phi_(dynamic_cast<core::PhiVerbs*>(ib_.get())),
      tel_(ib_->process().engine().telemetry()),
      bootstrap_(bootstrap),
      options_(options),
      platform_(ib_->hca_ref().platform()),
      layout_{std::max<std::uint64_t>(platform_.eager_max_payload,
                                      platform_.eager_threshold),
              platform_.eager_slots},
      wake_(ib_->process().engine(), "mpi.wake[" + std::to_string(rank) + "]") {
  if (rank < 0 || nranks <= 0 || rank >= nranks) {
    throw MpiError("Engine: bad rank/size");
  }
  if (platform_.coll_segment_bytes == 0) {
    throw MpiError("coll_segment_bytes must be positive");
  }
  faults_ = ib_->faults();
  faults_armed_ = faults_ != nullptr && faults_->armed();
  fatal_armed_ = faults_ != nullptr && faults_->spec().fatal_armed();
  kill_armed_ = faults_ != nullptr && !faults_->spec().rank_kill.empty();
  lazy_ = options.lazy_endpoints;
  usable_slots_ = faults_armed_
                      ? static_cast<std::uint64_t>(faults_->credit_cap(slots()))
                      : static_cast<std::uint64_t>(slots());
  if (!phi_) {
    // The delegations only exist on co-processor endpoints.
    options_.offload_reductions = false;
    options_.offload_datatypes = false;
  }
  {
    std::lock_guard<std::mutex> lock(g_engines_mu);
    live_engines().insert(this);
  }
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(g_engines_mu);
    live_engines().erase(this);
  }
  // The HCA and CQ outlive this engine (they belong to the cluster): tear
  // the wake-up callbacks out so a packet landing after an early death
  // (e.g. a rank body that threw) cannot call into freed memory. Retry
  // timers still queued in the simulator are defused the same way.
  *alive_ = false;
  bootstrap_.set_watch(rank_, {});
  if (cq_) cq_->set_on_push({});
  if (write_observer_id_ != SIZE_MAX) {
    ib_->hca_ref().remove_remote_write_observer(write_observer_id_);
  }
}

void Engine::wake() {
  wake_pending_ = true;
  wake_.notify_all();
}

void Engine::setup() {
  if (setup_done_) throw MpiError("Engine::setup called twice");
  pd_ = ib_->alloc_pd();
  cq_ = ib_->create_cq(4096);
  cq_->set_on_push([this] { wake(); });
  write_observer_id_ =
      ib_->hca_ref().add_remote_write_observer([this](ib::MKey rkey) {
        // Every landing wakes the rank; one on an endpoint's remote block
        // also marks that endpoint for the next progress pass.
        auto it = landing_peer_.find(rkey);
        if (it != landing_peer_.end()) active_.insert(it->second);
        wake();
      });

  mr_cache_ = std::make_unique<MrCache>(*ib_, *pd_, platform_.mr_cache_entries,
                                        platform_.mr_cache_bytes);
  if (phi_ && options_.offload_send_buffer) {
    shadow_cache_ = std::make_unique<OffloadShadowCache>(
        *phi_, *pd_, platform_.mr_cache_entries);
  }

  // The watch is how a blocked rank learns that a peer published its half
  // or asked for ours, or that a board it waits on changed.
  bootstrap_.set_watch(rank_, [this] { wake(); });
  if (!lazy_) {
    // The eager mesh: publish every half, then take every peer's. A peer
    // publishes its whole mesh before it can die or give a pair up, so
    // each wait ends connected. Under lazy wiring endpoint() runs the same
    // handshake on first touch.
    for (int p = 0; p < nranks_; ++p) {
      if (p != rank_) open_endpoint(p);
    }
    for (auto& [p, ep] : endpoints_) (void)await_peer(ep, 0);
  }
  if (kill_armed_) {
    const sim::Time at = faults_->spec().kill_time_of(rank_);
    if (at >= 0) {
      // This rank is a victim: arm the suicide timer. The delay is clamped
      // so setup (a collective) always completes — the victim dies as a
      // fully wired member, which is what makes its memory safe to receive
      // survivors' in-flight writes afterwards.
      const sim::Time now = ib_->process().now();
      auto alive = alive_;
      ib_->process().engine().schedule_after(
          std::max<sim::Time>(at - now, 1), [this, alive] {
            if (!*alive) return;
            die();
          });
    }
  }
  setup_done_ = true;
}

void Engine::die() {
  if (dead_) return;
  dead_ = true;
  const sim::Time now = ib_->process().now();
  // The process is gone, and with it every connection it held: the HCA
  // stops acknowledging on its QPs, so survivors' WRs toward it fail.
  for (auto& [p, ep] : endpoints_) {
    if (!ep.abandoned) ib_->hca_ref().stop_answering(ep.qp);
  }
  faults_->note_rank_kill();
  tel_.event(sim::Verbosity::Info, {sim::Track::Faults, rank_}, "rank-killed",
             "(rank_kill fate)");
  // Launcher-level ground truth; survivors adopt through the failure board
  // once one of them *detects* the death (a WR toward it that no one
  // answered) — the registry itself only short-circuits doomed reconnects
  // and anchors the detection-latency metric.
  bootstrap_.mark_dead(rank_, now);
  wake();
}

void Engine::finalize() {
  if (finalized_) return;
  // Quiesce before tearing anything down: drain deferred emissions and
  // outstanding completions, then give straggling unsignaled writes (credit
  // updates) time to land so no WR is in flight against a dead MR.
  // No more consumption will push a peer's ack past the reporting period,
  // and the drain below need not sleep, so flush here first.
  flush_credits();
  block_until([this] {
    progress();
    if (!outstanding_.empty() || !pending_recovery_.empty()) return false;
    for (auto& [p, ep] : endpoints_) {
      if (!ep.pending_tx.empty() || !ep.unacked.empty() ||
          !ep.data_ops.empty()) {
        return false;
      }
    }
    return true;
  });
  ib_->process().wait(sim::microseconds(100));
  bootstrap_.set_watch(rank_, {});

  if (phi_) {
    stats_.cmd_retries = phi_->cmd_retries();
    stats_.cmd_timeouts = phi_->cmd_timeouts();
    if (phi_->in_proxy_fallback()) stats_.proxy_failovers = 1;
  }
  if (sim::Tracer* t = faults_armed_ ? tel_.tracer() : nullptr) {
    const sim::Track track{sim::Track::Faults, rank_};
    const sim::Time at = ib_->process().now();
    t->counter(track, "retransmits", at, double(stats_.retransmits));
    t->counter(track, "wc_errors", at, double(stats_.wc_errors));
    t->counter(track, "wc_timeouts", at, double(stats_.wc_timeouts));
    t->counter(track, "credit_acked", at, double(stats_.credit_acked));
    t->counter(track, "credits_piggybacked", at,
               double(stats_.credits_piggybacked));
    t->counter(track, "dup_dropped", at, double(stats_.dup_packets_dropped));
    t->counter(track, "data_op_retries", at, double(stats_.data_op_retries));
    t->counter(track, "retry_exhausted", at, double(stats_.retry_exhausted));
    t->counter(track, "offload_fallbacks", at,
               double(stats_.offload_fallbacks));
    t->counter(track, "cmd_retries", at, double(stats_.cmd_retries));
    t->counter(track, "cmd_timeouts", at, double(stats_.cmd_timeouts));
    t->counter(track, "reconnects", at, double(stats_.reconnects));
    t->counter(track, "proxy_failovers", at, double(stats_.proxy_failovers));
    t->counter(track, "epoch_fenced", at, double(stats_.epoch_fenced));
    t->counter(track, "liveness_probes", at, double(stats_.liveness_probes));
    t->counter(track, "liveness_suspicions", at,
               double(stats_.liveness_suspicions));
  }

  if (mr_cache_) mr_cache_->clear();
  if (shadow_cache_) shadow_cache_->clear();
  for (auto& [p, ep] : endpoints_) {
    dereg_endpoint(ep, /*release=*/true);
    ib_->free_buffer(ep.remote_block.buf);
  }
  finalized_ = true;
}

Engine::Endpoint& Engine::open_endpoint(int peer,
                                        const Bootstrap::PeerInfo* theirs) {
  Endpoint& ep = endpoints_[peer];
  ep.peer = peer;
  const mem::Buffer block =
      ib_->alloc_buffer(layout_.remote_bytes(), mem::AddressSpace::kPage);
  // Remote-readable too: liveness probes read the credit cell.
  ep.remote_block = Region{
      block, nullptr, ib::kLocalWrite | ib::kRemoteRead | ib::kRemoteWrite};
  reg_endpoint(ep);
  ep.qp = ib_->create_qp(pd_, cq_, cq_);
  // A responder publishes once its QP is connected, so the requester never
  // posts toward a QP that is still connecting.
  if (theirs) connect_endpoint(ep, *theirs);
  bootstrap_.publish(rank_, peer, 0, peer_info(ep));
  return ep;
}

void Engine::reg_endpoint(Endpoint& ep) {
  Region& remote = ep.remote_block;
  remote.mr = ib_->reg_mr(pd_, remote.buf, remote.access);
  landing_peer_[remote.mr->rkey()] = ep.peer;
  if (ep.local_block.valid()) return;  // a rebuild keeps its slice
  const std::uint64_t stride = layout_.local_stride();
  if (arena_free_ == 0) {
    // Open the next chunk: one block more than all earlier ones together
    // (1, 2, 4, 8) up to kArenaChunkBlocks, then that many or half as many
    // as all earlier ones, whichever is more. A rank with n peers opens
    // O(log n) chunks, and its unclaimed blocks never exceed 8 or a third
    // of the arena, whichever is more. The chunk is recorded only once
    // registered, so a registration that throws leaves no half-made one.
    const std::size_t blocks = std::min(
        {arena_blocks_ + 1, std::max(kArenaChunkBlocks, arena_blocks_ / 2),
         static_cast<std::size_t>(nranks_ - 1) - arena_blocks_});
    const mem::Buffer chunk =
        ib_->alloc_buffer(blocks * stride, mem::AddressSpace::kPage);
    ib::MemoryRegion* mr = nullptr;
    try {
      mr = ib_->reg_mr(pd_, chunk, ib::kLocalWrite);
    } catch (...) {
      ib_->free_buffer(chunk);
      throw;
    }
    arena_.push_back(Region{chunk, mr, ib::kLocalWrite});
    arena_blocks_ += blocks;
    arena_free_ = blocks;
  }
  const Region& chunk = arena_.back();
  ep.local_block = chunk.buf.slice(chunk.buf.size() - arena_free_ * stride,
                                   layout_.local_bytes());
  ep.local_lkey = chunk.mr->lkey();
  --arena_free_;
  ++arena_held_;
}

void Engine::dereg_endpoint(Endpoint& ep, bool release) {
  // A rebuild that failed part-way leaves the remote block unregistered.
  Region& remote = ep.remote_block;
  if (remote.mr) {
    landing_peer_.erase(remote.mr->rkey());
    ib_->dereg_mr(remote.mr);
    remote.mr = nullptr;
  }
  if (!release || !ep.local_block.valid()) return;
  ep.local_block = {};
  ep.local_lkey = 0;
  if (--arena_held_ > 0) return;
  for (Region& chunk : arena_) {
    ib_->dereg_mr(chunk.mr);
    ib_->free_buffer(chunk.buf);
  }
  arena_.clear();
  arena_blocks_ = arena_free_ = 0;
}

Bootstrap::PeerInfo Engine::peer_info(const Endpoint& ep) const {
  return {ib_->address(ep.qp), ep.remote_block.buf.addr(),
          ep.remote_block.mr->rkey()};
}

void Engine::connect_endpoint(Endpoint& ep, const Bootstrap::PeerInfo& info) {
  ib_->connect(ep.qp, info.qp);
  ep.peer_block = info.block_addr;
  ep.peer_rkey = info.block_rkey;
}

Engine::PeerWait Engine::await_peer(Endpoint& ep, std::uint32_t epoch) {
  const Bootstrap::PeerInfo* pi = nullptr;
  PeerWait out = PeerWait::Connected;
  block_until([&] {
    check_alive();  // our own kill fate can fire while blocked here
    pi = bootstrap_.try_get(ep.peer, rank_, epoch);
    // Eager setup takes every half: a peer publishes its whole mesh before
    // it can die. Later a dead peer's half is not taken even if it was
    // published first, nor a newer epoch of a pair the peer gave up (its
    // first-epoch half is always up: only a wired pair can be given up).
    if (bootstrap_.is_dead(ep.peer) && (setup_done_ || !pi)) {
      out = PeerWait::Dead;
      return true;
    }
    if (epoch > 0 && bootstrap_.pair_abandoned(ep.peer, rank_)) {
      out = PeerWait::Abandoned;
      return true;
    }
    if (pi) return true;
    service_requests();
    return false;
  });
  if (out == PeerWait::Connected) connect_endpoint(ep, *pi);
  return out;
}

void Engine::service_requests() {
  // A request for an endpoint that awaits its first half (no peer rkey
  // yet) or is mid-reconnect waits for that to end: served early, a rebuild
  // would be undone by the older connect still to come.
  const auto ready = [this](const Bootstrap::PairRequest& r) {
    auto it = endpoints_.find(r.from);
    return it == endpoints_.end() ||
           (it->second.peer_rkey != 0 &&
            it->second.conn_state != ConnState::Reconnecting);
  };
  for (const auto& [q, epoch] : bootstrap_.take_requests(rank_, ready)) {
    auto it = endpoints_.find(q);
    if (bootstrap_.pair_abandoned(q, rank_)) {
      if (it != endpoints_.end() && !it->second.abandoned) {
        it->second.abandoned = true;
        fail_endpoint(it->second, MpiErrc::RetryExhausted,
                      "peer abandoned the connection");
      }
    } else if (epoch == 0) {
      // First touch: skip a pair already wired (both sides touched it) or
      // a requester that died since. Its half is on the board: it
      // published before it asked.
      if (it != endpoints_.end() || bootstrap_.is_dead(q)) continue;
      if (const Bootstrap::PeerInfo* pi = bootstrap_.try_get(q, rank_, 0)) {
        open_endpoint(q, pi);
      }
    } else if (it != endpoints_.end() && epoch > it->second.epoch) {
      perform_reconnect(it->second, epoch);
    }
  }
}

Engine::Endpoint& Engine::establish_endpoint(int peer) {
  Endpoint& ep = open_endpoint(peer);
  bootstrap_.request(rank_, peer, 0);
  // Only a wired pair can be given up, so the wait ends connected or dead.
  if (await_peer(ep, 0) == PeerWait::Dead) {
    // The peer died before building its half. Put the death on the board
    // (purging dependent state) and unwind.
    declare_failed(peer, "peer died before first connection");
    throw MpiError("connect to dead rank " + std::to_string(peer),
                   MpiErrc::ProcFailed, peer);
  }
  return ep;
}

Engine::Endpoint& Engine::endpoint(int peer) {
  auto it = endpoints_.find(peer);
  if (it == endpoints_.end()) {
    if (lazy_ && setup_done_ && !finalized_ && peer != rank_ && peer >= 0 &&
        peer < nranks_) {
      return establish_endpoint(peer);
    }
    throw MpiError("no endpoint for rank " + std::to_string(peer));
  }
  return it->second;
}

void Engine::forget_buffer(const mem::Buffer& buf) {
  if (mr_cache_) mr_cache_->invalidate(buf);
  if (shadow_cache_) shadow_cache_->invalidate(buf);
}

sim::Checker& Engine::chk() { return ib_->process().engine().checker(); }

sim::Checker& Engine::checker() { return chk(); }

// ---------------------------------------------------------------------------
// TX plumbing
// ---------------------------------------------------------------------------

void Engine::tx(Endpoint& ep, std::function<void()> emit,
                std::shared_ptr<RequestState> owner) {
  if (ep.pending_tx.empty() && slots_free(ep) > 0) {
    emit();
    return;
  }
  ++stats_.tx_stalls;
  ep.pending_tx.push_back({std::move(emit), std::move(owner)});
  active_.insert(ep.peer);
}

void Engine::drain_tx(Endpoint& ep) {
  while (!ep.pending_tx.empty() && slots_free(ep) > 0) {
    auto emit = std::move(ep.pending_tx.front().emit);
    ep.pending_tx.pop_front();
    emit();
  }
}

void Engine::emit_packet(Endpoint& ep, PacketHeader hdr,
                         const std::byte* payload, std::size_t len,
                         std::function<void(const ib::Wc&)> on_complete,
                         std::shared_ptr<RequestState> owner) {
  assert(slots_free(ep) > 0);
  chk().packet_emitted(rank_, ep.peer, ep.sent_packets + 1,
                       ep.sent_packets + 1 - ep.consumed_by_peer,
                       usable_slots_);
  // Failure-propagation piggyback: every outgoing packet carries this
  // rank's known-failure epoch (Tentpole part 1 — dissemination rides
  // existing traffic).
  hdr.fail_epoch = known_fail_epoch_;
  // The absolute ring index and the connection generation let the
  // receiver scrub stale retransmits and fence out pre-reconnect traffic.
  const std::uint64_t idx = ep.sent_packets;
  hdr.ring_idx = idx;
  hdr.conn_epoch = ep.epoch;
  // Piggybacked credit: the packet reports this rank's consumption of the
  // peer's packets, so no explicit credit is due until the next period.
  hdr.credit = static_cast<std::uint32_t>(ep.my_consumed);
  chk().credit_piggybacked(rank_, ep.peer, hdr.credit);
  ep.my_consumed_reported = ep.my_consumed;

  // Stage header, payload (the eager one-copy) and tail into the slot.
  const int slot = static_cast<int>(idx % slots());
  const SlotLayout& stage = layout_.staging;
  wire::put(ep.local_block, stage.header_off(slot), hdr);
  if (len > 0) {
    wire::put_bytes(ep.local_block, stage.payload_off(slot), payload, len);
    ib_->charge_memcpy(len);
  }
  const PacketTail tail = kPacketMagic;
  wire::put(ep.local_block, stage.tail_off(slot, len), tail);

  ib::SendWr wr = ring_write(ep, slot, len);
  if (faults_armed_) {
    // Reliable path: track the packet until a CQE or a returning credit
    // confirms delivery.
    TrackedWr& rec = ep.unacked[idx];
    rec.ring = true;
    rec.key = idx;
    rec.wr = std::move(wr);
    rec.on_result = std::move(on_complete);
    rec.owner = std::move(owner);
    rec.hdr = hdr;
    rec.payload_len = len;
    ++ep.sent_packets;
    post_tracked(ep, rec);
    return;
  }
  if (on_complete) {
    post_signaled(ep.qp, std::move(wr), std::move(on_complete));
  } else {
    wr.signaled = false;
    ib_->post_send(ep.qp, std::move(wr));
  }
  ++ep.sent_packets;
}

ib::SendWr Engine::ring_write(const Endpoint& ep, int slot,
                              std::size_t len) const {
  // Header SGE + data SGE + tail SGE, exactly as the paper describes.
  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaWrite;
  const SlotLayout& stage = layout_.staging;
  const mem::Buffer& block = ep.local_block;
  const ib::MKey lkey = ep.local_lkey;
  wr.sg_list = {
      wire::sge(block, lkey, stage.header_off(slot), sizeof(PacketHeader)),
      wire::sge(block, lkey, stage.payload_off(slot), len),
      wire::sge(block, lkey, stage.tail_off(slot, len), sizeof(PacketTail)),
  };
  wr.remote_addr = ep.peer_block + layout_.ring.header_off(slot);
  wr.rkey = ep.peer_rkey;
  return wr;
}

void Engine::emit_control(Endpoint& ep, PacketType type,
                          const std::shared_ptr<RequestState>& req,
                          mem::SimAddr buf_addr, ib::MKey rkey,
                          std::uint64_t buf_bytes, std::uint32_t dir) {
  PacketHeader hdr;
  hdr.dir = dir;
  hdr.type = type;
  hdr.src_rank = rank_;
  hdr.tag = req->tag;
  hdr.comm_id = req->comm_id;
  hdr.seq = req->seq;
  hdr.msg_bytes = req->bytes;
  hdr.buf_addr = buf_addr;
  hdr.rkey = rkey;
  hdr.buf_bytes = buf_bytes;
  // The request rides along as the record owner: if the transport retry
  // budget runs out on a control packet, the request is failed cleanly.
  emit_packet(ep, hdr, nullptr, 0, {}, req);
}

// ---------------------------------------------------------------------------
// Fault recovery: tracked ring packets and rendezvous data operations
// ---------------------------------------------------------------------------

void Engine::schedule_recovery(sim::Time delay, std::function<void()> fn) {
  // Timers fire in engine context, where post_send (which charges process
  // time) is illegal — park the work for the next progress() pass instead.
  auto alive = alive_;
  ib_->process().engine().schedule_after(
      delay, [this, alive, fn = std::move(fn)]() mutable {
        if (!*alive) return;
        pending_recovery_.push_back(std::move(fn));
        wake();
      });
}

std::uint64_t Engine::post_signaled(ib::QueuePair* qp, ib::SendWr wr,
                                    std::function<void(const ib::Wc&)> on_wc) {
  wr.signaled = true;
  wr.wr_id = next_wr_id_++;
  const std::uint64_t id = wr.wr_id;
  outstanding_[id] = std::move(on_wc);
  ib_->post_send(qp, std::move(wr));
  return id;
}

void Engine::post_data_wr(Endpoint& ep, ib::SendWr wr,
                          std::shared_ptr<RequestState> owner,
                          std::function<void(const ib::Wc&)> on_result) {
  if (!faults_armed_) {
    post_signaled(ep.qp, std::move(wr), std::move(on_result));
    return;
  }
  const std::uint64_t key = ep.data_ops_posted++;
  TrackedWr& rec = ep.data_ops[key];
  rec.key = key;
  rec.wr = std::move(wr);
  rec.on_result = std::move(on_result);
  rec.owner = std::move(owner);
  post_tracked(ep, rec);
}

void Engine::post_tracked(Endpoint& ep, TrackedWr& rec) {
  ++rec.epoch;
  const int peer = ep.peer;
  const bool ring = rec.ring;
  const std::uint64_t key = rec.key;
  const std::uint64_t epoch = rec.epoch;
  ib::SendWr wr = rec.wr;
  wr.faultable = true;
  // A landed data op needs no more bytes moved, only proof that no earlier
  // attempt is still moving them: a zero-length WR completes after all of
  // them (posting order) at no DMA cost.
  if (rec.landed) wr.sg_list.clear();
  // Bounded exponential backoff: the per-attempt timeout doubles. A data
  // op's deadline also covers streaming its un-landed bytes over its own
  // path (the HCA's cost model for its local and remote MRs), so a
  // transfer slower than the timeout is not re-posted while it streams.
  sim::Time deadline = platform_.mpi_retry_timeout << (rec.attempts - 1);
  if (!ring) deadline += ib_->hca_ref().stream_time(ep.qp, wr);
  rec.wr_ids.push_back(post_signaled(
      ep.qp, std::move(wr), [this, peer, ring, key](const ib::Wc& wc) {
        on_tracked_wc(peer, ring, key, wc);
      }));
  schedule_recovery(deadline, [this, peer, ring, key, epoch] {
    tracked_check(peer, ring, key, epoch, /*after_error=*/false);
  });
}

Engine::TrackedWr* Engine::find_tracked(int peer, bool ring,
                                        std::uint64_t key) {
  auto eit = endpoints_.find(peer);
  if (eit == endpoints_.end()) return nullptr;
  auto& store = ring ? eit->second.unacked : eit->second.data_ops;
  auto it = store.find(key);
  return it == store.end() ? nullptr : &it->second;
}

void Engine::on_tracked_wc(int peer, bool ring, std::uint64_t key,
                           const ib::Wc& wc) {
  TrackedWr* rec = find_tracked(peer, ring, key);
  if (rec == nullptr) return;  // already credit-acknowledged or quiesced
  Endpoint& ep = endpoints_.at(peer);
  if (!ring) {
    // A data op re-posted on timeout may have been slow rather than lost,
    // so an earlier attempt can land while a later one is still queued
    // behind it. Handing the target on then would let that later attempt
    // overwrite it after the owner reused it (a pipe's scratch half, a user
    // buffer). So an earlier attempt's success only marks the op landed
    // (later re-posts are zero-length probes), and the latest attempt's CQE
    // finishes it with success: one QP completes its WRs in posting order,
    // so by then every attempt has landed or failed.
    if (wc.wr_id != rec->wr_ids.back()) {
      if (wc.status == ib::WcStatus::Success) rec->landed = true;
      return;
    }
    if (rec->landed) {
      finish_tracked(ep, *rec, ib::Wc{});
      return;
    }
  }
  if (wc.status == ib::WcStatus::Success) {
    // A delivered ring packet is not yet provably consumed: park the header
    // so a later reconnect (which rebuilds the peer's ring) can replay it.
    // The credit counter purges the entry once consumption is proven.
    if (ring) {
      ep.delivered[key] = Endpoint::DeliveredTx{rec->hdr, rec->payload_len};
    }
    finish_tracked(ep, *rec, wc);
    return;
  }
  // Injected transport error: the WR provably did nothing, so retry it at
  // once, or give up when the budget is spent. Only a timeout backs off: its
  // first attempt may still land. This runs inside progress()'s CQ poll,
  // ahead of the pass's recovery drain, which posts the retry.
  ++stats_.wc_errors;
  ++rec->epoch;  // defuse the pending timeout timer
  if (ep.qp->state() == ib::QpState::Error &&
      maybe_start_reconnect(ep, "qp error state")) {
    return;  // the record stays parked; the reconnect re-posts it
  }
  if (budget_spent(ep, *rec, wc)) return;
  const std::uint64_t epoch = rec->epoch;
  pending_recovery_.push_back([this, peer, ring, key, epoch] {
    tracked_check(peer, ring, key, epoch, /*after_error=*/true);
  });
}

void Engine::tracked_check(int peer, bool ring, std::uint64_t key,
                           std::uint64_t epoch, bool after_error) {
  TrackedWr* rec = find_tracked(peer, ring, key);
  if (rec == nullptr || rec->epoch != epoch) return;
  Endpoint& ep = endpoints_.at(peer);
  if (!ring && settle_orphan(ep, *rec)) return;
  if (!after_error) {
    // A ring packet's CQE may have been lost while the data landed: a
    // covering credit acknowledges it, and reading the cell finishes it.
    if (ring) {
      read_credit_cell(ep);
      rec = find_tracked(peer, ring, key);
      if (rec == nullptr) return;
    }
    ++stats_.wc_timeouts;
    if (rec->landed && rec->attempts >= 1 + platform_.mpi_max_retries) {
      // Every probe's CQE was lost, but the bytes are in place.
      finish_tracked(ep, *rec, ib::Wc{});
      return;
    }
    if (budget_spent(ep, *rec, {.status = ib::WcStatus::RetryExceeded})) {
      return;
    }
  }
  ++rec->attempts;
  if (ring) {
    ++stats_.retransmits;
    tel_.instant({sim::Track::Faults, rank_}, "retransmit idx=%llu",
                 static_cast<unsigned long long>(key));
  } else {
    ++stats_.data_op_retries;
    tel_.instant({sim::Track::Faults, rank_}, "data-op-retry");
  }
  post_tracked(ep, *rec);
}

bool Engine::budget_spent(Endpoint& ep, TrackedWr& rec, const ib::Wc& wc) {
  if (rec.attempts < 1 + platform_.mpi_max_retries) return false;
  if (!maybe_start_reconnect(ep, rec.ring ? "retry budget exhausted"
                                          : "data-op budget exhausted")) {
    finish_tracked(ep, rec, wc);
  }
  return true;
}

Engine::TrackedWr Engine::take_tracked(Endpoint& ep, TrackedWr& rec) {
  TrackedWr done = std::move(rec);
  (done.ring ? ep.unacked : ep.data_ops).erase(done.key);
  for (std::uint64_t id : done.wr_ids) outstanding_.erase(id);
  return done;
}

void Engine::finish_tracked(Endpoint& ep, TrackedWr& rec, const ib::Wc& wc) {
  TrackedWr done = take_tracked(ep, rec);
  if (wc.status != ib::WcStatus::Success) {
    ++stats_.retry_exhausted;
    if (done.ring) {
      tel_.instant({sim::Track::Faults, rank_}, "retry-exhausted idx=%llu",
                   static_cast<unsigned long long>(done.key));
    } else {
      tel_.instant({sim::Track::Faults, rank_}, "retry-exhausted data-op");
    }
    // Blame scope: a failure delivered from here means the transport gave
    // up on a known peer — requests failed by the callback inherit the
    // taxonomy (MpiError carries errc + peer on retry exhaustion).
    BlameScope blame(*this, MpiErrc::RetryExhausted, ep.peer);
    fail_tracked(done, wc, std::string("transport retry budget exhausted (") +
                               ib::wc_status_name(wc.status) + ")");
  } else if (done.on_result) {
    done.on_result(wc);
  }
  wake_.notify_all();
}

std::vector<Engine::TrackedWr> Engine::quiesce(Endpoint& ep) {
  std::vector<TrackedWr> recs;
  recs.reserve(ep.unacked.size() + ep.data_ops.size());
  for (auto* store : {&ep.unacked, &ep.data_ops}) {
    for (auto& [key, rec] : *store) {
      ++rec.epoch;  // defuse the pending tracked_check timer
      for (std::uint64_t id : rec.wr_ids) outstanding_.erase(id);
      rec.wr_ids.clear();
      recs.push_back(std::move(rec));
    }
    store->clear();
  }
  return recs;
}

void Engine::fail_tracked(TrackedWr& rec, const ib::Wc& err,
                          const std::string& why) {
  if (rec.on_result) {
    rec.on_result(err);
  } else if (rec.owner && !rec.owner->done()) {
    fail(rec.owner, why);
  }
}

bool Engine::settle_orphan(Endpoint& ep, TrackedWr& rec) {
  if (!rec.owner || !rec.owner->done()) return false;
  TrackedWr done = take_tracked(ep, rec);
  // The callback's failure path only unhooks the channel entry: fail() on
  // the terminal owner is a no-op.
  fail_tracked(done, {.status = ib::WcStatus::WrFlushError},
               "owner already terminal");
  return true;
}

// ---------------------------------------------------------------------------
// Fatal-fault recovery: connection re-establishment and graceful degradation
// ---------------------------------------------------------------------------

bool Engine::maybe_start_reconnect(Endpoint& ep, const char* why) {
  if (!fatal_armed_ || finalized_) return false;
  if (ep.conn_state != ConnState::Failed && bootstrap_.is_dead(ep.peer)) {
    // The peer is permanently dead (rank_kill): reconnecting would block
    // forever on a publication that never comes. Declare the failure —
    // fail_peer_ops (via adoption) purges the parked records this signal
    // came from, so returning true is accurate: the signal is handled.
    declare_failed(ep.peer, why);
    return true;
  }
  if (ep.conn_state == ConnState::Suspect ||
      ep.conn_state == ConnState::Reconnecting) {
    return true;  // recovery already underway; this signal rides along
  }
  if (ep.conn_state == ConnState::Failed) return false;
  if (ep.reconnects >= platform_.mpi_max_reconnects) {
    // Unbounded error storms must still terminate: past the cumulative
    // budget the endpoint fails for good and operations raise MpiError.
    tel_.log(sim::Verbosity::Error, {sim::Track::Rank, rank_},
             "endpoint %d: reconnect budget exhausted (%s)", ep.peer, why);
    ep.conn_state = ConnState::Failed;
    // A QP wedged in the error state cannot carry the pair any further:
    // give the pair up on both sides. A working QP (the budget went on
    // liveness suspicions) keeps carrying traffic; only recovery stops.
    if (ep.qp->state() == ib::QpState::Error) {
      abandon_endpoint(ep, "connection abandoned: reconnect budget exhausted");
    }
    return false;
  }
  ep.conn_state = ConnState::Suspect;
  tel_.instant({sim::Track::Faults, rank_}, "endpoint-suspect peer=%d (%s)",
               ep.peer, why);
  const std::uint32_t target = ep.epoch + 1;
  const int peer = ep.peer;
  bootstrap_.request(rank_, peer, target);
  // Death signals arrive in CQE callbacks and timer bodies; the actual
  // re-establishment runs from progress() in a clean context.
  schedule_recovery(0, [this, peer, target] {
    auto it = endpoints_.find(peer);
    if (it != endpoints_.end()) perform_reconnect(it->second, target);
  });
  return true;
}

void Engine::perform_reconnect(Endpoint& ep, std::uint32_t target_epoch) {
  if (ep.epoch >= target_epoch || ep.conn_state == ConnState::Reconnecting) {
    return;  // a concurrent signal already got here
  }
  if (ep.abandoned || (kill_armed_ && ep.conn_state == ConnState::Failed)) {
    return;  // terminal: the pair was given up, or failed under kills
  }
  if (bootstrap_.is_dead(ep.peer)) {
    declare_failed(ep.peer, "reconnect target is dead");
    return;
  }
  ep.conn_state = ConnState::Reconnecting;
  ++ep.reconnects;
  ++stats_.reconnects;
  tel_.event(sim::Verbosity::Info, {sim::Track::Faults, rank_},
             "reconnect-start peer=%d epoch=%u", nullptr, ep.peer,
             target_epoch);

  // --- Quiesce: defuse every pending timer and CQE callback, and snapshot
  // the packets that still need delivery through the new connection. The
  // staged payload is copied out now because the staging slots are about to
  // be scrubbed and reassigned.
  struct Replay {
    TrackedWr rec;
    std::vector<std::byte> payload;
  };
  std::vector<Replay> replay;
  const auto stage_replay = [&](TrackedWr rec) {
    Replay r{std::move(rec), {}};
    if (r.rec.payload_len > 0) {
      const int slot = static_cast<int>(r.rec.key % slots());
      const std::byte* src =
          ep.local_block.data() + layout_.staging.payload_off(slot);
      r.payload.assign(src, src + r.rec.payload_len);
    }
    replay.push_back(std::move(r));
  };
  // Delivered-but-unconsumed packets are about to be destroyed with the
  // peer's ring; their completions already fired, so they replay with no
  // callback — the receive-side seq dedup keeps delivery exactly-once if
  // the peer did consume one before stalling.
  for (auto& [idx, d] : ep.delivered) {
    TrackedWr rec;
    rec.key = idx;
    rec.hdr = d.hdr;
    rec.payload_len = d.payload_len;
    stage_replay(std::move(rec));
  }
  ep.delivered.clear();
  for (TrackedWr& rec : quiesce(ep)) {
    if (rec.ring) {
      stage_replay(std::move(rec));
      continue;
    }
    // Data ops stay parked on the endpoint, defused, until the re-post
    // below, so fail_peer_ops still reaches them if the peer dies meanwhile.
    rec.attempts = 1;
    ep.data_ops.emplace(rec.key, std::move(rec));
  }
  std::sort(replay.begin(), replay.end(), [](const Replay& a, const Replay& b) {
    return a.rec.key < b.rec.key;
  });
  // Giving up: the pair is abandoned (the peer learns it from the board),
  // and every quiesced packet, parked data op and posted operation on the
  // endpoint fails with taxonomy `errc`.
  const auto abandon = [&](MpiErrc errc, const char* why) {
    mark_abandoned(ep);
    const ib::Wc err{.status = ib::WcStatus::RetryExceeded};
    BlameScope blame(*this, errc, ep.peer);
    for (auto& r : replay) fail_tracked(r.rec, err, why);
    fail_endpoint(ep, errc, why);
  };

  // --- Tear down and rebuild: destroy the (possibly error-wedged) QP, clear
  // both endpoint blocks and re-register the remote one, so in-flight writes
  // against the old generation lose their rkey and are dropped at landing.
  // The local block keeps its arena slice and lkey: it is never advertised.
  // On a Phi endpoint each verb is a DCFA CMD round trip; when the delegate
  // is dead the verbs layer retries through CMD up to its strike budget and
  // then degrades to the host-proxy path (PhiVerbs::note_delegate_death),
  // after which this same rebuild completes through the proxy. The old remote
  // block's rkey stops marking the endpoint once its MR is gone. Reconnects
  // run ahead of progress()'s endpoint walk, so marking the endpoint here
  // gives it a visit in this very pass, whichever way the rebuild ends.
  active_.insert(ep.peer);
  try {
    ib_->destroy_qp(ep.qp);
    dereg_endpoint(ep);
    for (const mem::Buffer& b : {ep.remote_block.buf, ep.local_block}) {
      std::memset(b.data(), 0, b.size());
    }
    reg_endpoint(ep);
    ep.qp = ib_->create_qp(pd_, cq_, cq_);
  } catch (const core::CmdError&) {
    // Only reachable when proxy failover was not eligible; the endpoint is
    // unrecoverable — fail every parked and posted operation cleanly.
    abandon(MpiErrc::Other,
            "connection re-establishment failed (delegate dead)");
    return;
  }

  // Ring and credit positions restart from zero on both sides; the packet
  // headers' conn_epoch keeps the generations apart.
  ep.sent_packets = 0;
  ep.consumed_by_peer = 0;
  ep.my_consumed = 0;
  ep.my_consumed_reported = 0;

  // Publish the new generation and wait for the peer's. Whichever side
  // noticed first already requested it (maybe_start_reconnect); the other
  // got here serving that request.
  bootstrap_.publish(rank_, ep.peer, target_epoch, peer_info(ep));
  switch (await_peer(ep, target_epoch)) {
    case PeerWait::Connected:
      break;
    case PeerWait::Dead:
      // The replay set was already quiesced out of fail_peer_ops' reach —
      // fail it here, then put the death on the board so the rest of this
      // rank's dependent state gets purged too.
      abandon(MpiErrc::ProcFailed,
              "peer died during connection re-establishment");
      declare_failed(ep.peer, "peer died during reconnect handshake");
      return;
    case PeerWait::Abandoned:
      abandon(MpiErrc::RetryExhausted, "peer abandoned the connection");
      return;
  }
  ep.epoch = target_epoch;
  chk().epoch_advanced(rank_, ep.peer, target_epoch);
  ep.conn_state = (phi_ && phi_->in_proxy_fallback()) ? ConnState::Degraded
                                                      : ConnState::Healthy;
  tel_.instant({sim::Track::Faults, rank_}, "reconnect-done peer=%d epoch=%u",
               ep.peer, target_epoch);

  // --- Replay, in emission order. Sequence numbers are preserved, so if an
  // original write did land before the fault, the receiver's seq-level
  // duplicate suppression keeps MPI-level delivery exactly-once.
  for (auto& r : replay) {
    emit_packet(ep, r.rec.hdr, r.payload.data(), r.payload.size(),
                std::move(r.rec.on_result), std::move(r.rec.owner));
  }
  // Rendezvous RDMA ops are idempotent (same bytes, same addresses, and the
  // user-buffer MRs survived the reconnect): a plain re-post suffices, for
  // every op whose owner is still waiting on it.
  for (auto it = ep.data_ops.begin(); it != ep.data_ops.end();) {
    TrackedWr& rec = (it++)->second;
    if (!settle_orphan(ep, rec)) post_tracked(ep, rec);
  }
  drain_tx(ep);
  wake();
}

bool Engine::watched(const Endpoint& ep) const {
  if ((ep.conn_state != ConnState::Healthy &&
       ep.conn_state != ConnState::Degraded) ||
      ep.qp->state() == ib::QpState::Error) {
    return false;
  }
  // An idle endpoint has nothing to recover, and a probe at the tail of a
  // run would find a peer that finalized. Under rank kills a dead *sender*
  // leaves nothing in unacked/pending_tx, yet its receivers still wait.
  return !ep.unacked.empty() || !ep.pending_tx.empty() ||
         (kill_armed_ && expecting_from(ep));
}

void Engine::arm_liveness() {
  if (tick_armed_ || finalized_) return;
  for (const auto& [p, ep] : endpoints_) {
    if (!watched(ep)) continue;
    tick_armed_ = true;
    schedule_recovery(platform_.mpi_heartbeat_period,
                      [this] { liveness_tick(); });
    return;
  }
}

void Engine::liveness_tick() {
  tick_armed_ = false;
  for (auto& [p, ep] : endpoints_) {
    // A WR of ours in flight reports the peer's death itself.
    if (!watched(ep) || !ep.unacked.empty() || !ep.data_ops.empty()) continue;
    // Probe a peer only once it has been silent for a whole period: no
    // packet or credit from it since the last tick.
    const std::uint64_t heard = ep.my_consumed + ep.consumed_by_peer;
    if (heard != ep.heard_at_tick) {
      ep.heard_at_tick = heard;
      continue;
    }
    ++stats_.liveness_probes;
    ib::SendWr wr;
    wr.opcode = ib::Opcode::RdmaRead;
    wr.signaled = false;
    wr.sg_list = {wire::sge(ep.local_block, ep.local_lkey,
                            EndpointLayout::kProbeCellOff,
                            EndpointLayout::kProbeCellBytes)};
    wr.remote_addr = ep.peer_block + EndpointLayout::kCreditCellOff;
    wr.rkey = ep.peer_rkey;
    ib_->post_send(ep.qp, std::move(wr));
  }
}

void Engine::unanswered(ib::Qpn qpn) {
  for (auto& [p, ep] : endpoints_) {
    if (ep.abandoned || ep.qp->qpn() != qpn) continue;
    if (sim::Tracer* t = tel_.tracer()) {
      t->instant({sim::Track::Faults, rank_}, ib_->process().now(),
                 "unanswered peer=%d", p);
    }
    ++stats_.liveness_suspicions;
    maybe_start_reconnect(ep, "responder stopped answering");
    return;
  }
}

// ---------------------------------------------------------------------------
// Rank-failure semantics: adoption, dependent-op cancellation, revocation
// ---------------------------------------------------------------------------

void Engine::declare_failed(int peer, const char* why) {
  tel_.event(sim::Verbosity::Error, {sim::Track::Faults, rank_},
             "declare-failed peer=%d (%s)", nullptr, peer, why);
  bootstrap_.announce_failure(peer);
  adopt_failures();
}

void Engine::adopt_failures() {
  const std::uint64_t board = bootstrap_.fail_epoch();
  while (known_fail_epoch_ < board) {
    const int r = bootstrap_.failed_at(known_fail_epoch_++);
    if (r == rank_) continue;  // our own death unwinds via check_alive
    if (!known_failed_.insert(r).second) continue;
    ++stats_.rank_failures_known;
    // Drop every passive-target RMA lock the victim held, so survivors
    // spinning in Window::lock toward one of its slots wake and re-arbitrate
    // (or observe the death and raise PROC_FAILED) instead of hanging.
    bootstrap_.rma_release_rank(r);
    const sim::Time now = ib_->process().now();
    const sim::Time died = bootstrap_.death_time(r);
    if (died >= 0 && now > died) {
      const std::uint64_t lat = static_cast<std::uint64_t>(now - died);
      if (lat > stats_.failure_detect_max_ns) {
        stats_.failure_detect_max_ns = lat;
      }
    }
    chk().rank_failed(rank_, r);
    tel_.instant({sim::Track::Faults, rank_},
                 "adopt-failure peer=%d epoch=%llu", r,
                 static_cast<unsigned long long>(known_fail_epoch_));
    fail_peer_ops(r);
  }
}

void Engine::fail_endpoint(Endpoint& ep, MpiErrc errc, const char* why) {
  ep.conn_state = ConnState::Failed;
  // Tracked WRs: defuse the retry timers and pull the records out before
  // delivering verdicts (a verdict callback may re-enter the endpoint).
  // The blame scope classifies callback-mediated fail() calls.
  std::vector<TrackedWr> recs = quiesce(ep);
  const auto ops =
      std::partition_point(recs.begin(), recs.end(),
                           [](const TrackedWr& rec) { return rec.ring; });
  // Parked delivered records need no verdicts (their completions already
  // fired) and can never be replayed over a failed pair.
  ep.delivered.clear();
  std::deque<Endpoint::PendingTx> queued;
  queued.swap(ep.pending_tx);
  const ib::Wc err{.status = ib::WcStatus::RetryExceeded};
  BlameScope blame(*this, errc, ep.peer);
  for (auto it = recs.begin(); it != ops; ++it) fail_tracked(*it, err, why);
  for (auto& ptx : queued) {
    if (ptx.owner && !ptx.owner->done()) fail(ptx.owner, why, errc, ep.peer);
  }
  // Channel state: sends awaiting DONE/credit and posted receives can
  // never complete over a failed pair.
  for (auto& [key, ch] : ep.channels) {
    for (auto& [seq, st] : ch.sends) {
      if (st && !st->done()) fail(st, why, errc, ep.peer);
    }
    ch.sends.clear();
    for (auto& [seq, st] : ch.posted) {
      if (st && !st->done()) fail(st, why, errc, ep.peer);
    }
    ch.posted.clear();
  }
  // Rendezvous RDMA operations over the pair.
  for (auto it = ops; it != recs.end(); ++it) fail_tracked(*it, err, why);
  wake();
}

void Engine::mark_abandoned(Endpoint& ep) {
  ep.conn_state = ConnState::Failed;
  ep.abandoned = true;
  bootstrap_.abandon_pair(rank_, ep.peer);
}

void Engine::abandon_endpoint(Endpoint& ep, const char* why) {
  mark_abandoned(ep);
  const int peer = ep.peer;
  schedule_recovery(0, [this, peer, why] {
    fail_endpoint(endpoints_.at(peer), MpiErrc::RetryExhausted, why);
  });
}

void Engine::fail_peer_ops(int r) {
  auto eit = endpoints_.find(r);
  if (eit != endpoints_.end()) {
    fail_endpoint(eit->second, MpiErrc::ProcFailed, "peer rank died");
  }
  // Deferred receives: explicit receives from the dead rank, and wildcard
  // receives on any communicator containing it. The wildcard case is
  // deliberately pessimistic (ULFM semantics): the dead rank may have been
  // the only possible sender, and completing with PROC_FAILED beats
  // hanging — the caller re-posts after shrinking if it wants to go on.
  for (auto& [comm_id, cr] : comm_recv_) {
    for (auto it = cr.deferred.begin(); it != cr.deferred.end();) {
      auto& st = *it;
      const bool depends =
          st && !st->done() &&
          (st->peer == r ||
           (st->peer == kAnySource && comm_contains(comm_id, r)));
      if (depends) {
        fail(st, "peer rank died (receive can never match)",
             MpiErrc::ProcFailed, r);
        it = cr.deferred.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Collective schedules whose group contains the dead rank: every stage
  // eventually depends on it (directly or through the dependency chain),
  // so the whole schedule fails now instead of hanging in a later stage.
  for (auto& sched : schedules_) {
    if (sched->req->done()) continue;
    if (!comm_contains(sched->comm_id, r)) continue;
    fail_schedule(*sched, "peer rank died during collective",
                  MpiErrc::ProcFailed, r);
  }
  wake();
}

bool Engine::comm_contains(std::uint32_t comm_id, int r) const {
  auto it = comm_groups_.find(comm_id);
  if (it == comm_groups_.end()) {
    // Unregistered communicators (engine-level tests drive comm 0 without a
    // Communicator object) are treated as the world group.
    return comm_id == 0 && r >= 0 && r < nranks_;
  }
  for (int m : it->second) {
    if (m == r) return true;
  }
  return false;
}

bool Engine::expecting_from(const Endpoint& ep) const {
  for (const auto& [key, ch] : ep.channels) {
    if (!ch.posted.empty()) return true;
  }
  for (const auto& [comm_id, cr] : comm_recv_) {
    for (const auto& st : cr.deferred) {
      if (!st || st->done()) continue;
      if (st->peer == ep.peer) return true;
      if (st->peer == kAnySource && comm_contains(comm_id, ep.peer)) {
        return true;
      }
    }
  }
  for (const auto& sched : schedules_) {
    if (!sched->req->done() && comm_contains(sched->comm_id, ep.peer)) {
      return true;
    }
  }
  return false;
}

void Engine::register_comm(std::uint32_t comm_id, std::vector<int> group) {
  comm_groups_[comm_id] = std::move(group);
}

void Engine::revoke_comm(std::uint32_t comm_id) {
  if (!revoked_.insert(comm_id).second) return;  // each rank floods once
  ++stats_.comms_revoked;
  chk().comm_revoked(rank_, comm_id);
  tel_.event(sim::Verbosity::Info, {sim::Track::Faults, rank_},
             "comm-revoked comm=%u", nullptr, comm_id);
  poison_comm(comm_id, "communicator revoked");
  flood_revoke(comm_id);
}

void Engine::poison_comm(std::uint32_t comm_id, const char* why) {
  for (auto& [p, ep] : endpoints_) {
    for (auto& [key, ch] : ep.channels) {
      if (key.first != comm_id) continue;
      for (auto& [seq, st] : ch.sends) {
        if (st && !st->done()) fail(st, why, MpiErrc::Revoked, p);
      }
      ch.sends.clear();
      for (auto& [seq, st] : ch.posted) {
        if (st && !st->done()) fail(st, why, MpiErrc::Revoked, p);
      }
      ch.posted.clear();
    }
  }
  for (auto& [key, sc] : self_channels_) {
    if (key.first != comm_id) continue;
    for (auto& [seq, st] : sc.posted) {
      if (st && !st->done()) fail(st, why, MpiErrc::Revoked);
    }
    sc.posted.clear();
  }
  if (auto it = comm_recv_.find(comm_id); it != comm_recv_.end()) {
    for (auto& st : it->second.deferred) {
      if (st && !st->done()) fail(st, why, MpiErrc::Revoked);
    }
    it->second.deferred.clear();
  }
  for (auto& sched : schedules_) {
    if (sched->comm_id == comm_id && !sched->req->done()) {
      fail_schedule(*sched, why, MpiErrc::Revoked);
    }
  }
  wake();
}

void Engine::flood_revoke(std::uint32_t comm_id) {
  auto git = comm_groups_.find(comm_id);
  for (auto& [p, ep] : endpoints_) {
    if (git != comm_groups_.end()) {
      bool member = false;
      for (int m : git->second) member |= (m == p);
      if (!member) continue;
    }
    if (ep.conn_state == ConnState::Failed) continue;
    if (known_failed_.count(p) > 0 || bootstrap_.is_dead(p)) continue;
    PacketHeader hdr;
    hdr.type = PacketType::Revoke;
    hdr.src_rank = rank_;
    hdr.comm_id = comm_id;
    hdr.tag = 0;
    Endpoint* target = &ep;
    tx(ep, [this, target, hdr] { emit_packet(*target, hdr, nullptr, 0); });
  }
}

void Engine::waitall(std::span<Request> reqs) {
  check_alive();
  block_until([&] {
    progress();
    return std::ranges::all_of(
        reqs, [](const Request& r) { return !r.valid() || r.done(); });
  });
  // Every request reached a terminal phase (a failure on one cannot leave
  // another undriven); now report the first casualty, if any.
  for (const Request& r : reqs) {
    if (r.valid()) r.state_->throw_if_failed();
  }
}

void Engine::dump_all(std::FILE* out) {
  std::lock_guard<std::mutex> lock(g_engines_mu);
  for (Engine* e : live_engines()) {
    std::fprintf(out, "rank %d%s: fail_epoch=%llu known_failed={", e->rank_,
                 e->dead_ ? " (dead)" : "",
                 static_cast<unsigned long long>(e->known_fail_epoch_));
    for (int r : e->known_failed_) std::fprintf(out, " %d", r);
    std::fprintf(out, " } outstanding=%zu pending_recovery=%zu\n",
                 e->outstanding_.size(), e->pending_recovery_.size());
    for (const auto& [p, ep] : e->endpoints_) {
      const char* st = "?";
      switch (ep.conn_state) {
        case ConnState::Healthy: st = "healthy"; break;
        case ConnState::Suspect: st = "suspect"; break;
        case ConnState::Reconnecting: st = "reconnecting"; break;
        case ConnState::Degraded: st = "degraded"; break;
        case ConnState::Failed: st = "failed"; break;
      }
      std::fprintf(out,
                   "  -> peer %d: %s epoch=%u unacked=%zu data_ops=%zu "
                   "pending_tx=%zu sent=%llu acked=%llu\n",
                   p, st, ep.epoch, ep.unacked.size(), ep.data_ops.size(),
                   ep.pending_tx.size(),
                   static_cast<unsigned long long>(ep.sent_packets),
                   static_cast<unsigned long long>(ep.consumed_by_peer));
    }
    for (const auto& s : e->schedules_) {
      std::fprintf(out, "  coll comm=%u stage=%zu/%zu outstanding=%zu ",
                   s->comm_id, s->stage, s->stages.size(),
                   s->outstanding.size());
      if (s->label) std::fprintf(out, s->label, s->label_algo, s->label_bytes);
      std::fputc('\n', out);
    }
  }
  std::fflush(out);
}

void Engine::send_credit(Endpoint& ep) {
  // RDMA-write the consumption counter into the peer's credit cell. No ring
  // slot needed — this is what keeps the flow control deadlock-free.
  chk().credit_written(rank_, ep.peer, ep.my_consumed);
  wire::put(ep.local_block, EndpointLayout::kCreditSrcOff, ep.my_consumed);
  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaWrite;
  wr.signaled = false;
  wr.sg_list = {wire::sge(ep.local_block, ep.local_lkey,
                          EndpointLayout::kCreditSrcOff,
                          sizeof ep.my_consumed)};
  wr.remote_addr = ep.peer_block + EndpointLayout::kCreditCellOff;
  wr.rkey = ep.peer_rkey;
  ib_->post_send(ep.qp, std::move(wr));
  ep.my_consumed_reported = ep.my_consumed;
  ++stats_.credits_sent;
}

void Engine::flush_credits() {
  if (!faults_armed_ || !credit_unreported_) return;
  credit_unreported_ = false;
  for (auto& [p, ep] : endpoints_) {
    // A Failed endpoint's peer is gone (or unrecoverable): a credit toward
    // it would post on a dead connection for nothing.
    if (ep.conn_state == ConnState::Failed) continue;
    if (ep.my_consumed > ep.my_consumed_reported) send_credit(ep);
  }
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

void Engine::poll_cq() {
  ib::Wc wc[16];
  for (;;) {
    const int n = ib_->poll_cq(cq_, 16, wc);
    if (n == 0) break;
    for (int i = 0; i < n; ++i) {
      auto it = outstanding_.find(wc[i].wr_id);
      if (it == outstanding_.end()) {
        // An unsignaled WR (wr_id 0: a credit, a probe) completes only when
        // it fails. These are never faulted, so RetryExceeded here means
        // the responder stopped answering.
        if (wc[i].wr_id == 0 && wc[i].status == ib::WcStatus::RetryExceeded) {
          unanswered(wc[i].qp_num);
        }
        continue;
      }
      auto cb = std::move(it->second);
      outstanding_.erase(it);
      cb(wc[i]);
    }
  }
}

void Engine::read_credit_cell(Endpoint& ep) {
  apply_credit(ep, wire::get<std::uint64_t>(ep.remote_block.buf,
                                            EndpointLayout::kCreditCellOff));
}

void Engine::apply_credit(Endpoint& ep, std::uint64_t value) {
  if (value <= ep.consumed_by_peer) return;
  chk().credit_read(rank_, ep.peer, value);
  ep.consumed_by_peer = value;
  // Consumption proven up to `value`: parked delivered-packet records below
  // it can never need a replay, and a tracked packet below it is
  // acknowledged, whatever became of its CQE.
  ep.delivered.erase(ep.delivered.begin(), ep.delivered.lower_bound(value));
  while (!ep.unacked.empty() &&
         ep.unacked.begin()->first < ep.consumed_by_peer) {
    ++stats_.credit_acked;
    finish_tracked(ep, ep.unacked.begin()->second, ib::Wc{});
  }
}

bool Engine::scan_ring(Endpoint& ep) {
  for (;;) {
    const int slot = static_cast<int>(ep.my_consumed % slots());
    const mem::Buffer& block = ep.remote_block.buf;
    const SlotLayout& ring = layout_.ring;
    std::byte* base = block.data() + ring.header_off(slot);
    const auto hdr = wire::get<PacketHeader>(block, ring.header_off(slot));
    if (hdr.magic != kPacketMagic) return false;
    const std::uint64_t plen =
        hdr.type == PacketType::Eager ? hdr.msg_bytes : 0;
    const auto tail = wire::get<PacketTail>(block, ring.tail_off(slot, plen));
    if (tail != kPacketMagic) return true;  // data still in flight
    if (hdr.conn_epoch != ep.epoch) {
      // Cross-epoch traffic: a pre-recovery packet landing in the rebuilt
      // ring (or one that raced the teardown). Fence it out — its sequence
      // number is replayed under the current epoch if it still matters.
      std::memset(base, 0, sizeof hdr);
      std::memset(block.data() + ring.tail_off(slot, plen), 0, sizeof tail);
      ++stats_.epoch_fenced;
      tel_.instant({sim::Track::Faults, rank_}, "epoch-fenced idx=%llu",
                   static_cast<unsigned long long>(hdr.ring_idx));
      return true;
    }
    if (hdr.ring_idx != ep.my_consumed) {
      // A retransmit of an already-consumed packet: scrub the slot and do
      // NOT advance — the slot's real next packet comes later. Its sender
      // holds no ack for it (a lost CQE, no covering credit yet); the idle
      // flush reports the counter before this rank sleeps.
      std::memset(base, 0, sizeof hdr);
      std::memset(block.data() + ring.tail_off(slot, plen), 0, sizeof tail);
      ++stats_.dup_packets_dropped;
      return true;
    }

    // The poll that found the packet costs a core its cycles.
    charge_poll();

    // Failure piggyback: the sender knows of deaths we have not adopted
    // yet — pull the board before dispatching, so a packet that depends on
    // a dead rank is handled with that knowledge in place.
    if (hdr.fail_epoch > known_fail_epoch_) adopt_failures();

    // The header's credit acks like the cell's, when it is news. Widened
    // against the counter it reports on: a retransmit carries its original
    // value, so a delta that is not positive says nothing new. Nor does a
    // value the cell already holds (a period credit posted before this
    // packet); the endpoint's next visit reads that one, as it would
    // without the header.
    const auto delta = static_cast<std::int32_t>(
        hdr.credit - static_cast<std::uint32_t>(ep.consumed_by_peer));
    const std::uint64_t credit =
        ep.consumed_by_peer + static_cast<std::uint64_t>(delta);
    if (delta > 0 && credit > wire::get<std::uint64_t>(
                                  block, EndpointLayout::kCreditCellOff)) {
      ++stats_.credits_piggybacked;
      apply_credit(ep, credit);
    }

    const std::byte* payload = block.data() + ring.payload_off(slot);
    handle_packet(ep, hdr, payload);

    // Release the slot, then occasionally tell the sender.
    std::memset(base, 0, sizeof hdr);
    std::memset(block.data() + ring.tail_off(slot, plen), 0, sizeof tail);
    ++ep.my_consumed;
    chk().packet_consumed(rank_, ep.peer, ep.my_consumed);
    ++stats_.packets_rx;
    // usable_slots_ == slots() unless a fault spec capped the credits; the
    // tighter cap also tightens the reporting period or the ring deadlocks.
    const std::uint64_t credit_period =
        std::max<std::uint64_t>(1, usable_slots_ / 4);
    if (ep.my_consumed - ep.my_consumed_reported >= credit_period) {
      send_credit(ep);
    } else {
      credit_unreported_ = true;
    }
  }
}

void Engine::progress() {
  check_alive();
  if (in_progress_) return;
  in_progress_ = true;
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{in_progress_};

  poll_cq();
  while (!pending_recovery_.empty()) {
    auto fn = std::move(pending_recovery_.front());
    pending_recovery_.pop_front();
    fn();
  }
  service_requests();
  // Direct board pull: piggybacked epochs cover ranks with traffic, and
  // this covers a rank woken by the bootstrap watch with none (e.g.
  // blocked in wait with nothing in flight toward anyone).
  if (bootstrap_.fail_epoch() > known_fail_epoch_) adopt_failures();
  // Visit only the endpoints that may have work, in peer order. Each mark
  // is cleared before its visit and the walk resumes at upper_bound(p), so
  // a peer marked while an earlier visit's poll advanced virtual time is
  // still reached in this pass — exactly as a walk over every endpoint
  // would reach it. Unmarked endpoints would have been empty polls, which
  // cost no virtual time, so the event schedule is unchanged.
  int p = -1;
  for (auto it = active_.begin(); it != active_.end();
       it = active_.upper_bound(p)) {
    p = *it;
    active_.erase(it);
    Endpoint& ep = endpoints_.at(p);
    ++stats_.endpoint_polls;
    bool again = false;
    try {
      read_credit_cell(ep);
      drain_tx(ep);
      again = scan_ring(ep);
    } catch (...) {
      active_.insert(p);  // a packet may still sit at the consume cursor
      throw;
    }
    if (again || !ep.pending_tx.empty()) active_.insert(p);
  }
  // Schedules advance after the endpoint scan so transfers completed this
  // pass unlock their next stages immediately.
  advance_schedules();
  if (!condemned_.empty()) reap_condemned();
  if (fatal_armed_) arm_liveness();
  if (chk().full()) check_idle_endpoints();
}

void Engine::check_idle_endpoints() {
  for (const auto& [p, ep] : endpoints_) {
    if (active_.count(p) > 0) continue;
    const int slot = static_cast<int>(ep.my_consumed % slots());
    const mem::Buffer& block = ep.remote_block.buf;
    const auto hdr =
        wire::get<PacketHeader>(block, layout_.ring.header_off(slot));
    chk().endpoint_idle(rank_, p, hdr.magic != kPacketMagic,
                        ep.pending_tx.empty(),
                        wire::get<std::uint64_t>(
                            block, EndpointLayout::kCreditCellOff) <=
                            ep.consumed_by_peer);
  }
}

void Engine::reap_condemned() {
  std::erase_if(condemned_, [this](CondemnedScratch& c) {
    for (const auto& st : c.waits) {
      if (st && !st->done()) return false;
    }
    for (const mem::Buffer& b : c.bufs) {
      forget_buffer(b);
      ib_->free_buffer(b);
    }
    return true;
  });
}

// ---------------------------------------------------------------------------
// Collective-schedule executor
// ---------------------------------------------------------------------------

Request Engine::start_coll(std::shared_ptr<CollSchedule> sched) {
  auto st = std::make_shared<RequestState>();
  st->kind = RequestState::Kind::Coll;
  st->comm_id = sched->comm_id;
  st->bytes = sched->bytes;
  st->posted_at = ib_->process().now();
  sched->req = st;
  check_alive();
  // ULFM posting guards, mirroring isend/irecv: a collective on a revoked
  // communicator or over a group with a known-dead member can never finish,
  // so the request is born failed without occupying a tag-window slot. The
  // schedule's owned temporaries are freed here — no transfer ever started.
  int dead_member = -1;
  for (int m : known_failed_) {
    if (comm_contains(sched->comm_id, m)) {
      dead_member = m;
      break;
    }
  }
  if (comm_revoked(sched->comm_id) || dead_member >= 0) {
    for (const mem::Buffer& b : sched->owned) {
      forget_buffer(b);
      ib_->free_buffer(b);
    }
    sched->owned.clear();
    if (comm_revoked(sched->comm_id)) {
      fail(st, "collective on revoked communicator", MpiErrc::Revoked);
    } else {
      fail(st, "collective over failed rank", MpiErrc::ProcFailed,
           dead_member);
    }
    return Request(st);
  }
  // Window slot for the alias check: -1 (untracked) for schedules outside
  // the rotating collective tag window.
  const int slot = sched->tag_base >= kCollSchedTagBase
                       ? (sched->tag_base - kCollSchedTagBase) /
                             kCollSchedPhases
                       : -1;
  sched->check_id =
      chk().coll_started(rank_, sched->comm_id, slot, sched->stages.size());
  schedules_.push_back(std::move(sched));
  // Kick stage 0: the nested isend/irecv calls see in_progress_ and post
  // without re-entering the scan.
  progress();
  return Request(st);
}

Request Engine::completed_request() {
  auto st = std::make_shared<RequestState>();
  st->kind = RequestState::Kind::Coll;
  st->phase = RequestState::Phase::Complete;
  st->status = Status{kAnySource, kAnyTag, 0};
  st->posted_at = ib_->process().now();
  return Request(st);
}

void Engine::advance_schedules() {
  if (schedules_.empty()) return;
  bool finished = false;
  // Posting transfers inside advance_schedule never appends to schedules_
  // (start_coll runs in caller context, not in progress), so plain
  // iteration is safe.
  for (auto& sched : schedules_) {
    advance_schedule(*sched);
    finished |= sched->req->done();
  }
  if (finished) {
    std::erase_if(schedules_,
                  [](const std::shared_ptr<CollSchedule>& s) {
                    return s->req->done();
                  });
  }
}

void Engine::advance_schedule(CollSchedule& s) {
  if (s.req->done()) return;
  while (s.stage < s.stages.size()) {
    CollStage& stage = s.stages[s.stage];
    if (stage.pipe) {
      const PipeState ps = pipe_advance(s, *stage.pipe);
      if (ps != PipeState::Done) return;  // Busy, or Failed (already failed)
    } else {
      if (!s.stage_started) {
        chk().stage_started(s.check_id, s.stage);
        s.outstanding.clear();
        s.outstanding.reserve(stage.xfers.size());
        for (const CollXfer& x : stage.xfers) {
          s.outstanding.push_back(
              x.is_send
                  ? isend(x.buf, x.off, x.count, *x.type, x.peer, x.tag,
                          s.comm_id)
                  : irecv(x.buf, x.off, x.count, *x.type, x.peer, x.tag,
                          s.comm_id));
        }
        s.stage_started = true;
      }
      for (Request& r : s.outstanding) {
        if (r.state_->phase == RequestState::Phase::Error) {
          fail_schedule(s, r.state_->error, r.state_->errc, r.state_->err_peer);
          return;
        }
        if (!r.done()) return;
      }
      s.outstanding.clear();
    }
    for (const CollLocal& l : stage.locals) run_coll_local(l);
    s.stage_started = false;
    ++s.stage;
  }
  finish_schedule(s);
}

Engine::PipeState Engine::pipe_advance(CollSchedule& s, CollPipe& p) {
  const std::size_t es = p.type->size();
  const auto nseg = [&p](std::size_t len) {
    return len == 0 ? std::size_t{0} : (len + p.seg_elems - 1) / p.seg_elems;
  };
  const std::size_t nout = nseg(p.out_len);
  const std::size_t nin = nseg(p.in_len);
  const std::size_t seg_bytes = p.seg_elems * es;
  const auto seg_len = [&p](std::size_t j) {
    return std::min(p.seg_elems, p.in_len - j * p.seg_elems);
  };

  if (!p.started) {
    chk().stage_started(s.check_id, s.stage);
    // All outgoing segments go up first (they read ranges this step never
    // writes), keeping the wire busy while incoming segments fold.
    p.sends.reserve(nout);
    for (std::size_t j = 0; j < nout; ++j) {
      const std::size_t lo = j * p.seg_elems;
      const std::size_t n = std::min(p.seg_elems, p.out_len - lo);
      p.sends.push_back(isend(p.buf, p.base + (p.out_off + lo) * es, n,
                              *p.type, p.to, p.tag, s.comm_id));
    }
    if (!p.has_op) {
      // Pure data movement: all incoming segments straight into place.
      p.recvs.reserve(nin);
      for (std::size_t j = 0; j < nin; ++j) {
        const std::size_t lo = j * p.seg_elems;
        const std::size_t n = std::min(p.seg_elems, p.in_len - lo);
        p.recvs.push_back(irecv(p.buf, p.base + (p.in_off + lo) * es, n,
                                *p.type, p.from, p.tag, s.comm_id));
      }
      p.posted = nin;
    }
    p.started = true;
  }

  if (p.has_op) {
    // Double-buffered reduction pipeline: segment j+1 is in flight into the
    // other scratch half while segment j is folded, exactly two receives
    // ahead of the fold cursor.
    const auto post_ahead = [&] {
      while (p.posted < nin && p.posted < p.combined + 2) {
        p.recvs.push_back(irecv(p.scratch, (p.posted % 2) * seg_bytes,
                                seg_len(p.posted), *p.type, p.from, p.tag,
                                s.comm_id));
        ++p.posted;
      }
    };
    post_ahead();
    while (p.combined < nin) {
      Request& r = p.recvs[p.combined];
      if (r.state_->phase == RequestState::Phase::Error) {
        fail_schedule(s, r.state_->error, r.state_->errc, r.state_->err_peer);
        return PipeState::Failed;
      }
      if (!r.done()) break;
      combine(p.op, *p.type, p.buf,
              p.base + (p.in_off + p.combined * p.seg_elems) * es, p.scratch,
              (p.combined % 2) * seg_bytes, seg_len(p.combined));
      ++p.combined;
      post_ahead();
    }
    if (p.combined < nin) return PipeState::Busy;
  } else {
    while (p.combined < nin) {
      Request& r = p.recvs[p.combined];
      if (r.state_->phase == RequestState::Phase::Error) {
        fail_schedule(s, r.state_->error, r.state_->errc, r.state_->err_peer);
        return PipeState::Failed;
      }
      if (!r.done()) return PipeState::Busy;
      ++p.combined;
    }
  }

  for (Request& r : p.sends) {
    if (r.state_->phase == RequestState::Phase::Error) {
      fail_schedule(s, r.state_->error, r.state_->errc, r.state_->err_peer);
      return PipeState::Failed;
    }
    if (!r.done()) return PipeState::Busy;
  }
  stats_.coll_segments += nout + nin;
  return PipeState::Done;
}

void Engine::run_coll_local(const CollLocal& l) {
  if (l.kind == CollLocal::Kind::Copy) {
    wire::put_bytes(l.dst, l.dst_off, l.src.data() + l.src_off, l.count);
  } else {
    combine(l.op, *l.type, l.dst, l.dst_off, l.src, l.src_off, l.count);
  }
}

void Engine::finish_schedule(CollSchedule& s) {
  chk().coll_finished(s.check_id);
  for (const mem::Buffer& b : s.owned) {
    forget_buffer(b);
    ib_->free_buffer(b);
  }
  s.owned.clear();
  if (s.algo_counter) ++*s.algo_counter;
  ++stats_.coll_schedules;
  auto& st = *s.req;
  st.status = Status{kAnySource, kAnyTag, s.bytes};
  st.phase = RequestState::Phase::Complete;
  if (s.label) {
    tel_.span({sim::Track::Rank, rank_}, st.posted_at, ib_->process().now(),
              s.label, s.label_algo, s.label_bytes);
  }
  wake_.notify_all();
}

void Engine::fail_schedule(CollSchedule& s, std::string why, MpiErrc errc,
                           int peer) {
  if (s.req->done()) return;
  chk().coll_failed(s.check_id);
  classify_failure(why, errc, peer);
  // Owned temporaries cannot be freed here — transfers of the cancelled
  // stage may still land in them. Park them with every still-pending
  // request state; reap_condemned() frees the lot once all are terminal
  // (revocation poisons the whole comm, so that point arrives promptly).
  if (!s.owned.empty()) {
    CondemnedScratch c;
    c.bufs = std::move(s.owned);
    s.owned.clear();
    const auto park = [&c](const Request& r) {
      if (r.state_ && !r.state_->done()) c.waits.push_back(r.state_);
    };
    for (const Request& r : s.outstanding) park(r);
    for (CollStage& stage : s.stages) {
      if (!stage.pipe) continue;
      for (const Request& r : stage.pipe->sends) park(r);
      for (const Request& r : stage.pipe->recvs) park(r);
    }
    condemned_.push_back(std::move(c));
  }
  tel_.log(sim::Verbosity::Error, {sim::Track::Rank, rank_},
           "collective schedule error: %s", why.c_str());
  auto& st = *s.req;
  st.error = std::move(why);
  st.errc = errc;
  st.err_peer = peer;
  st.phase = RequestState::Phase::Error;
  wake_.notify_all();
}

// ---------------------------------------------------------------------------
// Completion / wait
// ---------------------------------------------------------------------------

void Engine::complete(const std::shared_ptr<RequestState>& req, int source,
                      int tag, std::size_t bytes) {
  // A request the failure layer already condemned (dead peer, revoked comm)
  // stays failed even if its last transfer races to a successful verdict.
  if (req->done()) return;
  if (req->race_id != 0) {
    chk().race_end(req->race_id);
    req->race_id = 0;
  }
  req->status = Status{source, tag, bytes};
  req->phase = RequestState::Phase::Complete;
  const char* what = req->kind == RequestState::Kind::Send
                         ? (req->used_offload_shadow ? "send(offload)" : "send")
                         : "recv";
  tel_.span({sim::Track::Rank, rank_}, req->posted_at, ib_->process().now(),
            "%s %zuB tag=%d", what, bytes, req->tag);
  if (auto it = packed_.find(req.get()); it != packed_.end()) {
    try {
      phi_->dereg_offload_mr(it->second);
    } catch (const core::CmdError&) {
      // Best-effort teardown: a failing CMD channel must not turn a
      // completed request into a rank-fatal error.
    }
    packed_.erase(it);
  }
  if (req->has_pack) {
    forget_buffer(req->pack_buf);
    ib_->free_buffer(req->pack_buf);
    req->has_pack = false;
  }
  wake_.notify_all();
}

void Engine::fail(const std::shared_ptr<RequestState>& req, std::string why,
                  MpiErrc errc, int peer) {
  if (req->done()) return;
  if (req->race_id != 0) {
    // A failed request releases its buffer too: the transport stops
    // touching it the moment the request is condemned.
    chk().race_end(req->race_id);
    req->race_id = 0;
  }
  classify_failure(why, errc, peer);
  tel_.log(sim::Verbosity::Error, {sim::Track::Rank, rank_},
           "request error: %s", why.c_str());
  req->error = std::move(why);
  req->errc = errc;
  req->err_peer = peer;
  req->phase = RequestState::Phase::Error;
  wake_.notify_all();
}

void Engine::classify_failure(std::string& why, MpiErrc& errc, int& peer) {
  // Callbacks that predate the FT layer fail with no taxonomy; an active
  // blame scope (set around callback invocation by whoever knows the real
  // cause) supplies it so the classification survives the indirection.
  if (errc == MpiErrc::Other) {
    errc = blame_errc_;
    if (peer < 0) peer = blame_peer_;
  }
  if (errc != MpiErrc::Other) {
    why += std::string(" [errc=") + errc_name(errc) +
           (peer >= 0 ? " peer=" + std::to_string(peer) : std::string()) + "]";
  }
  if (errc == MpiErrc::ProcFailed) ++stats_.proc_failed_ops;
}

Status Engine::wait(Request& req) {
  if (!req.valid()) throw MpiError("wait: null request");
  auto& st = *req.state_;
  wait_until([&st] { return st.done(); });
  st.throw_if_failed();
  return st.status;
}

bool Engine::test(Request& req) {
  if (!req.valid()) throw MpiError("test: null request");
  // Like iprobe: a test costs a poll even when idle, so test() spin loops
  // advance the virtual clock instead of livelocking the simulation.
  charge_poll();
  progress();
  req.state_->throw_if_failed();
  return req.state_->done();
}

std::size_t Engine::waitany(std::span<Request> reqs) {
  bool any_valid = false;
  for (const Request& r : reqs) any_valid |= r.valid();
  if (!any_valid) return SIZE_MAX;
  std::size_t hit = SIZE_MAX;
  block_until([&] {
    progress();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid() || !reqs[i].done()) continue;
      hit = i;
      return true;
    }
    return false;
  });
  reqs[hit].state_->throw_if_failed();
  return hit;
}

bool Engine::testall(std::span<Request> reqs) {
  charge_poll();
  progress();
  bool all = true;
  for (const Request& r : reqs) {
    if (!r.valid()) continue;
    r.state_->throw_if_failed();
    all &= r.done();
  }
  return all;
}

std::optional<std::size_t> Engine::testany(std::span<Request> reqs) {
  charge_poll();
  progress();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].valid() || !reqs[i].done()) continue;
    reqs[i].state_->throw_if_failed();
    return i;
  }
  return std::nullopt;
}

}  // namespace dcfa::mpi
