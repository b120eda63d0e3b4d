#include "mpi/channel.hpp"

#include <cstring>

namespace dcfa::mpi {

Channel::Channel(Communicator& comm, int peer, const mem::Buffer& send_buf,
                 std::size_t soff, const mem::Buffer& recv_buf,
                 std::size_t roff, std::size_t bytes)
    : comm_(comm),
      peer_(peer),
      bytes_(bytes),
      send_buf_(send_buf),
      soff_(soff),
      recv_buf_(recv_buf),
      roff_(roff) {
  if (peer < 0 || peer >= comm.size()) {
    throw MpiError("Channel: bad peer rank");
  }
  if (soff + bytes > send_buf.size() || roff + bytes > recv_buf.size()) {
    throw MpiError("Channel: region escapes buffer");
  }
  peer_world_ = comm_.world_rank(peer_);
  id_ = comm_.next_channel_id();
  db_id_ = comm_.next_channel_id();

  // --- The one-time negotiation (everything the hot path never does) -------
  Engine& e = eng();
  ++e.coll_stats().channel_negotiations;
  ctrl_ = comm_.alloc(16);
  std::memset(ctrl_.data(), 0, 16);
  send_mr_ = e.expose_window_mr(send_buf_);
  recv_mr_ = e.expose_window_mr(recv_buf_);
  ctrl_mr_ = e.expose_window_mr(ctrl_);
  // Large co-processor payloads leave through the offload host shadow, same
  // as rendezvous. Decide that now and warm the shadow — its one-time
  // registration belongs with the rest of the negotiation, not in the first
  // post(). A shadow the host delegation failed is not asked for again:
  // the payloads leave from send_buf_'s own MR.
  offload_ = peer_ != comm_.rank() &&
             e.stage_offload(send_buf_, soff_, bytes_).has_value();

  // Tell the checker which remote keys we are handing out, so the bounds
  // ledger can audit every incoming write against them.
  sim::Checker& chk = e.checker();
  chk.rma_exposed(e.rank(), id_, recv_buf_.addr() + roff_, bytes_);
  chk.rma_exposed(e.rank(), db_id_, ctrl_.addr(), 8);

  // Exchange (recv region, doorbell cell) with the peer. Self-channels
  // skip the wire — we already know our own addresses.
  struct Adv {
    mem::SimAddr recv_addr;
    ib::MKey recv_rkey;
    mem::SimAddr db_addr;
    ib::MKey db_rkey;
  };
  Adv mine{recv_buf_.addr() + roff_, recv_mr_->rkey(), ctrl_.addr(),
           ctrl_mr_->rkey()};
  if (peer_ == comm_.rank()) {
    peer_recv_addr_ = mine.recv_addr;
    peer_recv_rkey_ = mine.recv_rkey;
    peer_db_addr_ = mine.db_addr;
    peer_db_rkey_ = mine.db_rkey;
    return;
  }
  mem::Buffer sadv = comm_.alloc(sizeof(Adv));
  mem::Buffer radv = comm_.alloc(sizeof(Adv));
  std::memcpy(sadv.data(), &mine, sizeof mine);
  comm_.sendrecv(sadv, 0, sizeof(Adv), type_byte(), peer_, kSetupTag, radv,
                 0, sizeof(Adv), type_byte(), peer_, kSetupTag);
  Adv theirs;
  std::memcpy(&theirs, radv.data(), sizeof theirs);
  comm_.free(sadv);
  comm_.free(radv);
  peer_recv_addr_ = theirs.recv_addr;
  peer_recv_rkey_ = theirs.recv_rkey;
  peer_db_addr_ = theirs.db_addr;
  peer_db_rkey_ = theirs.db_rkey;
}

Channel::~Channel() {
  if (closed_) return;
  // Forgotten close() on an unwinding fiber: release local resources
  // best-effort, never throw out of a destructor.
  try {
    close();
  } catch (...) {}
}

void Channel::post() {
  if (closed_) throw MpiError("Channel: post after close");
  Engine& e = eng();
  ++e.coll_stats().channel_posts;
  ++posts_;
  ++local_pending_;
  // Payload first, doorbell from its completion callback: both writes ride
  // the same queue pair in order, so the doorbell value can never outrun
  // the payloads it advertises (the doorbell snapshots posts_ at ring
  // time, which only ever covers payloads already posted before it).
  // Stage large co-processor payloads through the offload host shadow
  // (pre-registered at negotiation time, so this is a PCIe sync, never an
  // MR exchange). Self-channels copy directly — no wire, no staging.
  std::optional<Engine::Exposure> staged;
  if (offload_) staged = e.stage_offload(send_buf_, soff_, bytes_);
  e.rma_post(
      peer_world_, ib::Opcode::RdmaWrite,
      staged ? staged->addr : send_buf_.addr() + soff_,
      staged ? staged->lkey : send_mr_->lkey(), bytes_, peer_recv_addr_,
      peer_recv_rkey_, sim::CheckKind::RaceChannelCell,
      sim::Checker::AccessOp::Write, "channel post", [this] {
        Engine& en = eng();
        const std::uint64_t advertised = posts_;
        std::memcpy(ctrl_.data() + 8, &advertised, sizeof advertised);
        // DcfaRace HB edge source: the doorbell about to ring advertises
        // `advertised` arrivals; whoever observes that count (or more)
        // is ordered after everything this rank did up to here —
        // including the payload write, whose tracked access closed in
        // the completion that invoked this callback.
        en.checker().channel_posted(en.rank(), peer_db_addr_, advertised);
        en.rma_post(peer_world_, ib::Opcode::RdmaWrite, ctrl_.addr() + 8,
                    ctrl_mr_->lkey(), 8, peer_db_addr_, peer_db_rkey_,
                    sim::CheckKind::RaceChannelCell,
                    sim::Checker::AccessOp::Write, "channel post",
                    [this] { --local_pending_; });
      });
}

std::uint64_t Channel::arrivals() const {
  std::uint64_t v = 0;
  std::memcpy(&v, ctrl_.data(), sizeof v);
  return v;
}

void Channel::wait_arrival() {
  if (closed_) throw MpiError("Channel: wait_arrival after close");
  Engine& e = eng();
  const std::uint64_t want = ++expected_;
  e.wait_until([this, &e, want] {
    return arrivals() >= want || e.rank_failed(peer_world_);
  });
  if (arrivals() < want) {
    ++e.coll_stats().proc_failed_ops;
    throw MpiError("Channel: peer rank died before arrival " +
                       std::to_string(want),
                   MpiErrc::ProcFailed, peer_world_, comm_.id());
  }
  // DcfaRace HB edge sink: we observed the doorbell value, so we are
  // ordered after every post whose ring advertised at most that count.
  // The poster keyed its releases by our cell's address (its
  // peer_db_addr_), which is exactly ctrl_.addr() here.
  e.checker().channel_waited(e.rank(), ctrl_.addr(), arrivals());
}

void Channel::wait_local() {
  if (closed_) throw MpiError("Channel: wait_local after close");
  eng().wait_until([this] { return local_pending_ == 0; });
}

void Channel::close() {
  if (closed_) return;
  closed_ = true;
  Engine& e = eng();
  // Quiesce our own posts (skip if the peer died — the WRs were failed).
  if (!e.rank_failed(peer_world_)) {
    e.wait_until([this] { return local_pending_ == 0; });
  }
  sim::Checker& chk = e.checker();
  chk.rma_unexposed(e.rank(), id_);
  chk.rma_unexposed(e.rank(), db_id_);
  if (send_mr_) e.release_window_mr(send_mr_);
  if (recv_mr_) e.release_window_mr(recv_mr_);
  if (ctrl_mr_) e.release_window_mr(ctrl_mr_);
  send_mr_ = recv_mr_ = ctrl_mr_ = nullptr;
  if (ctrl_.valid()) comm_.free(ctrl_);
}

}  // namespace dcfa::mpi
