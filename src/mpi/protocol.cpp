#include <cassert>
#include <cstring>

#include "mpi/engine.hpp"
#include "mpi/wire.hpp"

namespace dcfa::mpi {

namespace {
/// Real-bytes pointer to the request's user window.
std::byte* user_ptr(const std::shared_ptr<RequestState>& req) {
  return req->buffer.data() + req->offset;
}

/// Where a request's wire bytes live: the pack buffer of a non-contiguous
/// datatype, else the user buffer at its offset.
struct Payload {
  const mem::Buffer& buf;
  std::size_t off;
  std::byte* data() const { return buf.data() + off; }
};
Payload payload(const RequestState& req) {
  return req.has_pack ? Payload{req.pack_buf, 0}
                      : Payload{req.buffer, req.offset};
}
}  // namespace

void Engine::charge_pack(std::size_t bytes) {
  const bool on_phi = ib_->data_domain() == mem::Domain::PhiGddr;
  ib_->process().wait(sim::transfer_time(
      bytes, on_phi ? platform_.phi_pack_gbps : platform_.host_pack_gbps));
}

void Engine::charge_poll() {
  const bool on_phi = ib_->data_domain() == mem::Domain::PhiGddr;
  ib_->process().wait(on_phi ? platform_.phi_poll_overhead
                             : platform_.host_poll_overhead);
}

// ---------------------------------------------------------------------------
// Posting
// ---------------------------------------------------------------------------

bool Engine::born_failed(const std::shared_ptr<RequestState>& st) {
  const bool send = st->kind == RequestState::Kind::Send;
  const char* op = send ? "isend" : "irecv";
  const int peer = st->peer;
  const auto it = endpoints_.find(peer);  // none for self or a wildcard
  if (comm_revoked(st->comm_id)) {
    fail(st, std::string(op) + " on revoked communicator", MpiErrc::Revoked);
  } else if (peer != rank_ && rank_failed(peer)) {
    fail(st, std::string(op) + (send ? " to" : " from") + " failed rank",
         MpiErrc::ProcFailed, peer);
  } else if (it != endpoints_.end() && it->second.abandoned) {
    fail(st, std::string(op) + " over an abandoned connection",
         MpiErrc::RetryExhausted, peer);
  } else {
    return false;
  }
  return true;
}

Request Engine::isend(const mem::Buffer& buf, std::size_t offset,
                      std::size_t count, const Datatype& type, int dst,
                      int tag, std::uint32_t comm_id, bool sync) {
  if (dst < 0 || dst >= nranks_) throw MpiError("isend: bad destination");
  if (tag < 0) throw MpiError("isend: negative tag");
  const std::size_t bytes = count * type.size();
  if (offset + count * type.extent() > buf.size() && count > 0) {
    throw MpiError("isend: window escapes buffer");
  }

  // Drain incoming traffic first: an RTR (or the whole message) may already
  // be waiting in the ring, which decides the protocol below.
  progress();

  auto st = std::make_shared<RequestState>();
  st->posted_at = ib_->process().now();
  st->kind = RequestState::Kind::Send;
  st->peer = dst;
  st->tag = tag;
  st->comm_id = comm_id;
  st->bytes = bytes;
  st->buffer = buf;
  st->offset = offset;
  st->type = &type;
  st->count = count;

  // Non-contiguous layouts are packed up front — by the host CPU when the
  // DCFA-MPI CMD delegation is enabled (the paper's Section VI future
  // work), otherwise locally on this core.
  if (!type.is_contiguous() && count > 0) {
    if (dst == rank_ || !try_offload_pack(st)) {
      st->pack_buf = ib_->alloc_buffer(std::max<std::size_t>(bytes, 1), 64);
      st->has_pack = true;
      type.pack(user_ptr(st), st->pack_buf.data(), count);
      charge_pack(bytes);
    }
  }

  st->sync_mode = sync;
  if (born_failed(st)) return Request(st);
  // DcfaRace: the user window is read by the transport until the request
  // completes; a concurrent unordered write to it is a buffer-reuse race.
  // Packed (non-contiguous) sends snapshot into pack_buf above, so the
  // user window is free the moment isend returns — not tracked.
  if (!st->has_pack && bytes > 0) {
    st->race_id = chk().race_begin(sim::CheckKind::RaceBufferReuse, rank_,
                                   rank_, buf.addr() + offset, bytes,
                                   sim::Checker::AccessOp::Read,
                                   "isend buffer");
  }
  if (dst == rank_) {
    self_send(st);
  } else {
    Endpoint& ep = endpoint(dst);
    Channel& ch = channel(ep, comm_id, tag);
    st->seq = ch.next_send_seq++;
    chk().send_seq_assigned(rank_, dst, comm_id, tag, st->seq);
    st->seq_assigned = true;
    ch.sends[st->seq] = st;
    start_send(st);
  }
  return Request(st);
}

std::optional<Status> Engine::iprobe(int src, int tag,
                                     std::uint32_t comm_id) {
  // A probe costs real cycles even when it finds nothing — and charging
  // them is what lets an application-level iprobe spin loop make progress
  // at all in the cooperative simulation.
  charge_poll();
  progress();
  // Deferred wildcard receives are ahead of any probe in matching order;
  // while the lock holds, a probe must not report their packets.
  auto crit = comm_recv_.find(comm_id);
  if (crit != comm_recv_.end() && !crit->second.deferred.empty()) {
    return std::nullopt;
  }
  for (int s = 0; s < nranks_; ++s) {
    if (src != kAnySource && src != s) continue;
    if (s == rank_) {
      for (auto& [key, sc] : self_channels_) {
        if (key.first != comm_id) continue;
        if (tag == kAnyTag && key.second >= kInternalTagBase) continue;
        if (tag != kAnyTag && tag != key.second) continue;
        auto it = sc.arrived.find(sc.next_assign_seq);
        if (it != sc.arrived.end()) {
          return Status{s, key.second, it->second.bytes};
        }
      }
      continue;
    }
    auto eit = endpoints_.find(s);
    if (eit == endpoints_.end()) continue;
    for (auto& [key, ch] : eit->second.channels) {
      if (key.first != comm_id) continue;
      if (tag == kAnyTag && key.second >= kInternalTagBase) continue;
      if (tag != kAnyTag && tag != key.second) continue;
      auto it = ch.arrived.find(ch.next_assign_seq);
      if (it != ch.arrived.end()) {
        return Status{s, key.second,
                      static_cast<std::size_t>(it->second.hdr.msg_bytes)};
      }
    }
  }
  return std::nullopt;
}

Status Engine::probe(int src, int tag, std::uint32_t comm_id) {
  std::optional<Status> st;
  block_until([&] { return (st = iprobe(src, tag, comm_id)).has_value(); });
  return *st;
}

Request Engine::irecv(const mem::Buffer& buf, std::size_t offset,
                      std::size_t count, const Datatype& type, int src,
                      int tag, std::uint32_t comm_id) {
  if (src != kAnySource && (src < 0 || src >= nranks_)) {
    throw MpiError("irecv: bad source");
  }
  if (tag != kAnyTag && tag < 0) throw MpiError("irecv: negative tag");
  const std::size_t bytes = count * type.size();
  if (offset + count * type.extent() > buf.size() && count > 0) {
    throw MpiError("irecv: window escapes buffer");
  }

  progress();

  auto st = std::make_shared<RequestState>();
  st->posted_at = ib_->process().now();
  st->kind = RequestState::Kind::Recv;
  st->phase = RequestState::Phase::WaitingPacket;
  st->peer = src;
  st->tag = tag;
  st->comm_id = comm_id;
  st->bytes = bytes;
  st->buffer = buf;
  st->offset = offset;
  st->type = &type;
  st->count = count;
  if (!type.is_contiguous() && count > 0) {
    st->pack_buf = ib_->alloc_buffer(std::max<std::size_t>(bytes, 1), 64);
    st->has_pack = true;
  }

  if (born_failed(st)) return Request(st);
  // DcfaRace: the transport writes the user window until completion (the
  // self path below can complete synchronously, so open the access first).
  // Non-contiguous receives land in pack_buf and only touch the user
  // window at unpack inside the completion funnel — not tracked.
  if (!st->has_pack && bytes > 0) {
    st->race_id = chk().race_begin(sim::CheckKind::RaceBufferReuse, rank_,
                                   rank_, buf.addr() + offset, bytes,
                                   sim::Checker::AccessOp::Write,
                                   "irecv buffer");
  }

  CommRecv& cr = comm_recv_[comm_id];
  const bool wildcard = src == kAnySource || tag == kAnyTag;
  if (!cr.deferred.empty()) {
    // A wildcard request ahead of us holds the sequence lock — the paper's
    // "all the sequences for receive requests will be locked".
    cr.deferred.push_back(st);
    return Request(st);
  }
  if (wildcard) {
    const auto match = find_wildcard_match(st);
    if (!match) {
      cr.deferred.push_back(st);  // lock engages
    } else if (match->src == rank_) {
      self_activate_recv(st, match->tag);
    } else {
      Endpoint& ep = endpoint(match->src);
      Channel& ch = channel(ep, comm_id, match->tag);
      st->seq = ch.next_assign_seq++;
      chk().recv_seq_assigned(rank_, match->src, comm_id, match->tag,
                              st->seq);
      st->seq_assigned = true;
      activate_recv(ep, ch, st);
    }
  } else if (src == rank_) {
    self_activate_recv(st, tag);
  } else {
    Endpoint& ep = endpoint(src);
    Channel& ch = channel(ep, comm_id, tag);
    st->seq = ch.next_assign_seq++;
    chk().recv_seq_assigned(rank_, src, comm_id, tag, st->seq);
    st->seq_assigned = true;
    activate_recv(ep, ch, st);
  }
  return Request(st);
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void Engine::start_send(const std::shared_ptr<RequestState>& req) {
  Endpoint& ep = endpoint(req->peer);
  Channel& ch = channel(ep, req->comm_id, req->tag);

  if (req->bytes < platform_.eager_threshold && !req->sync_mode) {
    // A stale RTR may already be waiting (receiver predicted rendezvous);
    // the eager data will satisfy the receive, the RTR is dropped.
    if (ch.arrived_rtr.erase(req->seq) > 0) {
      req->dropped_rtr = true;
      ++stats_.rtrs_dropped;
    }
    send_eager(ep, req);
    return;
  }

  ++stats_.rndv_sends;
  auto rtr_it = ch.arrived_rtr.find(req->seq);
  if (rtr_it != ch.arrived_rtr.end()) {
    // Receiver-first rendezvous: the RTR beat the send.
    PacketHeader rtr = rtr_it->second;
    ch.arrived_rtr.erase(rtr_it);
    rdma_write_to(ep, req, rtr);
    return;
  }
  send_rts(ep, req);
}

void Engine::send_eager(Endpoint& ep, const std::shared_ptr<RequestState>& req) {
  ++stats_.eager_sends;
  tx(ep, [this, &ep, req] {
    PacketHeader hdr;
    hdr.type = PacketType::Eager;
    hdr.src_rank = rank_;
    hdr.tag = req->tag;
    hdr.comm_id = req->comm_id;
    hdr.seq = req->seq;
    hdr.msg_bytes = req->bytes;
    const std::byte* data = payload(*req).data();
    if (faults_armed_) {
      // Reliable mode: the packet write may be dropped or errored, so MPI
      // completion is deferred to the transport's delivery verdict (CQE
      // success, credit acknowledgement, or budget exhaustion).
      req->phase = RequestState::Phase::EagerSent;
      emit_packet(
          ep, hdr, data, req->bytes,
          [this, &ep, req](const ib::Wc& wc) {
            Channel& ch = channel(ep, req->comm_id, req->tag);
            ch.sends.erase(req->seq);
            if (wc.status != ib::WcStatus::Success) {
              fail(req, std::string("eager delivery failed after retries: ") +
                            ib::wc_status_name(wc.status));
              return;
            }
            complete(req, rank_, req->tag, req->bytes);
          },
          req);
      return;
    }
    emit_packet(ep, hdr, data, req->bytes);
    // One-copy semantics: once staged, the user buffer is free — the send
    // is complete for MPI purposes.
    req->phase = RequestState::Phase::EagerSent;
    Channel& ch = channel(ep, req->comm_id, req->tag);
    ch.sends.erase(req->seq);
    complete(req, rank_, req->tag, req->bytes);
  }, req);
}

Engine::Exposure Engine::expose_send_payload(
    const std::shared_ptr<RequestState>& req) {
  if (auto it = packed_.find(req.get()); it != packed_.end()) {
    // Host-packed payload: already dense, already in host DRAM, already
    // registered — nothing left to stage.
    req->used_offload_shadow = true;
    const core::OffloadRegion& r = it->second;
    return Exposure{r.host_addr, r.lkey, r.rkey};
  }
  const auto [pbuf, poff] = payload(*req);
  if (auto staged = stage_offload(pbuf, poff, req->bytes)) {
    req->used_offload_shadow = true;
    return *staged;
  }
  ib::MemoryRegion* mr = register_window(pbuf);
  if (!options_.mr_cache) req->window_mr = mr;
  return Exposure{pbuf.addr() + poff, mr->lkey(), mr->rkey()};
}

std::optional<Engine::Exposure> Engine::stage_offload(const mem::Buffer& buf,
                                                      std::size_t off,
                                                      std::size_t bytes) {
  if (!shadow_cache_ || bytes < platform_.offload_send_threshold ||
      buf.domain() != mem::Domain::PhiGddr) {
    return std::nullopt;
  }
  // Sync the latest data into the host shadow with the Phi DMA engine, so
  // the HCA reads host memory. If the host delegation definitively failed
  // the shadow registration (after the CMD client's own retries), the
  // caller exposes the buffer through a plain MR: slower, but the bytes
  // still flow.
  try {
    const core::OffloadRegion& region = shadow_cache_->get(buf);
    phi_->sync_offload_mr(region, buf, off, bytes);
    ++stats_.offload_syncs;
    stats_.offload_sync_bytes += bytes;
    return Exposure{region.host_addr + off, region.lkey, region.rkey};
  } catch (const core::CmdError&) {
    ++stats_.offload_fallbacks;
    return std::nullopt;
  }
}

ib::MemoryRegion* Engine::register_window(const mem::Buffer& buf) {
  // A definitive CMD failure on a plain registration has no fallback —
  // surface it as a clean MPI error rather than a transport exception.
  try {
    if (options_.mr_cache) return mr_cache_->get(buf);
    return ib_->reg_mr(pd_, buf,
                       ib::kLocalWrite | ib::kRemoteRead | ib::kRemoteWrite);
  } catch (const core::CmdError& e) {
    throw MpiError(std::string("memory registration failed: ") + e.what());
  }
}

void Engine::release_window(ib::MemoryRegion* mr) {
  if (!options_.mr_cache && mr) ib_->dereg_mr(mr);
}

bool Engine::try_offload_pack(const std::shared_ptr<RequestState>& req) {
  if (!options_.offload_datatypes || !phi_) return false;
  if (req->bytes < platform_.mpi_offload_threshold) return false;
  const Datatype& type = *req->type;
  const std::size_t extent_bytes = req->count * type.extent();

  // Stage the whole strided extent into a host scratch buffer with the Phi
  // DMA engine, then let the host CPU pack it densely into a registered
  // host buffer that doubles as the offloading send buffer.
  mem::NodeMemory& node = phi_->node_memory();
  mem::Buffer scratch = node.alloc(mem::Domain::HostDram, extent_bytes, 4096);
  phi_->pcie().dma(ib_->process(), req->buffer.domain(),
                   req->buffer.addr() + req->offset, mem::Domain::HostDram,
                   scratch.addr(), extent_bytes);

  std::vector<core::PackBlock> blocks;
  blocks.reserve(type.blocks().size());
  for (const Datatype::Block& b : type.blocks()) {
    blocks.push_back({b.offset, b.length});
  }
  core::OffloadRegion region;
  try {
    region = phi_->pack_shadow(pd_, scratch.addr(), req->count, type.extent(),
                               req->bytes, blocks);
  } catch (const core::CmdError&) {
    // Host-side pack delegation definitively failed: fall back to packing
    // locally on this core (the caller's non-offloaded path).
    node.space(mem::Domain::HostDram).free(scratch);
    ++stats_.offload_fallbacks;
    return false;
  }
  node.space(mem::Domain::HostDram).free(scratch);
  packed_[req.get()] = region;
  ++stats_.packs_offloaded;
  return true;
}

void Engine::combine(Op op, const Datatype& type, const mem::Buffer& acc,
                     std::size_t acc_off, const mem::Buffer& in,
                     std::size_t in_off, std::size_t count) {
  core::ElemKind kind;
  switch (type.kind()) {
    case Datatype::Kind::Int: kind = core::ElemKind::Int32; break;
    case Datatype::Kind::Int64: kind = core::ElemKind::Int64; break;
    case Datatype::Kind::Float: kind = core::ElemKind::Float; break;
    case Datatype::Kind::Double: kind = core::ElemKind::Double; break;
    default:
      throw MpiError("reduce: datatype has no arithmetic kind");
  }
  core::ReduceFn fn;
  switch (op) {
    case Op::Sum: fn = core::ReduceFn::Sum; break;
    case Op::Prod: fn = core::ReduceFn::Prod; break;
    case Op::Max: fn = core::ReduceFn::Max; break;
    case Op::Min: fn = core::ReduceFn::Min; break;
    default: throw MpiError("reduce: unknown op");
  }
  const std::size_t bytes = count * type.size();

  if (options_.offload_reductions && phi_ &&
      bytes >= platform_.mpi_offload_threshold) {
    // DCFA-MPI CMD ReduceShadow: stage both operands host-side, let the
    // Xeon crunch them, pull the result back (Section VI future work).
    mem::NodeMemory& node = phi_->node_memory();
    mem::Buffer ha = node.alloc(mem::Domain::HostDram, bytes, 4096);
    mem::Buffer hb = node.alloc(mem::Domain::HostDram, bytes, 4096);
    auto& proc = ib_->process();
    phi_->pcie().dma(proc, acc.domain(), acc.addr() + acc_off,
                     mem::Domain::HostDram, ha.addr(), bytes);
    phi_->pcie().dma(proc, in.domain(), in.addr() + in_off,
                     mem::Domain::HostDram, hb.addr(), bytes);
    bool delegated = true;
    try {
      phi_->reduce_shadow(ha.addr(), hb.addr(), count, kind, fn);
    } catch (const core::CmdError&) {
      // Delegation definitively failed: fall through to the local combine.
      ++stats_.offload_fallbacks;
      delegated = false;
    }
    if (delegated) {
      phi_->pcie().dma(proc, mem::Domain::HostDram, ha.addr(), acc.domain(),
                       acc.addr() + acc_off, bytes);
    }
    node.space(mem::Domain::HostDram).free(ha);
    node.space(mem::Domain::HostDram).free(hb);
    if (delegated) {
      ++stats_.reductions_offloaded;
      return;
    }
  }

  // Local combine on the owning core.
  const bool on_phi = ib_->data_domain() == mem::Domain::PhiGddr;
  ib_->process().wait(sim::transfer_time(
      2 * bytes,
      on_phi ? platform_.phi_reduce_gbps : platform_.host_reduce_gbps));
  core::apply_reduce(kind, fn, acc.data() + acc_off, in.data() + in_off,
                     count);
}

void Engine::send_rts(Endpoint& ep, const std::shared_ptr<RequestState>& req) {
  const Exposure e = expose_send_payload(req);
  req->phase = RequestState::Phase::RtsSent;
  ++stats_.sender_first;
  tx(ep, [this, &ep, req, e] {
    emit_control(ep, PacketType::Rts, req, e.addr, e.rkey, req->bytes);
  }, req);
}

void Engine::rdma_write_to(Endpoint& ep,
                           const std::shared_ptr<RequestState>& req,
                           const PacketHeader& rtr) {
  Channel& ch = channel(ep, req->comm_id, req->tag);
  if (req->bytes > rtr.buf_bytes) {
    // Sending more than the receiver posted: MPI error on both ends.
    tx(ep, [this, &ep, req] {
      emit_control(ep, PacketType::Err, req, 0, 0, 0,
                   PacketHeader::kToReceiver);
    }, req);
    ch.sends.erase(req->seq);
    fail(req, "truncation: send of " + std::to_string(req->bytes) +
                  " bytes exceeds receive of " + std::to_string(rtr.buf_bytes));
    return;
  }
  ++stats_.receiver_first;
  const Exposure e = expose_send_payload(req);
  req->phase = RequestState::Phase::WritingData;

  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaWrite;
  wr.sg_list = {{e.addr, static_cast<std::uint32_t>(req->bytes), e.lkey}};
  wr.remote_addr = rtr.buf_addr;
  wr.rkey = rtr.rkey;
  post_data_wr(ep, std::move(wr), req, [this, &ep, req](const ib::Wc& wc) {
    Channel& c = channel(ep, req->comm_id, req->tag);
    c.sends.erase(req->seq);
    if (wc.status != ib::WcStatus::Success) {
      fail(req, std::string("RDMA write failed: ") +
                    ib::wc_status_name(wc.status));
      return;
    }
    release_window(req->window_mr);
    tx(ep, [this, &ep, req] {
      emit_control(ep, PacketType::Done, req, 0, 0, 0,
                   PacketHeader::kToReceiver);
    }, req);
    complete(req, rank_, req->tag, req->bytes);
  });
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void Engine::activate_recv(Endpoint& ep, Channel& ch,
                           const std::shared_ptr<RequestState>& req) {
  ch.posted[req->seq] = req;

  auto it = ch.arrived.find(req->seq);
  if (it != ch.arrived.end()) {
    ArrivedPacket pkt = std::move(it->second);
    ch.arrived.erase(it);
    if (pkt.hdr.type == PacketType::Eager) {
      deliver_eager(ep, req, pkt.hdr, pkt.payload.data());
    } else {
      assert(pkt.hdr.type == PacketType::Rts);
      start_rdma_read(ep, req, pkt.hdr);
    }
    return;
  }

  if (req->bytes >= platform_.eager_threshold) {
    // Predicted rendezvous: Receiver-First protocol — expose the receive
    // buffer and invite the sender to RDMA-write into it.
    const auto [target, toff] = payload(*req);
    ib::MemoryRegion* mr = register_window(target);
    if (!options_.mr_cache) req->window_mr = mr;
    req->phase = RequestState::Phase::RtrSent;
    // Receiver-First admits this seq here: the data lands by RDMA write and
    // DONE, so no Eager/RTS packet ever reaches the accept ledger for it —
    // and earlier seqs may still be in flight in the ring, so this is a
    // claim, not an in-order accept. If the sender's Eager/RTS crosses the
    // RTR (mis-prediction / Simultaneous), the handlers skip their accept
    // hook for RtrSent.
    chk().packet_claimed(rank_, req->peer, req->comm_id, req->tag, req->seq);
    const mem::SimAddr addr = target.addr() + toff;
    const ib::MKey rkey = mr->rkey();
    const std::uint64_t capacity = req->bytes;
    tx(ep, [this, &ep, req, addr, rkey, capacity] {
      emit_control(ep, PacketType::Rtr, req, addr, rkey, capacity);
    }, req);
  } else {
    req->phase = RequestState::Phase::WaitingPacket;
  }
}

void Engine::deliver_eager(Endpoint& ep,
                           const std::shared_ptr<RequestState>& req,
                           const PacketHeader& hdr, const std::byte* payload) {
  Channel& ch = channel(ep, hdr.comm_id, hdr.tag);
  ch.posted.erase(req->seq);
  if (hdr.msg_bytes > req->bytes) {
    fail(req, "truncation: eager message of " +
                  std::to_string(hdr.msg_bytes) + " bytes exceeds receive of " +
                  std::to_string(req->bytes));
    return;
  }
  if (req->phase == RequestState::Phase::RtrSent) {
    // Sender-Eager / Receiver-Rendezvous mis-prediction: receiver copies the
    // data and completes; the stale RTR is dropped on the sender side.
    ++stats_.eager_mispredicts;
    release_window(req->window_mr);
  }
  if (hdr.msg_bytes > 0) {
    if (req->type->is_contiguous()) {
      wire::put_bytes(req->buffer, req->offset, payload, hdr.msg_bytes);
      ib_->charge_memcpy(hdr.msg_bytes);
    } else {
      if (hdr.msg_bytes % req->type->size() != 0) {
        fail(req, "eager payload not a whole number of datatype elements");
        return;
      }
      req->type->unpack(payload, user_ptr(req),
                        hdr.msg_bytes / req->type->size());
      charge_pack(hdr.msg_bytes);
    }
  }
  complete(req, hdr.src_rank, hdr.tag, hdr.msg_bytes);
}

void Engine::start_rdma_read(Endpoint& ep,
                             const std::shared_ptr<RequestState>& req,
                             const PacketHeader& rts) {
  Channel& ch = channel(ep, rts.comm_id, rts.tag);
  if (rts.msg_bytes > req->bytes) {
    // Sender-Rendezvous / Receiver-Eager mis-prediction with oversized data:
    // "the receiver will issue an MPI error" (IV-B3).
    ch.posted.erase(req->seq);
    tx(ep, [this, &ep, req] {
      emit_control(ep, PacketType::Err, req, 0, 0, 0);
    }, req);
    fail(req, "truncation: rendezvous message of " +
                  std::to_string(rts.msg_bytes) + " bytes exceeds receive of " +
                  std::to_string(req->bytes));
    return;
  }
  const auto [target, toff] = payload(*req);
  ib::MemoryRegion* mr = register_window(target);
  if (!options_.mr_cache) req->window_mr = mr;
  req->phase = RequestState::Phase::ReadingData;

  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaRead;
  wr.sg_list = {{target.addr() + toff,
                 static_cast<std::uint32_t>(rts.msg_bytes), mr->lkey()}};
  wr.remote_addr = rts.buf_addr;
  wr.rkey = rts.rkey;
  const PacketHeader rts_copy = rts;
  post_data_wr(ep, std::move(wr), req,
               [this, &ep, req, rts_copy](const ib::Wc& wc) {
    Channel& c = channel(ep, rts_copy.comm_id, rts_copy.tag);
    c.posted.erase(req->seq);
    if (wc.status != ib::WcStatus::Success) {
      fail(req, std::string("RDMA read failed: ") +
                    ib::wc_status_name(wc.status));
      return;
    }
    if (req->has_pack && rts_copy.msg_bytes > 0) {
      req->type->unpack(req->pack_buf.data(), user_ptr(req),
                        rts_copy.msg_bytes / req->type->size());
      charge_pack(rts_copy.msg_bytes);
    }
    release_window(req->window_mr);
    ++stats_.sender_first;
    tx(ep, [this, &ep, req] {
      emit_control(ep, PacketType::Done, req, 0, 0, 0);
    }, req);
    complete(req, rts_copy.src_rank, rts_copy.tag, rts_copy.msg_bytes);
  });
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

void Engine::handle_packet(Endpoint& ep, const PacketHeader& hdr,
                           const std::byte* payload) {
  // The scan_ring epoch fence must have filtered cross-generation traffic
  // before any packet reaches dispatch.
  chk().packet_epoch(rank_, hdr.src_rank, hdr.conn_epoch, ep.epoch);
  if (hdr.type == PacketType::Revoke) {
    // Revocation notices are comm-scoped, not channel-scoped — intercept
    // before channel resolution (resolving would mint a (comm, tag=0)
    // channel that carries no sequenced traffic).
    handle_revoke(hdr);
    return;
  }
  Channel& ch = channel(ep, hdr.comm_id, hdr.tag);
  switch (hdr.type) {
    case PacketType::Eager:
      handle_eager(ep, ch, hdr, payload);
      break;
    case PacketType::Rts:
      handle_rts(ep, ch, hdr);
      break;
    case PacketType::Rtr:
      handle_rtr(ep, ch, hdr);
      break;
    case PacketType::Done:
      handle_done(ep, ch, hdr);
      break;
    case PacketType::Err:
      handle_err(ep, ch, hdr);
      break;
    case PacketType::Revoke:
      break;  // intercepted above
  }
}

void Engine::handle_revoke(const PacketHeader& hdr) {
  // Gossip: first sight poisons local state and re-floods to the rest of
  // the group (revoke_comm is idempotent, so the flood terminates after
  // every member has seen the notice once).
  tel_.log(sim::Verbosity::Info, {sim::Track::Rank, rank_},
           "revoke notice for comm %u from rank %d", hdr.comm_id,
           hdr.src_rank);
  revoke_comm(hdr.comm_id);
}

void Engine::handle_eager(Endpoint& ep, Channel& ch, const PacketHeader& hdr,
                          const std::byte* payload) {
  auto it = ch.posted.find(hdr.seq);
  if (it != ch.posted.end()) {
    if (it->second->phase != RequestState::Phase::RtrSent) {
      chk().packet_accepted(rank_, hdr.src_rank, hdr.comm_id, hdr.tag,
                            hdr.seq);
    }
    auto req = it->second;
    deliver_eager(ep, req, hdr, payload);
    return;
  }
  if (faults_armed_ &&
      (ch.arrived.count(hdr.seq) > 0 || hdr.seq < ch.next_assign_seq)) {
    // Sequence-level duplicate: this seq was already stashed or already
    // delivered to a completed receive. Belt-and-braces on top of the
    // ring_idx staleness check — drop, never deliver twice.
    ++stats_.dup_packets_dropped;
    return;
  }
  chk().packet_accepted(rank_, hdr.src_rank, hdr.comm_id, hdr.tag, hdr.seq);
  // Unexpected: stash a copy (the ring slot is about to be recycled).
  ArrivedPacket pkt;
  pkt.hdr = hdr;
  pkt.payload.assign(payload, payload + hdr.msg_bytes);
  if (hdr.msg_bytes > 0) ib_->charge_memcpy(hdr.msg_bytes);
  ch.arrived.emplace(hdr.seq, std::move(pkt));
  drain_deferred(hdr.comm_id);
}

void Engine::handle_rts(Endpoint& ep, Channel& ch, const PacketHeader& hdr) {
  auto it = ch.posted.find(hdr.seq);
  if (it != ch.posted.end()) {
    if (it->second->phase == RequestState::Phase::ReadingData) {
      // A reconnect replayed the RTS whose RDMA read is already in flight
      // (the receive stays posted until that read completes): admitting it
      // again would start a second read and a second DONE.
      ++stats_.dup_packets_dropped;
      return;
    }
    if (it->second->phase != RequestState::Phase::RtrSent) {
      chk().packet_accepted(rank_, hdr.src_rank, hdr.comm_id, hdr.tag,
                            hdr.seq);
    }
    auto req = it->second;
    // WaitingPacket: plain Sender-First. RtrSent: Simultaneous Send/Receive
    // — "the receiver will RDMA read by using the buffer data included in
    // the RTS packet following the process of the Sender First protocol".
    start_rdma_read(ep, req, hdr);
    return;
  }
  if (faults_armed_ &&
      (ch.arrived.count(hdr.seq) > 0 || hdr.seq < ch.next_assign_seq)) {
    ++stats_.dup_packets_dropped;
    return;
  }
  chk().packet_accepted(rank_, hdr.src_rank, hdr.comm_id, hdr.tag, hdr.seq);
  ArrivedPacket pkt;
  pkt.hdr = hdr;
  ch.arrived.emplace(hdr.seq, std::move(pkt));
  drain_deferred(hdr.comm_id);
}

void Engine::handle_rtr(Endpoint& ep, Channel& ch, const PacketHeader& hdr) {
  (void)ep;
  auto it = ch.sends.find(hdr.seq);
  if (it == ch.sends.end()) {
    if (hdr.seq >= ch.next_send_seq) {
      // The matching send has not been posted yet: pure Receiver-First.
      ch.arrived_rtr[hdr.seq] = hdr;
    } else {
      // Stale RTR for an already-completed (eager) send. "The sender drops
      // the RTR packet ... thanks to the sequence id, it's sure that this
      // packet is only for the current send request but not for later ones."
      ++stats_.rtrs_dropped;
    }
    return;
  }
  // A rendezvous send is in flight (RTS sent or queued): the sender
  // "disregards the RTR and still waits for the receiver's RDMA read".
  it->second->dropped_rtr = true;
  ++stats_.rtrs_dropped;
}

void Engine::handle_done(Endpoint& ep, Channel& ch, const PacketHeader& hdr) {
  (void)ep;
  if (hdr.dir == PacketHeader::kToSender) {
    // Sender-First completion: receiver finished its RDMA read.
    auto it = ch.sends.find(hdr.seq);
    if (it == ch.sends.end()) {
      if (faults_armed_) {
        // A replayed DONE whose original landed before the fault window
        // closed (connection recovery re-emits every unconfirmed packet).
        ++stats_.dup_packets_dropped;
        return;
      }
      tel_.log(sim::Verbosity::Error, {sim::Track::Rank, rank_},
               "DONE(to-sender) for unknown seq %llu",
               static_cast<unsigned long long>(hdr.seq));
      return;
    }
    auto req = it->second;
    ch.sends.erase(it);
    release_window(req->window_mr);
    complete(req, rank_, req->tag, req->bytes);
    return;
  }
  if (auto it = ch.posted.find(hdr.seq); it != ch.posted.end()) {
    // Receiver-First completion: sender's RDMA write has landed.
    auto req = it->second;
    ch.posted.erase(it);
    ++stats_.receiver_first;
    if (req->has_pack && hdr.msg_bytes > 0) {
      req->type->unpack(req->pack_buf.data(), user_ptr(req),
                        hdr.msg_bytes / req->type->size());
      charge_pack(hdr.msg_bytes);
    }
    release_window(req->window_mr);
    complete(req, hdr.src_rank, hdr.tag, hdr.msg_bytes);
    return;
  }
  if (faults_armed_) {
    ++stats_.dup_packets_dropped;
    return;
  }
  tel_.log(sim::Verbosity::Error, {sim::Track::Rank, rank_},
           "DONE for unknown seq %llu",
           static_cast<unsigned long long>(hdr.seq));
}

void Engine::handle_err(Endpoint& ep, Channel& ch, const PacketHeader& hdr) {
  (void)ep;
  if (hdr.dir == PacketHeader::kToSender) {
    if (auto it = ch.sends.find(hdr.seq); it != ch.sends.end()) {
      auto req = it->second;
      ch.sends.erase(it);
      fail(req, "peer aborted message (truncation)");
    }
    return;
  }
  if (auto it = ch.posted.find(hdr.seq); it != ch.posted.end()) {
    auto req = it->second;
    ch.posted.erase(it);
    fail(req, "peer aborted message (truncation)");
  }
}

// ---------------------------------------------------------------------------
// Wildcard sequencing (ANY_SOURCE / ANY_TAG locking)
// ---------------------------------------------------------------------------

std::optional<Engine::WildMatch> Engine::find_wildcard_match(
    const std::shared_ptr<RequestState>& req) {
  // Deterministic scan in (world rank, tag) order, self at its own rank.
  for (int src = 0; src < nranks_; ++src) {
    if (req->peer != kAnySource && req->peer != src) continue;
    if (src == rank_) {
      for (auto& [key, sc] : self_channels_) {
        if (key.first != req->comm_id) continue;
        if (req->tag == kAnyTag && key.second >= kInternalTagBase) continue;
        if (req->tag != kAnyTag && req->tag != key.second) continue;
        auto ait = sc.arrived.find(sc.next_assign_seq);
        if (ait != sc.arrived.end()) return WildMatch{src, key.second};
      }
      continue;
    }
    auto eit = endpoints_.find(src);
    if (eit == endpoints_.end()) continue;
    for (auto& [key, ch] : eit->second.channels) {
      if (key.first != req->comm_id) continue;
      // ANY_TAG never matches internal (collective) traffic — the standard
      // hidden-context separation.
      if (req->tag == kAnyTag && key.second >= kInternalTagBase) continue;
      if (req->tag != kAnyTag && req->tag != key.second) continue;
      auto ait = ch.arrived.find(ch.next_assign_seq);
      if (ait != ch.arrived.end()) return WildMatch{src, key.second};
    }
  }
  return std::nullopt;
}

void Engine::drain_deferred(std::uint32_t comm_id) {
  auto crit = comm_recv_.find(comm_id);
  if (crit == comm_recv_.end()) return;
  CommRecv& cr = crit->second;
  while (!cr.deferred.empty()) {
    auto req = cr.deferred.front();
    const bool wildcard = req->peer == kAnySource || req->tag == kAnyTag;
    if (wildcard) {
      const auto match = find_wildcard_match(req);
      if (!match) return;  // lock holds
      cr.deferred.pop_front();
      if (match->src == rank_) {
        self_activate_recv(req, match->tag);
      } else {
        Endpoint& ep = endpoint(match->src);
        Channel& ch = channel(ep, comm_id, match->tag);
        req->seq = ch.next_assign_seq++;
        chk().recv_seq_assigned(rank_, match->src, comm_id, match->tag,
                                req->seq);
        req->seq_assigned = true;
        activate_recv(ep, ch, req);
      }
    } else {
      cr.deferred.pop_front();
      if (req->peer == rank_) {
        self_activate_recv(req, req->tag);
      } else {
        Endpoint& ep = endpoint(req->peer);
        Channel& ch = channel(ep, comm_id, req->tag);
        req->seq = ch.next_assign_seq++;
        chk().recv_seq_assigned(rank_, req->peer, comm_id, req->tag,
                                req->seq);
        req->seq_assigned = true;
        activate_recv(ep, ch, req);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Self messaging
// ---------------------------------------------------------------------------

void Engine::self_send(const std::shared_ptr<RequestState>& req) {
  SelfChannel& sc = self_channels_[{req->comm_id, req->tag}];
  req->seq = sc.next_send_seq++;
  req->seq_assigned = true;

  SelfMsg msg;
  msg.tag = req->tag;
  msg.bytes = req->bytes;
  const std::byte* src = payload(*req).data();
  msg.data.assign(src, src + req->bytes);
  if (req->bytes > 0) ib_->charge_memcpy(req->bytes);

  auto it = sc.posted.find(req->seq);
  if (it != sc.posted.end()) {
    auto recv = it->second;
    sc.posted.erase(it);
    self_deliver(recv, std::move(msg));
  } else {
    sc.arrived.emplace(req->seq, std::move(msg));
  }
  complete(req, rank_, req->tag, req->bytes);
  drain_deferred(req->comm_id);
}

void Engine::self_activate_recv(const std::shared_ptr<RequestState>& req,
                                int tag) {
  SelfChannel& sc = self_channels_[{req->comm_id, tag}];
  req->seq = sc.next_assign_seq++;
  req->seq_assigned = true;
  auto it = sc.arrived.find(req->seq);
  if (it != sc.arrived.end()) {
    SelfMsg msg = std::move(it->second);
    sc.arrived.erase(it);
    self_deliver(req, std::move(msg));
  } else {
    sc.posted[req->seq] = req;
  }
}

void Engine::self_deliver(const std::shared_ptr<RequestState>& req,
                          SelfMsg msg) {
  if (msg.bytes > req->bytes) {
    fail(req, "truncation on self channel");
    return;
  }
  if (msg.bytes > 0) {
    if (req->type->is_contiguous()) {
      std::memcpy(user_ptr(req), msg.data.data(), msg.bytes);
    } else {
      req->type->unpack(msg.data.data(), user_ptr(req),
                        msg.bytes / req->type->size());
    }
    ib_->charge_memcpy(msg.bytes);
  }
  complete(req, rank_, msg.tag, msg.bytes);
}

}  // namespace dcfa::mpi
