#include "ib/hca.hpp"

#include <cstring>
#include <stdexcept>

#include "ib/fabric.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"

namespace dcfa::ib {

const char* wc_status_name(WcStatus s) {
  switch (s) {
    case WcStatus::Success: return "success";
    case WcStatus::LocalProtectionError: return "local-protection-error";
    case WcStatus::RemoteAccessError: return "remote-access-error";
    case WcStatus::RemoteInvalidRequest: return "remote-invalid-request";
    case WcStatus::WrFlushError: return "wr-flush-error";
    case WcStatus::RetryExceeded: return "retry-exceeded";
  }
  return "?";
}

Hca::Hca(sim::Engine& engine, Fabric& fabric, mem::NodeMemory& memory,
         pcie::PciePort& pcie, const sim::Platform& platform, Lid lid)
    : engine_(engine),
      fabric_(fabric),
      memory_(memory),
      pcie_(pcie),
      platform_(platform),
      lid_(lid),
      dma_read_("hca.dma_rd[" + std::to_string(memory.node()) + "]"),
      dma_write_("hca.dma_wr[" + std::to_string(memory.node()) + "]"),
      egress_("hca.egress[" + std::to_string(memory.node()) + "]"),
      ingress_("hca.ingress[" + std::to_string(memory.node()) + "]") {}

ProtectionDomain* Hca::alloc_pd() {
  int id = next_pd_id_++;
  auto pd = std::make_unique<ProtectionDomain>(*this, id);
  ProtectionDomain* p = pd.get();
  pds_.emplace(id, std::move(pd));
  return p;
}

MemoryRegion* Hca::reg_mr(ProtectionDomain* pd, mem::Domain domain,
                          mem::SimAddr addr, std::size_t length,
                          unsigned access) {
  if (!pd) throw std::invalid_argument("reg_mr: null PD");
  if (length == 0) throw std::invalid_argument("reg_mr: zero length");
  std::shared_ptr<std::byte> pinned = memory_.space(domain).pin(addr, length);
  if (!pinned) {
    throw mem::BadAddress("reg_mr: window not backed by an allocation");
  }
  MKey lkey = next_key_++;
  MKey rkey = next_key_++;
  auto mr = std::make_unique<MemoryRegion>(*pd, domain, addr, length, access,
                                           lkey, rkey, std::move(pinned));
  MemoryRegion* p = mr.get();
  mrs_by_lkey_.emplace(lkey, std::move(mr));
  mrs_by_rkey_.emplace(rkey, p);
  ++mr_reg_count_;
  engine_.checker().mr_registered(pd, lkey, rkey, addr, length);
  return p;
}

void Hca::dereg_mr(MemoryRegion* mr) {
  if (!mr) throw std::invalid_argument("dereg_mr: null MR");
  engine_.checker().mr_deregistered(&mr->pd(), mr->lkey(), mr->rkey());
  mrs_by_rkey_.erase(mr->rkey());
  if (mrs_by_lkey_.erase(mr->lkey()) == 0) {
    throw std::invalid_argument("dereg_mr: unknown MR");
  }
}

CompletionQueue* Hca::create_cq(int capacity) {
  if (capacity <= 0) throw std::invalid_argument("create_cq: bad capacity");
  int id = next_cq_id_++;
  auto cq = std::make_unique<CompletionQueue>(engine_, capacity, id);
  CompletionQueue* p = cq.get();
  cqs_.emplace(id, std::move(cq));
  return p;
}

QueuePair* Hca::create_qp(ProtectionDomain* pd, CompletionQueue* send_cq,
                          CompletionQueue* recv_cq) {
  if (!pd || !send_cq || !recv_cq) {
    throw std::invalid_argument("create_qp: null argument");
  }
  Qpn qpn = next_qpn_++;
  auto qp = std::make_unique<QueuePair>(*this, *pd, *send_cq, *recv_cq, qpn);
  QueuePair* p = qp.get();
  qps_.emplace(qpn, std::move(qp));
  return p;
}

void Hca::destroy_qp(QueuePair* qp) {
  if (!qp || qps_.erase(qp->qpn()) == 0) {
    throw std::invalid_argument("destroy_qp: unknown QP");
  }
}

void Hca::connect(QueuePair* qp, Lid remote_lid, Qpn remote_qpn) {
  if (!qp) throw std::invalid_argument("connect: null QP");
  qp->remote_lid_ = remote_lid;
  qp->remote_qpn_ = remote_qpn;
  qp->state_ = QpState::ReadyToSend;
}

MemoryRegion* Hca::mr_by_lkey(MKey lkey) {
  auto it = mrs_by_lkey_.find(lkey);
  return it == mrs_by_lkey_.end() ? nullptr : it->second.get();
}

MemoryRegion* Hca::mr_by_rkey(MKey rkey) {
  auto it = mrs_by_rkey_.find(rkey);
  return it == mrs_by_rkey_.end() ? nullptr : it->second;
}

Hca::DmaCost Hca::read_cost(mem::Domain d) const {
  if (d == mem::Domain::HostDram) {
    return {platform_.hca_read_host_gbps, platform_.hca_read_host_latency};
  }
  return {platform_.hca_read_phi_gbps, platform_.hca_read_phi_latency};
}

Hca::DmaCost Hca::write_cost(mem::Domain d) const {
  if (d == mem::Domain::HostDram) {
    return {platform_.hca_write_host_gbps, platform_.hca_write_host_latency};
  }
  return {platform_.hca_write_phi_gbps, platform_.hca_write_phi_latency};
}

Hca::DmaCost Hca::sge_cost(const std::vector<Sge>& sges,
                           const std::vector<MemoryRegion*>& mrs,
                           bool read) const {
  std::size_t bytes = 0;
  double total_ns = 0;
  sim::Time latency = 0;
  for (std::size_t i = 0; i < sges.size(); ++i) {
    if (sges[i].length == 0) continue;
    const DmaCost c =
        read ? read_cost(mrs[i]->domain()) : write_cost(mrs[i]->domain());
    total_ns += static_cast<double>(sges[i].length) / c.gbps;
    latency = std::max(latency, c.latency);
    bytes += sges[i].length;
  }
  if (bytes == 0) {
    return {read ? platform_.hca_read_host_gbps : platform_.hca_write_host_gbps,
            0};
  }
  return {static_cast<double>(bytes) / (total_ns > 0 ? total_ns : 1), latency};
}

sim::Time Hca::stream_time(const QueuePair* qp, const SendWr& wr) {
  const std::size_t bytes = total_length(wr.sg_list);
  if (bytes == 0) return 0;
  const bool read = wr.opcode == Opcode::RdmaRead;
  double gbps = platform_.ib_wire_gbps;
  // The local side gathers (send, write) or scatters (read) the SGEs.
  for (const Sge& s : wr.sg_list) {
    MemoryRegion* mr = s.length > 0 ? mr_by_lkey(s.lkey) : nullptr;
    if (mr == nullptr) continue;
    const mem::Domain d = mr->domain();
    gbps = std::min(gbps, read ? write_cost(d).gbps : read_cost(d).gbps);
  }
  if (wr.opcode != Opcode::Send) {
    Hca& remote = fabric_.hca_by_lid(qp->remote_lid());
    if (MemoryRegion* rmr = remote.mr_by_rkey(wr.rkey)) {
      const mem::Domain d = rmr->domain();
      gbps = std::min(
          gbps, read ? remote.read_cost(d).gbps : remote.write_cost(d).gbps);
    }
  }
  return sim::transfer_time(bytes, gbps);
}

std::size_t Hca::total_length(const std::vector<Sge>& sges) {
  std::size_t n = 0;
  for (const Sge& s : sges) n += s.length;
  return n;
}

std::optional<WcStatus> Hca::check_sges(ProtectionDomain& pd,
                                        const std::vector<Sge>& sges,
                                        bool need_local_write,
                                        std::vector<MemoryRegion*>& mrs) {
  mrs.assign(sges.size(), nullptr);
  for (std::size_t i = 0; i < sges.size(); ++i) {
    const Sge& s = sges[i];
    if (s.length == 0) continue;
    // Fail fast on a dead or mis-sized key before the HCA-model lookup: the
    // checker has the registration ledger, so a use-after-dereg surfaces as
    // a structured violation instead of a generic protection error.
    engine_.checker().mr_used(&pd, s.lkey, s.addr, s.length);
    MemoryRegion* mr = mr_by_lkey(s.lkey);
    if (!mr || &mr->pd() != &pd || !mr->covers(s.addr, s.length)) {
      return WcStatus::LocalProtectionError;
    }
    if (need_local_write && !(mr->access() & kLocalWrite)) {
      return WcStatus::LocalProtectionError;
    }
    mrs[i] = mr;
  }
  return std::nullopt;
}

template <class Book>
void Hca::after_delay(QueuePair* qp, sim::Time delay, Book book) {
  const sim::Time now = engine_.now();
  if (delay == 0 && qp->deferred_.empty()) {
    book(qp, now + platform_.hca_wqe_overhead);
    return;
  }
  // Each deferred WR schedules one event at its ready time, and that event
  // runs the head of the QP's queue, not necessarily its own WR. Ready
  // times never decrease along the queue, so the head is the one due, and
  // WRs sharing a ready time still run in posting order when the engine
  // permutes events of equal time (DCFA_SIM_SCHED=explore).
  qp->deferred_until_ = std::max(qp->deferred_until_, now + delay);
  qp->deferred_.push_back(std::move(book));
  engine_.schedule_at(qp->deferred_until_, [this, qpn = qp->qpn()] {
    auto it = qps_.find(qpn);
    if (it == qps_.end()) return;  // destroyed meanwhile: nothing completes
    QueuePair* q = it->second.get();
    auto head = std::move(q->deferred_.front());
    q->deferred_.pop_front();
    head(q, engine_.now() + platform_.hca_wqe_overhead);
  });
}

void Hca::complete(QueuePair* qp, CompletionQueue& cq, const SendWr& wr,
                   WcOpcode op, WcStatus status, std::size_t bytes,
                   sim::Time at) {
  // Completions on one QP are delivered in posting order.
  if (at <= qp->last_completion_) at = qp->last_completion_ + 1;
  qp->last_completion_ = at;
  Wc wc;
  wc.wr_id = wr.wr_id;
  wc.status = status;
  wc.opcode = op;
  wc.byte_len = static_cast<std::uint32_t>(bytes);
  wc.qp_num = qp->qpn();
  wc.imm_data = wr.imm_data;
  engine_.schedule_at(at, [&cq, wc] { cq.push(wc); });
}

void Hca::fail_post(QueuePair* qp, const SendWr& wr, WcStatus status) {
  qp->state_ = QpState::Error;
  engine_.telemetry().log(sim::Verbosity::Error, {sim::Track::Hca, node()},
                          "WR %llu failed: %s",
                          static_cast<unsigned long long>(wr.wr_id),
                          wc_status_name(status));
  after_delay(qp, 0, [this, wr, status](QueuePair* q, sim::Time start) {
    complete(q, q->send_cq(), wr, WcOpcode::Send, status, 0, start);
  });
}

void Hca::post_send(QueuePair* qp, SendWr wr) {
  if (!qp) throw std::invalid_argument("post_send: null QP");
  if (qp->state_ == QpState::Error) {
    after_delay(qp, 0, [this, wr = std::move(wr)](QueuePair* q, sim::Time) {
      complete(q, q->send_cq(), wr, WcOpcode::Send, WcStatus::WrFlushError, 0,
               engine_.now());
    });
    return;
  }
  if (qp->state_ != QpState::ReadyToSend) {
    throw std::logic_error("post_send: QP not connected");
  }
  execute_send(qp, std::move(wr));
}

void Hca::post_recv(QueuePair* qp, RecvWr wr) {
  if (!qp) throw std::invalid_argument("post_recv: null QP");
  if (auto bad = check_sges(qp->pd(), wr.sg_list, /*need_local_write=*/true,
                            sge_mrs_)) {
    throw std::logic_error("post_recv: bad SGE: " + std::string(
        wc_status_name(*bad)));
  }
  qp->recv_queue_.push_back(std::move(wr));
  if (!qp->rnr_queue_.empty()) {
    // A sender got an RNR NAK for this queue: after the retry timer it
    // retransmits the whole message (reliable connection semantics — the
    // responder buffers nothing).
    auto pending = std::move(qp->rnr_queue_.front());
    qp->rnr_queue_.pop_front();
    const sim::Time retry_at = engine_.now() + platform_.rnr_retry_delay;
    Hca* src = pending.src_hca;
    engine_.schedule_at(retry_at, [src, pending = std::move(pending)] {
      auto it = src->qps_.find(pending.src_qp);
      if (it == src->qps_.end()) return;  // requester torn down
      src->execute_send(it->second.get(), pending.wr);
    });
  }
}

void Hca::execute_send(QueuePair* qp, SendWr wr) {
  const std::size_t bytes = total_length(wr.sg_list);

  // Local SGE validation. RDMA-read WRs *write* locally.
  const bool local_write = wr.opcode == Opcode::RdmaRead;
  if (auto bad = check_sges(qp->pd(), wr.sg_list, local_write, sge_mrs_)) {
    fail_post(qp, wr, *bad);
    return;
  }
  const std::vector<MemoryRegion*>& mrs = sge_mrs_;

  Hca& remote = fabric_.hca_by_lid(qp->remote_lid_);
  QueuePair* remote_qp = nullptr;
  {
    auto it = remote.qps_.find(qp->remote_qpn_);
    if (it == remote.qps_.end()) {
      fail_post(qp, wr, WcStatus::RemoteAccessError);
      return;
    }
    remote_qp = it->second.get();
  }
  // Loopback (both QPs on this HCA): no wire to cross. Intra-node traffic
  // between co-located ranks is bounded by local memory bandwidth instead —
  // the regime the paper's related work (intra-MIC MPI over shared memory,
  // Section III-C) lives in.
  const bool loopback = &remote == this;
  const sim::Time wire_lat = loopback ? 0 : fabric_.wire_latency();
  const WcOpcode wc_op = wr.opcode == Opcode::Send        ? WcOpcode::Send
                         : wr.opcode == Opcode::RdmaWrite ? WcOpcode::RdmaWrite
                                                          : WcOpcode::RdmaRead;
  // An error CQE arrives one round trip after the (possibly delayed) start.
  sim::Time delay = 0;
  const auto fail_late = [&](WcStatus status) {
    after_delay(qp, delay,
                [this, wr = std::move(wr), wc_op, status, wire_lat](
                    QueuePair* q, sim::Time start) {
                  complete(q, q->send_cq(), wr, wc_op, status, 0,
                           start + 2 * wire_lat);
                });
  };

  // Fault injection: decide this WR's delay and fate once, at post time,
  // before any data motion. Only WRs the poster marked faultable
  // participate, so the default path pays a single branch here.
  auto fate = sim::FaultInjector::WcFate::Deliver;
  if (sim::FaultInjector* fi = fabric_.faults(); fi && wr.faultable) {
    const sim::Track track{sim::Track::Hca, node()};
    const unsigned long long wr_id = wr.wr_id;
    delay = fi->dma_delay();
    if (delay > 0) engine_.telemetry().instant(track, "fault:dma-delay");
    fate = fi->wc_fate();
    if (fate == sim::FaultInjector::WcFate::Fatal ||
        fate == sim::FaultInjector::WcFate::Error) {
      if (fate == sim::FaultInjector::WcFate::Fatal) {
        // The QP wedges in the error state for good: this WR gets an error
        // CQE after the round trip, and every later post flushes
        // immediately (WrFlushError). Only connection re-establishment —
        // destroy, create, re-connect — revives the endpoint; that is
        // mpi::Engine's job.
        qp->state_ = QpState::Error;
        engine_.telemetry().event(sim::Verbosity::Trace, track,
                                  "fault:qp-fatal", "wedging QP %u on WR %llu",
                                  qp->qpn(), wr_id);
      } else {
        // The transport gave up on this WR after its internal retries. Soft
        // failure: no data moved, the QP stays ReadyToSend, the poster sees
        // an error CQE one round trip later and owns recovery.
        engine_.telemetry().event(sim::Verbosity::Trace, track,
                                  "fault:wc-error", "erring WR %llu", wr_id);
      }
      fail_late(WcStatus::RetryExceeded);
      return;
    }
    if (fate == sim::FaultInjector::WcFate::Drop) {
      // Data will move normally; only the completion is lost. (Applies to
      // the RDMA opcodes — the MPI data path; Send WRs complete remotely.)
      engine_.telemetry().event(sim::Verbosity::Trace, track, "fault:wc-drop",
                                "dropping CQE of WR %llu", wr_id);
    }
  }

  if (remote_qp->unresponsive_) {
    // No responder acknowledges: the requester retransmits until its retry
    // count runs out, then reports the WR failed. Nothing lands.
    qp->state_ = QpState::Error;
    engine_.telemetry().log(sim::Verbosity::Trace, {sim::Track::Hca, node()},
                            "WR %llu: qp %u does not answer",
                            static_cast<unsigned long long>(wr.wr_id),
                            remote_qp->qpn());
    after_delay(qp, delay,
                [this, wr = std::move(wr), wc_op](QueuePair* q, sim::Time) {
                  complete(q, q->send_cq(), wr, wc_op,
                           WcStatus::RetryExceeded, 0,
                           engine_.now() + kTransportDeadline);
                });
    return;
  }

  if (wr.opcode != Opcode::RdmaRead) {
    egress_bytes_ += bytes;
  } else {
    remote.egress_bytes_ += bytes;
  }

  const std::uint64_t chunk = platform_.ib_chunk_bytes;

  if (wr.opcode == Opcode::Send) {
    // Ship header+data to the responder; match against its receive queue on
    // arrival. The data movement below runs the read+wire stages; the
    // remote-write stage happens when a receive is available.
    // Gather may span domains (e.g. eager header on Phi + payload in the
    // host shadow buffer): weight by bytes.
    const DmaCost rcost = sge_cost(wr.sg_list, mrs, /*read=*/true);
    after_delay(qp, delay, [this, &remote, remote_qp, rcost, loopback,
                            wire_lat, bytes, chunk, wr = std::move(wr)](
                               QueuePair* q, sim::Time start) mutable {
      sim::Time t = start + rcost.latency;
      sim::Time last_ingress = t;
      std::uint64_t left = bytes;
      do {
        const std::uint64_t n = std::min<std::uint64_t>(left, chunk);
        const sim::Time t1 =
            dma_read_.acquire(t, sim::transfer_time(n, rcost.gbps));
        if (loopback) {
          last_ingress = t1;
        } else {
          const sim::Time t2 = egress_.acquire(
              t1, sim::transfer_time(n, platform_.ib_wire_gbps));
          last_ingress = remote.ingress_.acquire(
              t2 + wire_lat, sim::transfer_time(n, platform_.ib_wire_gbps));
        }
        left -= n;
      } while (left > 0);

      engine_.schedule_at(last_ingress, [this, &remote, remote_qp,
                                         wr = std::move(wr), q] {
        remote.deliver_send(remote_qp, wr, q->qpn(), *this, engine_.now());
      });
    });
    return;
  }

  // RDMA write / read: validate the remote window against the remote HCA.
  // Deliberately not a DcfaCheck hook: during connection recovery a peer can
  // legitimately post against a ring MR the other side already tore down.
  // That is the modeled RemoteAccessError -> QP-wedge -> reconnect path, not
  // an invariant violation. Local keys (check_sges) have no such race.
  MemoryRegion* rmr = remote.mr_by_rkey(wr.rkey);
  const unsigned need = wr.opcode == Opcode::RdmaWrite
                            ? static_cast<unsigned>(kRemoteWrite)
                            : static_cast<unsigned>(kRemoteRead);
  if (!rmr || !rmr->covers(wr.remote_addr, bytes) ||
      !(rmr->access() & need)) {
    // NAK arrives after a round trip.
    qp->state_ = QpState::Error;
    fail_late(WcStatus::RemoteAccessError);
    return;
  }

  if (wr.opcode == Opcode::RdmaWrite) {
    const DmaCost rcost = sge_cost(wr.sg_list, mrs, /*read=*/true);
    const DmaCost wcost = remote.write_cost(rmr->domain());
    after_delay(qp, delay, [this, &remote, rcost, wcost, loopback, wire_lat,
                            bytes, chunk, fate, wr = std::move(wr)](
                               QueuePair* q, sim::Time start) {
      sim::Time t = start + rcost.latency;
      sim::Time last_write = t + wire_lat;  // for zero-byte writes
      std::uint64_t left = bytes;
      do {
        const std::uint64_t n = std::min<std::uint64_t>(left, chunk);
        const sim::Time t1 =
            dma_read_.acquire(t, sim::transfer_time(n, rcost.gbps));
        sim::Time t3 = t1;
        if (!loopback) {
          const sim::Time t2 = egress_.acquire(
              t1, sim::transfer_time(n, platform_.ib_wire_gbps));
          t3 = remote.ingress_.acquire(
              t2 + wire_lat, sim::transfer_time(n, platform_.ib_wire_gbps));
        }
        last_write = remote.dma_write_.acquire(
            t3, sim::transfer_time(n, wcost.gbps));
        left -= n;
      } while (left > 0);
      last_write += wcost.latency;
      engine_.telemetry().span({sim::Track::Hca, node()}, start, last_write,
                               "rdma-write %zuB", bytes);

      // Move the bytes when the last chunk lands; ACK returns to the sender
      // one wire latency later.
      engine_.schedule_at(last_write, [this, wr, bytes, &remote] {
        // Deregistering an MR with a WR in flight aborts the transfer
        // (undefined behaviour on real hardware; we drop it loudly).
        // Happens during endpoint teardown and connection recovery, so each
        // MR is re-found by key here rather than captured — a recovery that
        // deregistered it must not be a use-after-free. A buffer freed
        // under a live MR is still pinned by it, so the bytes move through
        // the MR's host view into storage that stays valid until dereg.
        try {
          MemoryRegion* rmr = remote.mr_by_rkey(wr.rkey);
          if (!rmr) throw std::runtime_error("remote MR gone");
          std::size_t off = 0;
          for (const Sge& s : wr.sg_list) {
            if (s.length == 0) continue;
            MemoryRegion* lmr = mr_by_lkey(s.lkey);
            if (!lmr) throw std::runtime_error("local MR gone");
            std::memcpy(rmr->host(wr.remote_addr + off), lmr->host(s.addr),
                        s.length);
            off += s.length;
          }
          engine_.telemetry().log(sim::Verbosity::Trace,
                                  {sim::Track::Hca, remote.node()},
                                  "rdma-write %zu bytes landed", bytes);
        } catch (const std::exception& e) {
          engine_.telemetry().log(sim::Verbosity::Error,
                                  {sim::Track::Hca, remote.node()},
                                  "in-flight rdma-write dropped at teardown: "
                                  "%s",
                                  e.what());
        }
        remote.notify_remote_write(wr.rkey);
      });
      if (wr.signaled && fate != sim::FaultInjector::WcFate::Drop) {
        complete(q, q->send_cq(), wr, WcOpcode::RdmaWrite, WcStatus::Success,
                 bytes, last_write + wire_lat);
      } else {
        q->last_completion_ = std::max(q->last_completion_, last_write);
      }
    });
    return;
  }

  // RDMA read: request travels to the responder, which streams the window
  // back; the local HCA scatters into the SGEs.
  const DmaCost remote_read = remote.read_cost(rmr->domain());
  const DmaCost wcost = sge_cost(wr.sg_list, mrs, /*read=*/false);
  after_delay(qp, delay, [this, &remote, remote_read, wcost, loopback,
                          wire_lat, bytes, chunk, fate, wr = std::move(wr)](
                             QueuePair* q, sim::Time start) {
    // Request + first read.
    sim::Time t = start + wire_lat + remote_read.latency;
    sim::Time last_write = t;
    std::uint64_t left = bytes;
    do {
      const std::uint64_t n = std::min<std::uint64_t>(left, chunk);
      const sim::Time t1 = remote.dma_read_.acquire(
          t, sim::transfer_time(n, remote_read.gbps));
      sim::Time t3 = t1;
      if (!loopback) {
        const sim::Time t2 = remote.egress_.acquire(
            t1, sim::transfer_time(n, platform_.ib_wire_gbps));
        t3 = ingress_.acquire(t2 + wire_lat,
                              sim::transfer_time(n, platform_.ib_wire_gbps));
      }
      last_write = dma_write_.acquire(t3, sim::transfer_time(n, wcost.gbps));
      left -= n;
    } while (left > 0);
    last_write += wcost.latency;
    engine_.telemetry().span({sim::Track::Hca, node()}, start, last_write,
                             "rdma-read %zuB", bytes);

    engine_.schedule_at(last_write, [this, wr, bytes, &remote] {
      try {
        MemoryRegion* rmr = remote.mr_by_rkey(wr.rkey);
        if (!rmr) throw std::runtime_error("remote MR gone");
        std::size_t off = 0;
        for (const Sge& s : wr.sg_list) {
          if (s.length == 0) continue;
          MemoryRegion* lmr = mr_by_lkey(s.lkey);
          if (!lmr) throw std::runtime_error("local MR gone");
          std::memcpy(lmr->host(s.addr), rmr->host(wr.remote_addr + off),
                      s.length);
          off += s.length;
        }
        engine_.telemetry().log(sim::Verbosity::Trace,
                                {sim::Track::Hca, node()},
                                "rdma-read %zu bytes landed", bytes);
      } catch (const std::exception& e) {
        engine_.telemetry().log(sim::Verbosity::Error,
                                {sim::Track::Hca, node()},
                                "in-flight rdma-read dropped at teardown: %s",
                                e.what());
      }
    });
    if (wr.signaled && fate != sim::FaultInjector::WcFate::Drop) {
      complete(q, q->send_cq(), wr, WcOpcode::RdmaRead, WcStatus::Success,
               bytes, last_write);
    } else {
      q->last_completion_ = std::max(q->last_completion_, last_write);
    }
  });
}

void Hca::deliver_send(QueuePair* dst_qp, SendWr wr, Qpn src_qpn,
                       Hca& src_hca, sim::Time arrival) {
  if (dst_qp->recv_queue_.empty()) {
    // Receiver-not-ready: park until a receive is posted (post_recv retries).
    engine_.telemetry().log(sim::Verbosity::Trace, {sim::Track::Hca, node()},
                            "RNR on qp %u", dst_qp->qpn());
    dst_qp->rnr_queue_.push_back(
        QueuePair::PendingArrival{std::move(wr), src_qpn, arrival, &src_hca});
    return;
  }
  complete_matched_recv(dst_qp, std::move(wr), src_qpn, src_hca, arrival);
}

void Hca::complete_matched_recv(QueuePair* dst_qp, SendWr wr, Qpn src_qpn,
                                Hca& src_hca, sim::Time start) {
  RecvWr recv = std::move(dst_qp->recv_queue_.front());
  dst_qp->recv_queue_.pop_front();

  const std::size_t bytes = total_length(wr.sg_list);
  const std::size_t capacity = total_length(recv.sg_list);
  auto src_qp_it = src_hca.qps_.find(src_qpn);
  QueuePair* src_qp =
      src_qp_it == src_hca.qps_.end() ? nullptr : src_qp_it->second.get();

  if (bytes > capacity) {
    // Message longer than the posted receive: invalid request on both sides.
    Wc wc;
    wc.wr_id = recv.wr_id;
    wc.status = WcStatus::RemoteInvalidRequest;
    wc.opcode = WcOpcode::Recv;
    wc.qp_num = dst_qp->qpn();
    dst_qp->recv_cq().push(wc);
    if (src_qp) {
      src_qp->state_ = QpState::Error;
      src_hca.complete(src_qp, src_qp->send_cq(), wr, WcOpcode::Send,
                       WcStatus::RemoteInvalidRequest, 0,
                       engine_.now() + fabric_.wire_latency());
    }
    return;
  }

  // Remote write stage into the receive SGEs.
  double write_gbps = platform_.hca_write_host_gbps;
  sim::Time write_lat = 0;
  if (bytes > 0) {
    double total_ns = 0;
    std::size_t counted = 0;
    for (const Sge& s : recv.sg_list) {
      if (s.length == 0 || counted >= bytes) continue;
      const std::size_t n = std::min<std::size_t>(s.length, bytes - counted);
      auto c = write_cost(mr_by_lkey(s.lkey)->domain());
      total_ns += static_cast<double>(n) / c.gbps;
      write_lat = std::max(write_lat, c.latency);
      counted += n;
    }
    write_gbps = static_cast<double>(bytes) / (total_ns > 0 ? total_ns : 1);
  }

  sim::Time last_write = start;
  std::uint64_t left = bytes;
  const std::uint64_t chunk = platform_.ib_chunk_bytes;
  sim::Time t = start;
  do {
    const std::uint64_t n = std::min<std::uint64_t>(left, chunk);
    last_write = dma_write_.acquire(t, sim::transfer_time(n, write_gbps));
    left -= n;
  } while (left > 0);
  last_write += write_lat;

  engine_.schedule_at(last_write, [this, wr, recv, bytes, &src_hca, dst_qp,
                                   src_qpn] {
    // Gather from the sender's SGEs, scatter into the receiver's, through
    // the MRs' host views. MRs torn down with the WR in flight abort the
    // data movement. The gather goes through a staging copy so that send
    // and receive SGEs may overlap; the gather overwrites every byte of it.
    try {
      auto staging = std::make_unique_for_overwrite<std::byte[]>(bytes);
      std::size_t off = 0;
      for (const Sge& s : wr.sg_list) {
        if (s.length == 0) continue;
        MemoryRegion* mr = src_hca.mr_by_lkey(s.lkey);
        if (!mr) throw std::runtime_error("sender MR gone");
        std::memcpy(staging.get() + off, mr->host(s.addr), s.length);
        off += s.length;
      }
      off = 0;
      for (const Sge& s : recv.sg_list) {
        if (s.length == 0 || off >= bytes) continue;
        const std::size_t n = std::min<std::size_t>(s.length, bytes - off);
        MemoryRegion* mr = mr_by_lkey(s.lkey);
        if (!mr) throw std::runtime_error("receiver MR gone");
        std::memcpy(mr->host(s.addr), staging.get() + off, n);
        off += n;
      }
    } catch (const std::exception& e) {
      engine_.telemetry().log(sim::Verbosity::Error, {sim::Track::Hca, node()},
                              "in-flight send dropped at teardown: %s",
                              e.what());
    }
    // Receive completion.
    Wc wc;
    wc.wr_id = recv.wr_id;
    wc.status = WcStatus::Success;
    wc.opcode = WcOpcode::Recv;
    wc.byte_len = static_cast<std::uint32_t>(bytes);
    wc.qp_num = dst_qp->qpn();
    wc.src_qp = src_qpn;
    wc.imm_data = wr.imm_data;
    dst_qp->recv_cq().push(wc);
  });

  if (src_qp && wr.signaled) {
    src_hca.complete(src_qp, src_qp->send_cq(), wr, WcOpcode::Send,
                     WcStatus::Success, bytes,
                     last_write + fabric_.wire_latency());
  }
}

}  // namespace dcfa::ib
