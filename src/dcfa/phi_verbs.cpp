#include "dcfa/phi_verbs.hpp"

#include <stdexcept>

namespace dcfa::core {

PhiVerbs::PhiVerbs(sim::Process& proc, ib::Fabric& fabric,
                   mem::NodeMemory& memory, scif::Channel& channel)
    : proc_(proc),
      fabric_(fabric),
      memory_(memory),
      channel_(channel),
      hca_(fabric.hca_for_node(memory.node())),
      platform_(fabric.platform()) {}

void PhiVerbs::enter_proxy_fallback() {
  if (proxy_fallback_) return;
  proxy_fallback_ = true;
  channel_.engine().telemetry().event(
      sim::Verbosity::Info, {sim::Track::Cmd, memory_.node()}, "proxy-fallback",
      "delegate dead: degrading to the host-proxy path");
}

bool PhiVerbs::note_delegate_death() {
  if (proxy_fallback_) return true;
  sim::FaultInjector* fi = faults();
  if (!fi || !fi->spec().fatal_armed()) return false;
  ++delegate_strikes_;
  if (delegate_strikes_ > platform_.dcfa_delegate_death_budget) {
    enter_proxy_fallback();
  }
  return true;
}

void PhiVerbs::charge_proxy_verb(CmdOp op, CmdSize size) {
  // One proxied resource verb: SCIF round trip to the host IB Proxy Daemon
  // plus the host-side verb cost. The delegate's hash table died with it,
  // but the kernel-owned IB objects survive, so the daemon can serve them.
  proc_.wait(2 * platform_.scif_msg_latency +
             cmd_service_time(platform_, op, size));
}

bool PhiVerbs::recv_reply(std::uint64_t req_id, sim::Time timeout) {
  sim::Engine& eng = channel_.engine();
  const sim::Time deadline = eng.now() + timeout;
  auto& cond = channel_.arrival(scif::Channel::Side::Phi);
  // The process API has no timed wait; one engine event at the deadline
  // wakes the wait_on loop so it can observe the timeout.
  eng.schedule_at(deadline, [&cond] { cond.notify_all(); });
  std::vector<std::byte> msg;
  for (;;) {
    while (channel_.try_recv(scif::Channel::Side::Phi, msg)) {
      scif::Reader r(msg);
      const auto resp = r.get<RespHeader>();
      if (resp.req_id == req_id) {
        last_reply_ = std::move(msg);
        return true;
      }
      if (resp.req_id > req_id) {
        throw std::logic_error("DCFA CMD: reply for an unsent request");
      }
      // Reply of an earlier attempt that we already gave up on.
      eng.telemetry().log(sim::Verbosity::Trace,
                          {sim::Track::Cmd, memory_.node()},
                          "discarding stale reply %llu",
                          static_cast<unsigned long long>(resp.req_id));
    }
    if (eng.now() >= deadline) return false;
    proc_.wait_on(cond);
  }
}

scif::Reader PhiVerbs::cmd_call(
    CmdOp op, const std::function<void(scif::Writer&)>& params,
    CmdSize size) {
  if (proxy_fallback_) {
    // The delegate is gone for good; don't burn the reply-timeout budget
    // against it. Offload verbs have no proxy equivalent — callers fall
    // back to their direct-MR / local-compute paths.
    throw CmdError(op, CmdStatus::Failed,
                   "DCFA CMD: delegate dead, endpoint degraded to proxy (op " +
                       std::to_string(static_cast<int>(op)) + ")");
  }
  sim::FaultInjector* fi = faults();
  const bool armed = fi && fi->armed();
  const int attempts_allowed = 1 + (armed ? platform_.dcfa_cmd_max_retries : 0);
  // dcfa_cmd_timeout covers a CMD's fixed cost and the round trip; the wait
  // grows by the part of the delegate's service time that scales with the
  // request (pages pinned, bytes reduced or packed).
  const sim::Time timeout = platform_.dcfa_cmd_timeout +
                            cmd_service_time(platform_, op, size) -
                            cmd_service_time(platform_, op, {});

  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      ++cmd_retries_;
      channel_.engine().telemetry().instant({sim::Track::Cmd, memory_.node()},
                                            "cmd-retry");
      proc_.wait(platform_.dcfa_cmd_retry_backoff << (attempt - 1));
    }
    const std::uint64_t req_id = next_req_id_++;
    scif::Writer w;
    w.put(CmdHeader{op, req_id});
    if (params) params(w);

    // Syscall into the micro-kernel (parameter marshalling, address
    // translation), then the CMD client ships the request host-wards.
    proc_.wait(platform_.dcfa_cmd_client_overhead);
    channel_.send(proc_, scif::Channel::Side::Phi, w.bytes());

    if (armed) {
      if (!recv_reply(req_id, timeout)) {
        ++cmd_timeouts_;
        channel_.engine().telemetry().log(
            sim::Verbosity::Trace, {sim::Track::Cmd, memory_.node()},
            "reply timeout on req %llu (attempt %d)",
            static_cast<unsigned long long>(req_id), attempt + 1);
        continue;  // resend under a fresh request id
      }
    } else {
      last_reply_ = channel_.recv(proc_, scif::Channel::Side::Phi);
    }
    scif::Reader r(last_reply_);
    const auto resp = r.get<RespHeader>();
    if (resp.req_id != req_id) {
      throw std::logic_error("DCFA CMD: out-of-order reply");
    }
    if (resp.status == CmdStatus::Ok) return r;
    if (armed && resp.status == CmdStatus::Failed) {
      // Transient host-side failure (the fault injector's cmd_fail, or a
      // delegate-side exception): back off and resend.
      continue;
    }
    throw CmdError(op, resp.status,
                   "DCFA CMD: host delegation failed (op " +
                       std::to_string(static_cast<int>(op)) + ")");
  }
  throw CmdError(op, CmdStatus::Failed,
                 "DCFA CMD: retry budget exhausted (op " +
                     std::to_string(static_cast<int>(op)) + ")");
}

ib::ProtectionDomain* PhiVerbs::alloc_pd() {
  return delegated([&] {
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::AllocPd);
      auto* pd = hca_.alloc_pd();
      handles_[pd] = 0;
      return pd;
    }
    auto r = cmd_call(CmdOp::AllocPd);
    const auto handle = r.get<Handle>();
    auto* pd =
        reinterpret_cast<ib::ProtectionDomain*>(r.get<std::uintptr_t>());
    handles_[pd] = handle;
    return pd;
  });
}

ib::MemoryRegion* PhiVerbs::reg_mr(ib::ProtectionDomain* pd,
                                   const mem::Buffer& buf, unsigned access) {
  return delegated([&] {
    auto it = handles_.find(pd);
    if (it == handles_.end()) {
      throw std::invalid_argument("reg_mr: foreign PD");
    }
    const Handle pd_h = it->second;
    // The CMD client translates the user buffer's virtual address to
    // physical pages before shipping the request (Section IV-B1); that walk
    // is the per-page client cost.
    const std::size_t pages = (buf.size() + mem::AddressSpace::kPage - 1) /
                              mem::AddressSpace::kPage;
    proc_.wait(platform_.phi_reg_mr_per_page * static_cast<sim::Time>(pages));

    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::RegMr, {.reg_bytes = buf.size()});
      auto* mr =
          hca_.reg_mr(pd, buf.domain(), buf.addr(), buf.size(), access);
      handles_[mr] = 0;
      return mr;
    }
    auto r = cmd_call(
        CmdOp::RegMr,
        [&](scif::Writer& w) {
          w.put(pd_h)
              .put(buf.addr())
              .put(static_cast<std::uint64_t>(buf.size()))
              .put(static_cast<std::uint32_t>(access));
        },
        {.reg_bytes = buf.size()});
    const auto handle = r.get<Handle>();
    (void)r.get<ib::MKey>();  // lkey (embedded in the returned object)
    (void)r.get<ib::MKey>();  // rkey
    auto* mr = reinterpret_cast<ib::MemoryRegion*>(r.get<std::uintptr_t>());
    handles_[mr] = handle;
    return mr;
  });
}

void PhiVerbs::dereg_mr(ib::MemoryRegion* mr) {
  delegated([&] {
    auto it = handles_.find(mr);
    if (it == handles_.end()) {
      throw std::invalid_argument("dereg_mr: foreign MR");
    }
    const Handle h = it->second;
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::DeregMr);
      hca_.dereg_mr(mr);
    } else {
      cmd_call(CmdOp::DeregMr, [&](scif::Writer& w) { w.put(h); });
    }
    handles_.erase(mr);
  });
}

ib::CompletionQueue* PhiVerbs::create_cq(int capacity) {
  return delegated([&] {
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::CreateCq);
      auto* cq = hca_.create_cq(capacity);
      handles_[cq] = 0;
      return cq;
    }
    auto r = cmd_call(CmdOp::CreateCq, [&](scif::Writer& w) {
      w.put(static_cast<std::int32_t>(capacity));
    });
    const auto handle = r.get<Handle>();
    auto* cq = reinterpret_cast<ib::CompletionQueue*>(r.get<std::uintptr_t>());
    handles_[cq] = handle;
    return cq;
  });
}

ib::QueuePair* PhiVerbs::create_qp(ib::ProtectionDomain* pd,
                                   ib::CompletionQueue* send_cq,
                                   ib::CompletionQueue* recv_cq) {
  return delegated([&] {
    auto pd_it = handles_.find(pd);
    auto s_it = handles_.find(send_cq);
    auto r_it = handles_.find(recv_cq);
    if (pd_it == handles_.end() || s_it == handles_.end() ||
        r_it == handles_.end()) {
      throw std::invalid_argument("create_qp: foreign object");
    }
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::CreateQp);
      auto* qp = hca_.create_qp(pd, send_cq, recv_cq);
      handles_[qp] = 0;
      return qp;
    }
    auto r = cmd_call(CmdOp::CreateQp, [&](scif::Writer& w) {
      w.put(pd_it->second).put(s_it->second).put(r_it->second);
    });
    const auto handle = r.get<Handle>();
    (void)r.get<ib::Qpn>();
    (void)r.get<ib::Lid>();
    auto* qp = reinterpret_cast<ib::QueuePair*>(r.get<std::uintptr_t>());
    handles_[qp] = handle;
    return qp;
  });
}

void PhiVerbs::connect(ib::QueuePair* qp, verbs::QpAddress remote) {
  delegated([&] {
    auto it = handles_.find(qp);
    if (it == handles_.end()) {
      throw std::invalid_argument("connect: foreign QP");
    }
    const Handle h = it->second;
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::ConnectQp);
      hca_.connect(qp, remote.lid, remote.qpn);
      return;
    }
    cmd_call(CmdOp::ConnectQp, [&](scif::Writer& w) {
      w.put(h).put(remote.lid).put(remote.qpn);
    });
  });
}

void PhiVerbs::destroy_qp(ib::QueuePair* qp) {
  delegated([&] {
    auto it = handles_.find(qp);
    if (it == handles_.end()) {
      throw std::invalid_argument("destroy_qp: foreign QP");
    }
    const Handle h = it->second;
    if (proxy_fallback_) {
      charge_proxy_verb(CmdOp::DestroyQp);
      hca_.destroy_qp(qp);
    } else {
      cmd_call(CmdOp::DestroyQp, [&](scif::Writer& w) { w.put(h); });
    }
    handles_.erase(qp);
  });
}

verbs::QpAddress PhiVerbs::address(ib::QueuePair* qp) {
  return verbs::QpAddress{hca_.lid(), qp->qpn()};
}

void PhiVerbs::post_send(ib::QueuePair* qp, ib::SendWr wr) {
  if (proxy_fallback_) {
    // Degraded endpoint: the work request rides the MPSS proxy path — relay
    // enqueue on the host plus the daemon hop's latency, exactly like the
    // Intel-MPI baseline transport (baselines/proxy_verbs.hpp).
    proc_.wait(platform_.host_post_overhead + platform_.phi_post_overhead);
    channel_.engine().schedule_after(
        platform_.proxy_hop_latency, [this, qp, wr = std::move(wr)]() mutable {
          hca_.post_send(qp, std::move(wr));
        });
    return;
  }
  // Direct doorbell from the card — no host involvement. A 1 GHz in-order
  // core builds the WQE noticeably slower than a Xeon.
  proc_.wait(platform_.phi_post_overhead);
  hca_.post_send(qp, std::move(wr));
}

int PhiVerbs::poll_cq(ib::CompletionQueue* cq, int max, ib::Wc* out) {
  int n = cq->poll(max, out);
  if (n > 0) proc_.wait(platform_.phi_poll_overhead);
  return n;
}

void PhiVerbs::wait_cq(ib::CompletionQueue* cq) {
  if (cq->depth() > 0) return;
  proc_.wait_on(cq->arrival());
}

mem::Buffer PhiVerbs::alloc_buffer(std::size_t size, std::size_t align) {
  return memory_.alloc(mem::Domain::PhiGddr, size, align);
}

void PhiVerbs::free_buffer(const mem::Buffer& buf) {
  memory_.space(buf.domain()).free(buf);
}

void PhiVerbs::charge_memcpy(std::size_t bytes) {
  proc_.wait(sim::transfer_time(bytes, platform_.phi_memcpy_gbps));
}

OffloadRegion PhiVerbs::reg_offload_mr(ib::ProtectionDomain* pd,
                                       std::size_t size) {
  Handle pd_h = 0;
  if (pd) {
    auto it = handles_.find(pd);
    if (it == handles_.end()) {
      throw std::invalid_argument("reg_offload_mr: foreign PD");
    }
    pd_h = it->second;
  }
  auto r = cmd_call(
      CmdOp::RegOffloadMr,
      [&](scif::Writer& w) {
        w.put(pd_h).put(static_cast<std::uint64_t>(size));
      },
      {.reg_bytes = size});
  const auto info = r.get<OffloadMrInfo>();
  return OffloadRegion{info.handle, info.host_addr, info.size, info.lkey,
                       info.rkey};
}

void PhiVerbs::sync_offload_mr(const OffloadRegion& region,
                               const mem::Buffer& src, std::size_t offset,
                               std::size_t len) {
  if (offset + len > region.size) {
    throw std::out_of_range("sync_offload_mr: window escapes shadow");
  }
  channel_.pcie().dma(proc_, src.domain(), src.addr() + offset,
                      mem::Domain::HostDram, region.host_addr + offset, len);
}

void PhiVerbs::reduce_shadow(mem::SimAddr a, mem::SimAddr b,
                             std::size_t count, ElemKind kind, ReduceFn fn) {
  cmd_call(
      CmdOp::ReduceShadow,
      [&](scif::Writer& w) {
        w.put(a).put(b).put(static_cast<std::uint64_t>(count));
        w.put(kind).put(fn);
      },
      {.work_bytes = count * elem_size(kind)});
}

OffloadRegion PhiVerbs::pack_shadow(ib::ProtectionDomain* pd,
                                    mem::SimAddr src_addr, std::size_t count,
                                    std::size_t extent,
                                    std::size_t packed_bytes,
                                    const std::vector<PackBlock>& blocks) {
  Handle pd_h = 0;
  if (pd) {
    auto it = handles_.find(pd);
    if (it == handles_.end()) {
      throw std::invalid_argument("pack_shadow: foreign PD");
    }
    pd_h = it->second;
  }
  auto r = cmd_call(
      CmdOp::PackShadow,
      [&](scif::Writer& w) {
        w.put(pd_h)
            .put(src_addr)
            .put(static_cast<std::uint64_t>(count))
            .put(static_cast<std::uint64_t>(extent))
            .put(static_cast<std::uint64_t>(packed_bytes))
            .put(static_cast<std::uint64_t>(blocks.size()));
        for (const PackBlock& b : blocks) w.put(b);
      },
      {.reg_bytes = packed_bytes, .work_bytes = count * extent});
  const auto info = r.get<OffloadMrInfo>();
  return OffloadRegion{info.handle, info.host_addr, info.size, info.lkey,
                       info.rkey};
}

void PhiVerbs::dereg_offload_mr(const OffloadRegion& region) {
  cmd_call(CmdOp::DeregOffloadMr,
           [&](scif::Writer& w) { w.put(region.handle); });
}

}  // namespace dcfa::core
