#include "dcfa/cmd.hpp"

namespace dcfa::core {

sim::Time cmd_service_time(const sim::Platform& p, CmdOp op, CmdSize size) {
  const sim::Time base = p.host_reg_mr_base;  // syscall-order cost
  const sim::Time pin = p.host_reg_mr_per_page *
                        static_cast<sim::Time>(
                            (size.reg_bytes + mem::AddressSpace::kPage - 1) /
                            mem::AddressSpace::kPage);
  switch (op) {
    case CmdOp::RegMr:
      return base + pin;
    case CmdOp::DeregMr:
    case CmdOp::DestroyQp:
    case CmdOp::DeregOffloadMr:
      return base / 2;
    case CmdOp::RegOffloadMr:
      // Allocation of the shadow buffer plus registration.
      return base + sim::microseconds(5) + pin;
    case CmdOp::ReduceShadow:
      // Both operands stream through the host core.
      return sim::microseconds(2) +
             sim::transfer_time(2 * size.work_bytes, p.host_reduce_gbps);
    case CmdOp::PackShadow:
      return base + sim::microseconds(5) + pin +
             sim::transfer_time(size.work_bytes, p.host_pack_gbps);
    case CmdOp::AllocPd:
    case CmdOp::CreateCq:
    case CmdOp::CreateQp:
    case CmdOp::ConnectQp:
      break;
  }
  return base;
}

HostDelegate::HostDelegate(scif::Channel& channel, ib::Hca& hca,
                           mem::NodeMemory& memory)
    : channel_(channel),
      hca_(hca),
      memory_(memory),
      platform_(channel.platform()),
      busy_("dcfa.delegate[" + std::to_string(memory.node()) + "]") {
  channel_.set_on_deliver(scif::Channel::Side::Host, [this] { service(); });
}

HostDelegate::~HostDelegate() {
  channel_.set_on_deliver(scif::Channel::Side::Host, {});
}

void HostDelegate::service() {
  std::vector<std::byte> msg;
  while (channel_.try_recv(scif::Channel::Side::Host, msg)) {
    handle(std::move(msg));
  }
}

ib::ProtectionDomain* HostDelegate::pd(Handle h) {
  auto it = objects_.find(h);
  if (it == objects_.end()) return nullptr;
  auto* p = std::get_if<ib::ProtectionDomain*>(&it->second);
  return p ? *p : nullptr;
}
ib::MemoryRegion* HostDelegate::mr(Handle h) {
  auto it = objects_.find(h);
  if (it == objects_.end()) return nullptr;
  if (auto* p = std::get_if<ib::MemoryRegion*>(&it->second)) return *p;
  if (auto* o = std::get_if<OffloadEntry>(&it->second)) return o->mr;
  return nullptr;
}
ib::CompletionQueue* HostDelegate::cq(Handle h) {
  auto it = objects_.find(h);
  if (it == objects_.end()) return nullptr;
  auto* p = std::get_if<ib::CompletionQueue*>(&it->second);
  return p ? *p : nullptr;
}
ib::QueuePair* HostDelegate::qp(Handle h) {
  auto it = objects_.find(h);
  if (it == objects_.end()) return nullptr;
  auto* p = std::get_if<ib::QueuePair*>(&it->second);
  return p ? *p : nullptr;
}

void HostDelegate::reply(std::uint64_t req_id, CmdStatus status,
                         scif::Writer payload, sim::Time service_time) {
  // Queue behind any in-flight request, spend the host-side service time,
  // then one SCIF hop carries the answer back to the card.
  const sim::Time done = busy_.acquire(channel_.engine().now(), service_time);
  scif::Writer out;
  out.put(RespHeader{req_id, status});
  auto body = payload.take();
  auto head = out.take();
  head.insert(head.end(), body.begin(), body.end());
  channel_.engine().schedule_at(
      done + platform_.scif_msg_latency, [this, head = std::move(head)] {
        channel_.deliver_raw(scif::Channel::Side::Phi, std::move(head));
      });
}

void HostDelegate::handle(std::vector<std::byte> msg) {
  scif::Reader r(msg);
  const auto hdr = r.get<CmdHeader>();

  // A crashed delegation process answers nothing: every request — including
  // retries — is swallowed until the scheduled restart (if any) brings it
  // back. The objects it created survive (they live in the host kernel /
  // HCA), which is what makes failing over to the proxy path possible.
  if (crashed_) {
    tel().event(sim::Verbosity::Trace, track(), "cmd-while-crashed",
                "dead: swallowing req %llu",
                static_cast<unsigned long long>(hdr.req_id));
    return;
  }
  ++served_;

  const sim::Time base = platform_.host_reg_mr_base;  // syscall-order cost
  scif::Writer payload;

  // Fault injection happens *before* execution, so a retried request never
  // double-creates an object: Drop swallows the message (the client's reply
  // timeout fires), Fail answers CmdStatus::Failed without doing the work.
  if (faults_) {
    const auto fate = faults_->cmd_fate(cmd_op_class(hdr.op));
    if (fate == sim::FaultInjector::CmdFate::Crash) {
      // The whole delegation process dies taking this request with it. If
      // the spec schedules a restart, the process comes back empty-handed
      // but with its object table intact (kernel-owned state).
      crashed_ = true;
      tel().event(sim::Verbosity::Trace, track(), "fault:delegate-crash",
                  "crashing on req %llu",
                  static_cast<unsigned long long>(hdr.req_id));
      if (const sim::Time restart = faults_->spec().delegate_restart_ns;
          restart > 0) {
        channel_.engine().schedule_after(restart, [this] {
          crashed_ = false;
          tel().event(sim::Verbosity::Trace, track(), "delegate-restart",
                      nullptr);
        });
      }
      return;
    }
    if (fate == sim::FaultInjector::CmdFate::Drop) {
      tel().event(sim::Verbosity::Trace, track(), "fault:cmd-drop",
                  "swallowing req %llu",
                  static_cast<unsigned long long>(hdr.req_id));
      return;
    }
    if (fate == sim::FaultInjector::CmdFate::Fail) {
      tel().event(sim::Verbosity::Trace, track(), "fault:cmd-fail",
                  "failing req %llu",
                  static_cast<unsigned long long>(hdr.req_id));
      reply(hdr.req_id, CmdStatus::Failed, {}, base);
      return;
    }
  }

  try {
    switch (hdr.op) {
      case CmdOp::AllocPd: {
        auto* pd = hca_.alloc_pd();
        Handle h = next_handle_++;
        objects_[h] = pd;
        payload.put(h).put(reinterpret_cast<std::uintptr_t>(pd));
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::RegMr: {
        const auto pd_h = r.get<Handle>();
        const auto addr = r.get<mem::SimAddr>();
        const auto len = r.get<std::uint64_t>();
        const auto access = r.get<std::uint32_t>();
        auto* pd_p = pd(pd_h);
        if (!pd_p) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        // The client sent a *physical* (simulated-device) address; the host
        // driver extension maps the Phi memory so the HCA can reach it.
        const mem::Domain domain =
            memory_.space(mem::Domain::PhiGddr).contains(addr, len)
                ? mem::Domain::PhiGddr
                : mem::Domain::HostDram;
        auto* mr_p = hca_.reg_mr(pd_p, domain, addr, len, access);
        Handle h = next_handle_++;
        objects_[h] = mr_p;
        payload.put(h)
            .put(mr_p->lkey())
            .put(mr_p->rkey())
            .put(reinterpret_cast<std::uintptr_t>(mr_p));
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op, {.reg_bytes = len}));
        return;
      }
      case CmdOp::DeregMr: {
        const auto h = r.get<Handle>();
        auto* mr_p = mr(h);
        if (!mr_p) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        hca_.dereg_mr(mr_p);
        objects_.erase(h);
        reply(hdr.req_id, CmdStatus::Ok, {},
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::CreateCq: {
        const auto cap = r.get<std::int32_t>();
        auto* cq_p = hca_.create_cq(cap);
        Handle h = next_handle_++;
        objects_[h] = cq_p;
        payload.put(h).put(reinterpret_cast<std::uintptr_t>(cq_p));
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::CreateQp: {
        const auto pd_h = r.get<Handle>();
        const auto scq_h = r.get<Handle>();
        const auto rcq_h = r.get<Handle>();
        auto* pd_p = pd(pd_h);
        auto* scq_p = cq(scq_h);
        auto* rcq_p = cq(rcq_h);
        if (!pd_p || !scq_p || !rcq_p) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        auto* qp_p = hca_.create_qp(pd_p, scq_p, rcq_p);
        Handle h = next_handle_++;
        objects_[h] = qp_p;
        payload.put(h)
            .put(qp_p->qpn())
            .put(hca_.lid())
            .put(reinterpret_cast<std::uintptr_t>(qp_p));
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::ConnectQp: {
        const auto qp_h = r.get<Handle>();
        const auto lid = r.get<ib::Lid>();
        const auto qpn = r.get<ib::Qpn>();
        auto* qp_p = qp(qp_h);
        if (!qp_p) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        hca_.connect(qp_p, lid, qpn);
        reply(hdr.req_id, CmdStatus::Ok, {},
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::DestroyQp: {
        const auto qp_h = r.get<Handle>();
        auto* qp_p = qp(qp_h);
        if (!qp_p) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        hca_.destroy_qp(qp_p);
        objects_.erase(qp_h);
        reply(hdr.req_id, CmdStatus::Ok, {},
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
      case CmdOp::RegOffloadMr: {
        const auto pd_h = r.get<Handle>();
        const auto size = r.get<std::uint64_t>();
        // Register under the *client's* PD so the Phi can post sends that
        // gather from the shadow through its own QPs.
        ib::ProtectionDomain* pd_p = pd_h ? pd(pd_h) : nullptr;
        if (!pd_p) {
          if (!delegate_pd_) delegate_pd_ = hca_.alloc_pd();
          pd_p = delegate_pd_;
        }
        OffloadEntry entry;
        entry.shadow = memory_.alloc(mem::Domain::HostDram, size,
                                     mem::AddressSpace::kPage);
        entry.mr = hca_.reg_mr(pd_p, mem::Domain::HostDram,
                               entry.shadow.addr(), size,
                               ib::kLocalWrite | ib::kRemoteRead |
                                   ib::kRemoteWrite);
        Handle h = next_handle_++;
        OffloadMrInfo info{h, entry.shadow.addr(), size, entry.mr->lkey(),
                           entry.mr->rkey()};
        objects_[h] = std::move(entry);
        payload.put(info);
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op, {.reg_bytes = size}));
        return;
      }
      case CmdOp::ReduceShadow: {
        // Host CPU applies the reduction over two host shadow arrays — a
        // delegated collective kernel (Section VI future work). The wide
        // Xeon core chews elements far faster than a 1 GHz in-order Phi
        // core, which is the entire point of offloading it.
        const auto addr_a = r.get<mem::SimAddr>();
        const auto addr_b = r.get<mem::SimAddr>();
        const auto count = r.get<std::uint64_t>();
        const auto kind = r.get<ElemKind>();
        const auto fn = r.get<ReduceFn>();
        const std::size_t bytes = count * elem_size(kind);
        std::byte* a =
            memory_.space(mem::Domain::HostDram).resolve(addr_a, bytes);
        const std::byte* b =
            memory_.space(mem::Domain::HostDram).resolve(addr_b, bytes);
        apply_reduce(kind, fn, a, b, count);
        reply(hdr.req_id, CmdStatus::Ok, {},
              cmd_service_time(platform_, hdr.op, {.work_bytes = bytes}));
        return;
      }
      case CmdOp::PackShadow: {
        // Host CPU packs a strided datatype from a shadow copy of the user
        // buffer into a dense, registered host buffer that doubles as the
        // offloading send buffer for the subsequent RDMA.
        const auto pd_h = r.get<Handle>();
        const auto src_addr = r.get<mem::SimAddr>();
        const auto count = r.get<std::uint64_t>();
        const auto extent = r.get<std::uint64_t>();
        const auto packed_bytes = r.get<std::uint64_t>();
        const auto nblocks = r.get<std::uint64_t>();
        std::vector<PackBlock> blocks(nblocks);
        for (auto& b : blocks) b = r.get<PackBlock>();

        ib::ProtectionDomain* pd_p = pd_h ? pd(pd_h) : nullptr;
        if (!pd_p) {
          if (!delegate_pd_) delegate_pd_ = hca_.alloc_pd();
          pd_p = delegate_pd_;
        }
        const std::byte* src = memory_.space(mem::Domain::HostDram)
                                   .resolve(src_addr, count * extent);
        OffloadEntry entry;
        entry.shadow = memory_.alloc(mem::Domain::HostDram,
                                     std::max<std::size_t>(packed_bytes, 1),
                                     mem::AddressSpace::kPage);
        pack_strided(src, entry.shadow.data(), count, extent, blocks.data(),
                     nblocks);
        entry.mr = hca_.reg_mr(pd_p, mem::Domain::HostDram,
                               entry.shadow.addr(), entry.shadow.size(),
                               ib::kLocalWrite | ib::kRemoteRead |
                                   ib::kRemoteWrite);
        Handle h = next_handle_++;
        OffloadMrInfo info{h, entry.shadow.addr(), entry.shadow.size(),
                           entry.mr->lkey(), entry.mr->rkey()};
        objects_[h] = std::move(entry);
        payload.put(info);
        reply(hdr.req_id, CmdStatus::Ok, std::move(payload),
              cmd_service_time(platform_, hdr.op,
                               {.reg_bytes = packed_bytes,
                                .work_bytes = count * extent}));
        return;
      }
      case CmdOp::DeregOffloadMr: {
        const auto h = r.get<Handle>();
        auto it = objects_.find(h);
        if (it == objects_.end() ||
            !std::holds_alternative<OffloadEntry>(it->second)) {
          reply(hdr.req_id, CmdStatus::BadHandle, {}, base);
          return;
        }
        auto& entry = std::get<OffloadEntry>(it->second);
        hca_.dereg_mr(entry.mr);
        memory_.space(mem::Domain::HostDram).free(entry.shadow);
        objects_.erase(it);
        reply(hdr.req_id, CmdStatus::Ok, {},
              cmd_service_time(platform_, hdr.op, {}));
        return;
      }
    }
    reply(hdr.req_id, CmdStatus::BadArgument, {}, base);
  } catch (const std::exception& e) {
    tel().log(sim::Verbosity::Error, track(), "command failed: %s", e.what());
    reply(hdr.req_id, CmdStatus::Failed, {}, base);
  }
}

}  // namespace dcfa::core
