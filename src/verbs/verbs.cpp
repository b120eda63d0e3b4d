#include "verbs/verbs.hpp"

namespace dcfa::verbs {

HostVerbs::HostVerbs(sim::Process& proc, ib::Fabric& fabric,
                     mem::NodeMemory& memory)
    : proc_(proc),
      fabric_(fabric),
      memory_(memory),
      hca_(fabric.hca_for_node(memory.node())),
      platform_(fabric.platform()) {}

ib::ProtectionDomain* HostVerbs::alloc_pd() {
  proc_.wait(platform_.host_post_overhead);
  return hca_.alloc_pd();
}

ib::MemoryRegion* HostVerbs::reg_mr(ib::ProtectionDomain* pd,
                                    const mem::Buffer& buf, unsigned access) {
  // Syscall + page pinning; dominated by the per-page walk for large MRs.
  const std::size_t pages =
      (buf.size() + mem::AddressSpace::kPage - 1) / mem::AddressSpace::kPage;
  proc_.wait(platform_.host_reg_mr_base +
             platform_.host_reg_mr_per_page * static_cast<sim::Time>(pages));
  return hca_.reg_mr(pd, buf.domain(), buf.addr(), buf.size(), access);
}

void HostVerbs::dereg_mr(ib::MemoryRegion* mr) {
  proc_.wait(platform_.host_reg_mr_base / 2);
  hca_.dereg_mr(mr);
}

ib::CompletionQueue* HostVerbs::create_cq(int capacity) {
  proc_.wait(platform_.host_reg_mr_base);  // same order as other syscalls
  return hca_.create_cq(capacity);
}

ib::QueuePair* HostVerbs::create_qp(ib::ProtectionDomain* pd,
                                    ib::CompletionQueue* send_cq,
                                    ib::CompletionQueue* recv_cq) {
  proc_.wait(platform_.host_reg_mr_base);
  return hca_.create_qp(pd, send_cq, recv_cq);
}

void HostVerbs::connect(ib::QueuePair* qp, QpAddress remote) {
  // Three ibv_modify_qp transitions in real code.
  proc_.wait(platform_.host_reg_mr_base);
  hca_.connect(qp, remote.lid, remote.qpn);
}

void HostVerbs::destroy_qp(ib::QueuePair* qp) {
  proc_.wait(platform_.host_reg_mr_base / 2);
  hca_.destroy_qp(qp);
}

QpAddress HostVerbs::address(ib::QueuePair* qp) {
  return QpAddress{hca_.lid(), qp->qpn()};
}

void HostVerbs::post_send(ib::QueuePair* qp, ib::SendWr wr) {
  proc_.wait(platform_.host_post_overhead);
  hca_.post_send(qp, std::move(wr));
}

int HostVerbs::poll_cq(ib::CompletionQueue* cq, int max, ib::Wc* out) {
  int n = cq->poll(max, out);
  if (n > 0) proc_.wait(platform_.host_poll_overhead);
  return n;
}

void HostVerbs::wait_cq(ib::CompletionQueue* cq) {
  if (cq->depth() > 0) return;
  proc_.wait_on(cq->arrival());
}

mem::Buffer HostVerbs::alloc_buffer(std::size_t size, std::size_t align) {
  return memory_.alloc(mem::Domain::HostDram, size, align);
}

void HostVerbs::free_buffer(const mem::Buffer& buf) {
  memory_.space(buf.domain()).free(buf);
}

void HostVerbs::charge_memcpy(std::size_t bytes) {
  proc_.wait(sim::transfer_time(bytes, platform_.host_memcpy_gbps));
}

}  // namespace dcfa::verbs
