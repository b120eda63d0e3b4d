// One-sided RMA primitives: one direct mapping onto the verbs RDMA ops the
// rendezvous protocols already use. No packets, no sequence ids — the
// target is never involved, which is exactly what the DCFA substrate (user
// space RDMA from the co-processor) buys.

#include <cstring>

#include "mpi/engine.hpp"

namespace dcfa::mpi {

ib::MemoryRegion* Engine::expose_window_mr(const mem::Buffer& buf) {
  ++stats_.rma_mr_negotiations;
  return ib_->reg_mr(pd_, buf,
                     ib::kLocalWrite | ib::kRemoteRead | ib::kRemoteWrite);
}

void Engine::release_window_mr(ib::MemoryRegion* mr) {
  ib_->dereg_mr(mr);
}

void Engine::rma_post(int peer, ib::Opcode opcode, mem::SimAddr laddr,
                      ib::MKey lkey, std::size_t bytes, mem::SimAddr raddr,
                      ib::MKey rkey, sim::CheckKind race_kind,
                      sim::Checker::AccessOp op, const char* label,
                      std::function<void()> on_done) {
  const bool read = opcode == ib::Opcode::RdmaRead;
  // Errors name the caller's operation: a channel write, a window read or
  // a window write.
  const char* what = race_kind == sim::CheckKind::RaceChannelCell
                         ? "channel post"
                         : read ? "RMA read" : "RMA write";
  if (peer != rank_ && rank_failed(peer)) {
    ++stats_.proc_failed_ops;
    throw MpiError(std::string(what) + (read ? " from" : " to") +
                       " dead rank " + std::to_string(peer),
                   MpiErrc::ProcFailed, peer);
  }
  chk().rma_remote_access(rank_, peer, raddr, bytes);
  // DcfaRace: the remote range is under access from post until completion.
  const std::uint64_t race =
      chk().race_begin(race_kind, peer, rank_, raddr, bytes, op, label);
  if (peer == rank_) {
    // Self op: both sides live in this rank's node memory. Simulated
    // addresses encode the domain (mem::base_for puts PhiGddr at bit 39),
    // so each side resolves through its own space.
    auto& memory = ib_->hca_ref().memory();
    auto resolve = [&](mem::SimAddr a) {
      const mem::Domain d = (a >> 39) & 1 ? mem::Domain::PhiGddr
                                          : mem::Domain::HostDram;
      return memory.space(d).resolve(a, bytes);
    };
    const std::byte* src = resolve(read ? raddr : laddr);
    std::memcpy(resolve(read ? laddr : raddr), src, bytes);
    ib_->charge_memcpy(bytes);
    chk().race_end(race);
    if (on_done) on_done();
    return;
  }
  Endpoint& ep = endpoint(peer);

  ib::SendWr wr;
  wr.opcode = opcode;
  wr.sg_list = {{laddr, static_cast<std::uint32_t>(bytes), lkey}};
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  post_signaled(ep.qp, std::move(wr),
                [this, peer, race, what, on_done = std::move(on_done)](
                    const ib::Wc& wc) {
                  if (wc.status == ib::WcStatus::RetryExceeded) {
                    // Never faulted: the target stopped answering (died).
                    declare_failed(peer, "RMA target stopped answering");
                    throw MpiError(std::string(what) + " failed: target died",
                                   MpiErrc::ProcFailed, peer);
                  }
                  if (wc.status != ib::WcStatus::Success) {
                    throw MpiError(std::string(what) + " failed: " +
                                   ib::wc_status_name(wc.status));
                  }
                  chk().race_end(race);
                  if (on_done) on_done();
                });
}

void Engine::wait_until(const std::function<bool()>& pred) {
  // Check first: a Channel's doorbell lands with no progress pass.
  block_until([&] { return pred() || (progress(), pred()); });
}

}  // namespace dcfa::mpi
