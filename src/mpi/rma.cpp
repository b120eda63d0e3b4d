// One-sided RMA primitives: thin, direct mappings onto the verbs RDMA ops
// the rendezvous protocols already use. No packets, no sequence ids — the
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

void Engine::rma_write(int peer, const mem::Buffer& local, std::size_t loff,
                       std::size_t bytes, mem::SimAddr remote_addr,
                       ib::MKey rkey, std::function<void()> on_done,
                       sim::Checker::AccessOp op) {
  if (peer != rank_ && rank_failed(peer)) {
    ++stats_.proc_failed_ops;
    throw MpiError("RMA write to dead rank " + std::to_string(peer),
                   MpiErrc::ProcFailed, peer);
  }
  chk().rma_remote_access(rank_, peer, remote_addr, bytes);
  // DcfaRace: the remote range is under access from post until completion.
  const std::uint64_t race = chk().race_begin(
      sim::CheckKind::RaceRmaWindow, peer, rank_, remote_addr, bytes, op,
      op == sim::Checker::AccessOp::Accum ? "accumulate" : "put");
  if (peer == rank_) {
    // Local window: plain copy at memcpy cost.
    std::byte* dst = ib_->hca_ref().memory().space(local.domain())
                         .resolve(remote_addr, bytes);
    std::memcpy(dst, local.data() + loff, bytes);
    ib_->charge_memcpy(bytes);
    chk().race_end(race);
    if (on_done) on_done();
    return;
  }
  Endpoint& ep = endpoint(peer);

  // Stage through the offloading send buffer when it pays, like any other
  // large payload leaving a co-processor.
  mem::SimAddr src_addr;
  ib::MKey lkey;
  if (shadow_cache_ && bytes >= platform_.offload_send_threshold &&
      local.domain() == mem::Domain::PhiGddr) {
    const core::OffloadRegion& region = shadow_cache_->get(local);
    phi_->sync_offload_mr(region, local, loff, bytes);
    ++stats_.offload_syncs;
    stats_.offload_sync_bytes += bytes;
    src_addr = region.host_addr + loff;
    lkey = region.lkey;
  } else {
    ib::MemoryRegion* mr = register_window(local);
    src_addr = local.addr() + loff;
    lkey = mr->lkey();
  }

  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaWrite;
  wr.sg_list = {{src_addr, static_cast<std::uint32_t>(bytes), lkey}};
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  post_signaled(ep.qp, std::move(wr),
                [this, race, on_done = std::move(on_done)](const ib::Wc& wc) {
                  if (wc.status != ib::WcStatus::Success) {
                    throw MpiError(std::string("RMA write failed: ") +
                                   ib::wc_status_name(wc.status));
                  }
                  chk().race_end(race);
                  if (on_done) on_done();
                });
}

void Engine::rma_read(int peer, const mem::Buffer& local, std::size_t loff,
                      std::size_t bytes, mem::SimAddr remote_addr,
                      ib::MKey rkey, std::function<void()> on_done,
                      sim::Checker::AccessOp op) {
  if (peer != rank_ && rank_failed(peer)) {
    ++stats_.proc_failed_ops;
    throw MpiError("RMA read from dead rank " + std::to_string(peer),
                   MpiErrc::ProcFailed, peer);
  }
  chk().rma_remote_access(rank_, peer, remote_addr, bytes);
  const std::uint64_t race = chk().race_begin(
      sim::CheckKind::RaceRmaWindow, peer, rank_, remote_addr, bytes, op,
      op == sim::Checker::AccessOp::Accum ? "accumulate fetch" : "get");
  if (peer == rank_) {
    const std::byte* src = ib_->hca_ref().memory().space(local.domain())
                               .resolve(remote_addr, bytes);
    std::memcpy(local.data() + loff, src, bytes);
    ib_->charge_memcpy(bytes);
    chk().race_end(race);
    if (on_done) on_done();
    return;
  }
  Endpoint& ep = endpoint(peer);
  ib::MemoryRegion* mr = register_window(local);

  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaRead;
  wr.sg_list = {{local.addr() + loff, static_cast<std::uint32_t>(bytes),
                 mr->lkey()}};
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  post_signaled(ep.qp, std::move(wr),
                [this, race, on_done = std::move(on_done)](const ib::Wc& wc) {
                  if (wc.status != ib::WcStatus::Success) {
                    throw MpiError(std::string("RMA read failed: ") +
                                   ib::wc_status_name(wc.status));
                  }
                  chk().race_end(race);
                  if (on_done) on_done();
                });
}

void Engine::rma_write_prereg(int peer, mem::SimAddr local_addr,
                              ib::MKey lkey, std::size_t bytes,
                              mem::SimAddr remote_addr, ib::MKey rkey,
                              std::function<void()> on_done) {
  if (peer != rank_ && rank_failed(peer)) {
    ++stats_.proc_failed_ops;
    throw MpiError("channel post to dead rank " + std::to_string(peer),
                   MpiErrc::ProcFailed, peer);
  }
  chk().rma_remote_access(rank_, peer, remote_addr, bytes);
  // DcfaRace: only persistent channels use the prereg path, so the remote
  // range is a channel cell (payload slot or doorbell word).
  const std::uint64_t race = chk().race_begin(
      sim::CheckKind::RaceChannelCell, peer, rank_, remote_addr, bytes,
      sim::Checker::AccessOp::Write, "channel post");
  if (peer == rank_) {
    // Self channel: both sides live in this rank's node memory. Simulated
    // addresses encode the domain (mem::base_for puts PhiGddr at bit 39),
    // so each endpoint resolves through its own space.
    auto& memory = ib_->hca_ref().memory();
    auto resolve = [&](mem::SimAddr a, std::size_t n) {
      const mem::Domain d = (a >> 39) & 1 ? mem::Domain::PhiGddr
                                          : mem::Domain::HostDram;
      return memory.space(d).resolve(a, n);
    };
    std::memcpy(resolve(remote_addr, bytes), resolve(local_addr, bytes),
                bytes);
    ib_->charge_memcpy(bytes);
    chk().race_end(race);
    if (on_done) on_done();
    return;
  }
  Endpoint& ep = endpoint(peer);

  ib::SendWr wr;
  wr.opcode = ib::Opcode::RdmaWrite;
  wr.sg_list = {{local_addr, static_cast<std::uint32_t>(bytes), lkey}};
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  post_signaled(ep.qp, std::move(wr),
                [this, race, on_done = std::move(on_done)](const ib::Wc& wc) {
                  if (wc.status != ib::WcStatus::Success) {
                    throw MpiError(std::string("channel post failed: ") +
                                   ib::wc_status_name(wc.status));
                  }
                  chk().race_end(race);
                  if (on_done) on_done();
                });
}

std::pair<mem::SimAddr, ib::MKey> Engine::rma_stage(const mem::Buffer& local,
                                                    std::size_t loff,
                                                    std::size_t bytes,
                                                    ib::MKey direct_lkey) {
  if (shadow_cache_ && bytes >= platform_.offload_send_threshold &&
      local.domain() == mem::Domain::PhiGddr) {
    const core::OffloadRegion& region = shadow_cache_->get(local);
    phi_->sync_offload_mr(region, local, loff, bytes);
    ++stats_.offload_syncs;
    stats_.offload_sync_bytes += bytes;
    return {region.host_addr + loff, region.lkey};
  }
  return {local.addr() + loff, direct_lkey};
}

void Engine::wait_until(const std::function<bool()>& pred) {
  while (!pred()) {
    wake_pending_ = false;
    progress();
    if (pred()) return;
    if (!wake_pending_) ib_->process().wait_on(wake_);
  }
}

}  // namespace dcfa::mpi
