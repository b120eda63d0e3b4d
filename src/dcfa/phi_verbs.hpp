#pragma once

#include <functional>

#include "dcfa/cmd.hpp"
#include "verbs/verbs.hpp"

namespace dcfa::core {

/// An offloading send-buffer region (Section IV-B4, Figure 6): a host-side
/// shadow buffer registered as an IB MR by the delegation process. The Phi
/// synchronises data into it with its DMA engine, then posts sends *from
/// host memory*, dodging the slow HCA-read-from-Phi path.
struct OffloadRegion {
  Handle handle = 0;
  mem::SimAddr host_addr = 0;
  std::size_t size = 0;
  ib::MKey lkey = 0;
  ib::MKey rkey = 0;

  bool valid() const { return handle != 0; }
};

/// DCFA IB IF — the user-space verbs library on the Xeon Phi co-processor.
///
/// Resource-creation verbs are offloaded to the host delegation process via
/// the DCFA CMD client (each one costs a SCIF round trip plus host work);
/// data-path verbs ring the HCA doorbells directly from the card, which is
/// the whole point of DCFA. The interface is uniform with HostVerbs so MPI
/// code moves between host and co-processor unchanged.
class PhiVerbs : public verbs::Ib {
 public:
  /// `delegate` must be the HostDelegate serving `channel`'s host side.
  PhiVerbs(sim::Process& proc, ib::Fabric& fabric, mem::NodeMemory& memory,
           scif::Channel& channel);

  // --- verbs::Ib ------------------------------------------------------------
  [[nodiscard]] ib::ProtectionDomain* alloc_pd() override;
  [[nodiscard]] ib::MemoryRegion* reg_mr(ib::ProtectionDomain* pd,
                                         const mem::Buffer& buf,
                                         unsigned access) override;
  void dereg_mr(ib::MemoryRegion* mr) override;
  [[nodiscard]] ib::CompletionQueue* create_cq(int capacity) override;
  [[nodiscard]] ib::QueuePair* create_qp(ib::ProtectionDomain* pd,
                                         ib::CompletionQueue* send_cq,
                                         ib::CompletionQueue* recv_cq) override;
  void connect(ib::QueuePair* qp, verbs::QpAddress remote) override;
  void destroy_qp(ib::QueuePair* qp) override;
  verbs::QpAddress address(ib::QueuePair* qp) override;

  void post_send(ib::QueuePair* qp, ib::SendWr wr) override;
  int poll_cq(ib::CompletionQueue* cq, int max, ib::Wc* out) override;
  void wait_cq(ib::CompletionQueue* cq) override;

  mem::Buffer alloc_buffer(std::size_t size, std::size_t align) override;
  void free_buffer(const mem::Buffer& buf) override;
  mem::Domain data_domain() const override { return mem::Domain::PhiGddr; }
  void charge_memcpy(std::size_t bytes) override;

  sim::Process& process() override { return proc_; }
  ib::Hca& hca_ref() override { return hca_; }

  // --- Offloading send buffer (the paper's three added functions) ----------
  /// Allocate + register a host shadow buffer of `size` bytes under `pd`
  /// (the client's protection domain; pass nullptr to let the delegation
  /// process use its own — fine for raw DCFA programs that only expose the
  /// shadow via its rkey).
  OffloadRegion reg_offload_mr(ib::ProtectionDomain* pd, std::size_t size);
  /// Blocking Phi->host DMA of [src.addr()+offset, +len) into the shadow at
  /// the same offset. Must precede the post_send that reads the shadow.
  void sync_offload_mr(const OffloadRegion& region, const mem::Buffer& src,
                       std::size_t offset, std::size_t len);
  /// Tear down the shadow: deregister on the host, free the buffer.
  void dereg_offload_mr(const OffloadRegion& region);

  // --- DCFA-MPI CMD client (Section VI future work) -------------------------
  /// Delegate an element-wise reduction a[i] = a[i] FN b[i] over two host
  /// shadow windows; the host CPU executes it for real.
  void reduce_shadow(mem::SimAddr a, mem::SimAddr b, std::size_t count,
                     ElemKind kind, ReduceFn fn);
  /// Delegate a strided datatype pack: `src_addr` (host DRAM) holds
  /// `count` elements of `extent` bytes; the host packs the given blocks
  /// densely into a freshly allocated + registered host buffer and returns
  /// it as an offload region (it doubles as the offloading send buffer).
  OffloadRegion pack_shadow(ib::ProtectionDomain* pd, mem::SimAddr src_addr,
                            std::size_t count, std::size_t extent,
                            std::size_t packed_bytes,
                            const std::vector<PackBlock>& blocks);

  /// The node's PCIe port (for staging DMA by layered components).
  pcie::PciePort& pcie() { return channel_.pcie(); }
  mem::NodeMemory& node_memory() { return memory_; }

  /// Stats for tests: command round-trips issued so far.
  std::uint64_t commands_issued() const { return next_req_id_ - 1; }
  /// Fault recovery: CMD requests resent (after a timeout or a Failed
  /// reply) and reply timeouts observed. Zero unless faults were armed.
  std::uint64_t cmd_retries() const { return cmd_retries_; }
  std::uint64_t cmd_timeouts() const { return cmd_timeouts_; }

  // --- Graceful degradation (delegate death) --------------------------------
  /// Switch this endpoint to the host-proxy fallback: the delegation
  /// process is gone for good, so resource verbs are served by the host IB
  /// Proxy Daemon (modelled as direct HCA calls plus the SCIF round trip)
  /// and every posted work request pays the proxied relay latency, exactly
  /// like the Intel-MPI baseline transport. Irreversible by design: a
  /// delegate that comes back later does not un-degrade the endpoint.
  void enter_proxy_fallback();
  bool in_proxy_fallback() const { return proxy_fallback_; }

 protected:
  /// Model the cost of building a WQE on a Phi core (for transports layered
  /// on this one, e.g. the proxy baseline).
  void charge_post_overhead() { proc_.wait(platform_.phi_post_overhead); }

 private:
  /// One CMD round trip: encode, pay the client syscall cost, SCIF there and
  /// back, host service time. Returns a reader over the reply payload
  /// (header already consumed and checked). When faults are armed, adds a
  /// reply timeout with bounded-backoff resend; exhaustion throws CmdError.
  /// `size` names what the request's host service time grows with; the
  /// reply timeout grows by that size-dependent part (cmd_service_time).
  scif::Reader cmd_call(CmdOp op,
                        const std::function<void(scif::Writer&)>& params = {},
                        CmdSize size = {});

  /// Fault-armed reply wait: blocks until the reply for `req_id` arrives or
  /// `timeout` elapses (returns false). Stale replies of earlier timed-out
  /// attempts are discarded.
  bool recv_reply(std::uint64_t req_id, sim::Time timeout);

  /// Cost of one resource verb served by the host proxy daemon (fallback
  /// mode): SCIF round trip + the host-side cost of `op`, the same
  /// cmd_service_time the delegate charges.
  void charge_proxy_verb(CmdOp op, CmdSize size = {});

  /// Record one CmdError budget exhaustion on a resource verb. Returns true
  /// when the caller should retry the verb: either the delegate gets one
  /// more full CMD retry cycle (a delegate_restart_ns restart may answer
  /// it), or the strike budget is spent and the endpoint has just been
  /// degraded to the proxy fallback. Returns false when fatal faults are
  /// not armed — the error stays the caller's problem, as before this
  /// subsystem existed.
  bool note_delegate_death();

  /// Run resource verb `verb` (its CMD path, or its proxy path once
  /// degraded); while note_delegate_death absorbs its CmdError, run it
  /// again. The rerun starts after the handler has exited, because a fiber
  /// must not block inside a catch handler.
  template <class Verb>
  auto delegated(Verb&& verb) {
    for (;;) {
      try {
        return verb();
      } catch (const CmdError&) {
        if (!note_delegate_death()) throw;
      }
    }
  }

  sim::Process& proc_;
  ib::Fabric& fabric_;
  mem::NodeMemory& memory_;
  scif::Channel& channel_;
  ib::Hca& hca_;
  const sim::Platform& platform_;

  std::uint64_t next_req_id_ = 1;
  std::uint64_t cmd_retries_ = 0;
  std::uint64_t cmd_timeouts_ = 0;
  bool proxy_fallback_ = false;
  int delegate_strikes_ = 0;
  std::vector<std::byte> last_reply_;
  /// Client-side handle map: object pointer -> host hash key.
  std::map<const void*, Handle> handles_;
};

}  // namespace dcfa::core
