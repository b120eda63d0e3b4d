#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "ib/types.hpp"
#include "pcie/pcie.hpp"
#include "sim/platform.hpp"
#include "sim/resource.hpp"

namespace dcfa::ib {

class Hca;
class Fabric;

/// Protection domain: MRs and QPs created under different PDs cannot be
/// mixed (checked at post time, like real verbs).
class ProtectionDomain {
 public:
  ProtectionDomain(Hca& hca, int id) : hca_(hca), id_(id) {}
  int id() const { return id_; }
  Hca& hca() { return hca_; }

 private:
  Hca& hca_;
  int id_;
};

/// Registered memory region. Registration is the precondition for any HCA
/// access — the paper leans on this: registering from the Phi is expensive
/// (CMD offload), which motivates both the MR cache pool and the offloading
/// send buffer. Registration also pins the window's storage: it stays valid
/// until dereg, even if the buffer behind it is freed first.
class MemoryRegion {
 public:
  MemoryRegion(ProtectionDomain& pd, mem::Domain domain, mem::SimAddr addr,
               std::size_t length, unsigned access, MKey lkey, MKey rkey,
               std::shared_ptr<std::byte> pinned)
      : pd_(pd),
        domain_(domain),
        addr_(addr),
        length_(length),
        access_(access),
        lkey_(lkey),
        rkey_(rkey),
        pinned_(std::move(pinned)) {}

  mem::SimAddr addr() const { return addr_; }
  std::size_t length() const { return length_; }
  mem::Domain domain() const { return domain_; }
  unsigned access() const { return access_; }
  MKey lkey() const { return lkey_; }
  MKey rkey() const { return rkey_; }
  ProtectionDomain& pd() const { return pd_; }

  bool covers(mem::SimAddr a, std::size_t len) const {
    return a >= addr_ && a + len <= addr_ + length_;
  }

  /// The real bytes at simulated address `a`, which the caller has checked
  /// with covers(): the HCA's DMA moves data through this view.
  std::byte* host(mem::SimAddr a) const { return pinned_.get() + (a - addr_); }

 private:
  ProtectionDomain& pd_;
  mem::Domain domain_;
  mem::SimAddr addr_;
  std::size_t length_;
  unsigned access_;
  MKey lkey_;
  MKey rkey_;
  std::shared_ptr<std::byte> pinned_;  ///< storage at addr_, held until dereg
};

enum class QpState { Reset, ReadyToSend, Error };

/// Reliable-connection queue pair.
class QueuePair {
 public:
  QueuePair(Hca& hca, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, Qpn qpn)
      : hca_(hca), pd_(pd), send_cq_(send_cq), recv_cq_(recv_cq), qpn_(qpn) {}

  Qpn qpn() const { return qpn_; }
  QpState state() const { return state_; }
  Lid remote_lid() const { return remote_lid_; }
  Qpn remote_qpn() const { return remote_qpn_; }
  Hca& hca() { return hca_; }
  ProtectionDomain& pd() { return pd_; }
  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }

 private:
  friend class Hca;

  Hca& hca_;
  ProtectionDomain& pd_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  Qpn qpn_;
  QpState state_ = QpState::Reset;
  Lid remote_lid_ = 0;
  Qpn remote_qpn_ = 0;

  std::deque<RecvWr> recv_queue_;
  /// Sends that arrived before a receive was posted (RNR wait).
  struct PendingArrival {
    SendWr wr;
    Qpn src_qp;
    sim::Time arrival;
    Hca* src_hca;
  };
  int rnr_retries_left_ = 7;  ///< RC retry budget (ibv qp_attr rnr_retry)
  std::deque<PendingArrival> rnr_queue_;
  /// Enforces in-order completion per QP.
  sim::Time last_completion_ = 0;
  /// Work queued behind a delayed WR (Hca::after_delay), in posting order,
  /// and the latest ready time among it.
  std::deque<std::function<void(QueuePair*, sim::Time)>> deferred_;
  sim::Time deferred_until_ = 0;
};

/// Simulated ConnectX-3-style HCA. One per node, attached to that node's
/// memory (both domains) and to the fabric.
///
/// Timing model per work request: WQE fetch overhead, then a chunked
/// three-to-four stage pipeline (local DMA read -> egress wire -> ingress
/// wire -> remote DMA write) whose per-stage bandwidths depend on which
/// memory domain each end touches. The local-read stage against Phi GDDR is
/// the paper's bottleneck. Data really moves at completion time.
class Hca {
 public:
  Hca(sim::Engine& engine, Fabric& fabric, mem::NodeMemory& memory,
      pcie::PciePort& pcie, const sim::Platform& platform, Lid lid);

  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  Lid lid() const { return lid_; }
  mem::NodeId node() const { return memory_.node(); }
  sim::Engine& engine() { return engine_; }
  mem::NodeMemory& memory() { return memory_; }
  const sim::Platform& platform() const { return platform_; }

  // --- Resource creation (host-driver side; the Phi must delegate) --------
  // [[nodiscard]]: a discarded handle is a leak the simulation never
  // reclaims (dcfa_lint unchecked-result rule).
  [[nodiscard]] ProtectionDomain* alloc_pd();

  [[nodiscard]] MemoryRegion* reg_mr(ProtectionDomain* pd, mem::Domain domain,
                                     mem::SimAddr addr, std::size_t length,
                                     unsigned access);
  void dereg_mr(MemoryRegion* mr);

  [[nodiscard]] CompletionQueue* create_cq(int capacity);

  [[nodiscard]] QueuePair* create_qp(ProtectionDomain* pd,
                                     CompletionQueue* send_cq,
                                     CompletionQueue* recv_cq);
  void destroy_qp(QueuePair* qp);

  /// Bring the QP to ReadyToSend, bound to (remote_lid, remote_qpn). Both
  /// sides must connect before traffic flows (tests verify misuse throws).
  void connect(QueuePair* qp, Lid remote_lid, Qpn remote_qpn);

  // --- Data path -----------------------------------------------------------
  /// Post a send-side WR. Pure HCA-side behaviour: the *caller* models its
  /// own CPU post overhead (host vs Phi core).
  void post_send(QueuePair* qp, SendWr wr);
  void post_recv(QueuePair* qp, RecvWr wr);

  /// Uncontended time to stream `wr`'s bytes over `qp`'s path: the bytes at
  /// the slowest of the local SGEs' DMA rates, the wire and (for RDMA) the
  /// remote MR's DMA rate, from the same cost model post_send charges. No
  /// latency, no queueing: what a poster can add to a completion timeout.
  /// Keys that resolve to no MR contribute no term.
  sim::Time stream_time(const QueuePair* qp, const SendWr& wr);

  /// Look up an MR by its local key / remote key.
  MemoryRegion* mr_by_lkey(MKey lkey);
  MemoryRegion* mr_by_rkey(MKey rkey);

  /// Register a callback fired whenever an inbound RDMA write lands in this
  /// node's memory. This is the simulator's stand-in for the eager-ring
  /// tail-polling loop of the paper's protocol: instead of a rank burning a
  /// core re-reading the tail byte, the landing event wakes it and it then
  /// pays the modelled poll cost when it inspects the ring.
  /// The callback receives the rkey the write targeted, so a listener can
  /// tell which region changed (mpi::Engine marks the endpoint owning that
  /// ring or credit cell). It fires on every landing — also when the MR was
  /// deregistered while the write was in flight and the data was dropped —
  /// so listeners must tolerate rkeys they do not know.
  /// Returns an id for remove_remote_write_observer (components with a
  /// shorter lifetime than the HCA must deregister before dying).
  std::size_t add_remote_write_observer(std::function<void(MKey)> cb) {
    remote_write_observers_.push_back(std::move(cb));
    return remote_write_observers_.size() - 1;
  }
  void remove_remote_write_observer(std::size_t id) {
    if (id < remote_write_observers_.size()) {
      remote_write_observers_[id] = nullptr;
    }
  }

  /// Per-direction DMA stage resources (exposed for tests and stats).
  /// PCIe is full duplex: the HCA's inbound (memory-read) and outbound
  /// (memory-write) DMA streams are independent resources.
  sim::Resource& dma_read() { return dma_read_; }
  sim::Resource& dma_write() { return dma_write_; }
  sim::Resource& egress() { return egress_; }
  sim::Resource& ingress() { return ingress_; }

  std::uint64_t mrs_registered_total() const { return mr_reg_count_; }
  /// MRs registered and not yet deregistered.
  std::size_t mrs_live() const { return mrs_by_lkey_.size(); }
  /// Payload bytes this HCA has injected into the wire (retransmissions
  /// count again — that is the point of tracking it).
  std::uint64_t egress_bytes() const { return egress_bytes_; }

 private:
  friend class Fabric;

  struct DmaCost {
    double gbps;
    sim::Time latency;
  };
  DmaCost read_cost(mem::Domain d) const;
  DmaCost write_cost(mem::Domain d) const;
  /// Byte-weighted cost of gathering from (`read`) or scattering into the
  /// SGEs whose MRs `mrs` holds index-aligned: bandwidth is the bytes over
  /// the summed per-SGE transfer times, latency the slowest SGE's.
  DmaCost sge_cost(const std::vector<Sge>& sges,
                   const std::vector<MemoryRegion*>& mrs, bool read) const;

  void execute_send(QueuePair* qp, SendWr wr);
  /// Run `book(qp, start)` for a WR whose fate and DMA delay are drawn:
  /// now, or once `delay` has passed and every WR the QP deferred earlier
  /// has run, in posting order whatever order the engine gives events of
  /// equal time. `start` is the WQE-fetched start time. A delayed WR books
  /// the HCA's resources only at its delayed start, so it holds up no other
  /// QP's WRs. Completions that need no booking (flushes, failed posts) go
  /// through it too, so they cannot overtake a deferred WR.
  template <class Book>
  void after_delay(QueuePair* qp, sim::Time delay, Book book);
  /// Runs on the *destination* HCA when a Send arrives; matches a posted
  /// receive or parks in the RNR queue.
  void deliver_send(QueuePair* dst_qp, SendWr wr, Qpn src_qpn, Hca& src_hca,
                    sim::Time arrival);
  void complete_matched_recv(QueuePair* dst_qp, SendWr wr, Qpn src_qpn,
                             Hca& src_hca, sim::Time start);

  /// Gather total byte length of an SGE list.
  static std::size_t total_length(const std::vector<Sge>& sges);

  /// Validate each SGE against an MR (lkey, bounds, pd), leaving the MRs
  /// found in `mrs`, index-aligned with `sges` (nullptr for zero-length
  /// SGEs). Returns the first failing status or nullopt when all pass.
  std::optional<WcStatus> check_sges(ProtectionDomain& pd,
                                     const std::vector<Sge>& sges,
                                     bool need_local_write,
                                     std::vector<MemoryRegion*>& mrs);

  void complete(QueuePair* qp, CompletionQueue& cq, const SendWr& wr,
                WcOpcode op, WcStatus status, std::size_t bytes,
                sim::Time at);
  void fail_post(QueuePair* qp, const SendWr& wr, WcStatus status);

  sim::Engine& engine_;
  Fabric& fabric_;
  mem::NodeMemory& memory_;
  pcie::PciePort& pcie_;
  const sim::Platform& platform_;
  Lid lid_;

  sim::Resource dma_read_;   ///< HCA reading local memory (send side).
  sim::Resource dma_write_;  ///< HCA writing local memory (receive side).
  sim::Resource egress_;      ///< Wire injection port.
  sim::Resource ingress_;     ///< Wire delivery port.

  std::uint64_t egress_bytes_ = 0;
  int next_pd_id_ = 1;
  Qpn next_qpn_ = 100;
  MKey next_key_ = 0x1000;
  int next_cq_id_ = 1;
  std::uint64_t mr_reg_count_ = 0;

  std::map<int, std::unique_ptr<ProtectionDomain>> pds_;
  // Probed on every WR and only ever found, emplaced or erased, never
  // iterated, so hashing cannot leak an order into the simulation.
  std::unordered_map<MKey, std::unique_ptr<MemoryRegion>> mrs_by_lkey_;
  std::unordered_map<MKey, MemoryRegion*> mrs_by_rkey_;
  std::map<int, std::unique_ptr<CompletionQueue>> cqs_;
  std::unordered_map<Qpn, std::unique_ptr<QueuePair>> qps_;
  /// check_sges output for the WR being posted, reused across posts.
  std::vector<MemoryRegion*> sge_mrs_;
  std::vector<std::function<void(MKey)>> remote_write_observers_;

  void notify_remote_write(MKey rkey) {
    for (auto& cb : remote_write_observers_) {
      if (cb) cb(rkey);
    }
  }
};

}  // namespace dcfa::ib
