#pragma once

#include "ib/fabric.hpp"
#include "ib/types.hpp"
#include "mem/memory.hpp"
#include "sim/process.hpp"

namespace dcfa::verbs {

/// Out-of-band QP address (what real code exchanges via PMI/sockets).
struct QpAddress {
  ib::Lid lid = 0;
  ib::Qpn qpn = 0;
};

/// The InfiniBand user-space interface. The paper's central design property
/// is that DCFA exposes *the same* verbs interface on the Xeon Phi as the
/// host's IB Verbs library, so "the MPI applications running on the host
/// could be easily moved to co-processors". We capture that with this
/// abstract interface: dcfa::mpi's P2P layer is written against it and runs
/// unchanged over HostVerbs (host MPI / YAMPII role) or dcfa::PhiVerbs
/// (DCFA-MPI role) or the baseline proxy transport.
///
/// Every call is made on behalf of the owning sim::Process (one per MPI
/// rank) and models that caller's CPU cost: cheap on a host core, expensive
/// on a 1 GHz in-order Phi core, and a full command round-trip for the
/// delegated resource-creation verbs in the DCFA case.
class Ib {
 public:
  virtual ~Ib() = default;

  // --- Resource creation ---------------------------------------------------
  // [[nodiscard]]: a dropped handle can never be deregistered/destroyed, so
  // the leak outlives the rank. dcfa_lint's unchecked-result rule is the
  // same invariant for toolchains that ignore the attribute.
  [[nodiscard]] virtual ib::ProtectionDomain* alloc_pd() = 0;
  [[nodiscard]] virtual ib::MemoryRegion* reg_mr(ib::ProtectionDomain* pd,
                                                 const mem::Buffer& buf,
                                                 unsigned access) = 0;
  virtual void dereg_mr(ib::MemoryRegion* mr) = 0;
  [[nodiscard]] virtual ib::CompletionQueue* create_cq(int capacity) = 0;
  [[nodiscard]] virtual ib::QueuePair* create_qp(
      ib::ProtectionDomain* pd, ib::CompletionQueue* send_cq,
      ib::CompletionQueue* recv_cq) = 0;
  virtual void connect(ib::QueuePair* qp, QpAddress remote) = 0;
  /// Destroy a QP (connection recovery tears down error-state QPs before
  /// re-creating them). Delegated on the Phi, a direct verb on the host.
  virtual void destroy_qp(ib::QueuePair* qp) = 0;
  virtual QpAddress address(ib::QueuePair* qp) = 0;

  // --- Data path ------------------------------------------------------------
  virtual void post_send(ib::QueuePair* qp, ib::SendWr wr) = 0;
  /// Non-blocking poll; models the caller's per-poll cost only when
  /// completions were found.
  virtual int poll_cq(ib::CompletionQueue* cq, int max, ib::Wc* out) = 0;
  /// Block the calling process until `cq` receives a completion (or was
  /// already non-empty). Spurious wake-ups allowed.
  virtual void wait_cq(ib::CompletionQueue* cq) = 0;

  // --- Memory ----------------------------------------------------------------
  /// Allocate a user buffer in this endpoint's natural domain (host DRAM for
  /// HostVerbs, Phi GDDR for PhiVerbs).
  [[nodiscard]] virtual mem::Buffer alloc_buffer(std::size_t size,
                                                 std::size_t align = 64) = 0;
  virtual void free_buffer(const mem::Buffer& buf) = 0;
  virtual mem::Domain data_domain() const = 0;

  /// Model `bytes` of single-core memcpy on this endpoint's CPU (the eager
  /// protocol's copies).
  virtual void charge_memcpy(std::size_t bytes) = 0;

  virtual sim::Process& process() = 0;

  /// The node's HCA (for wake-up observers and tests). On a Phi endpoint
  /// this is the host-owned HCA whose doorbells are mapped into user space.
  virtual ib::Hca& hca_ref() = 0;

  /// Fault injector this endpoint consults (nullptr = faults off). The
  /// Runtime arms every endpoint of a run with the same injector so all
  /// layers observe one deterministic fault sequence.
  void set_faults(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* faults() { return faults_; }

 private:
  sim::FaultInjector* faults_ = nullptr;
};

/// Plain host-side verbs: what the original YAMPII host MPI uses, and what
/// the DCFA host delegation process uses internally.
class HostVerbs final : public Ib {
 public:
  HostVerbs(sim::Process& proc, ib::Fabric& fabric, mem::NodeMemory& memory);

  [[nodiscard]] ib::ProtectionDomain* alloc_pd() override;
  [[nodiscard]] ib::MemoryRegion* reg_mr(ib::ProtectionDomain* pd,
                                         const mem::Buffer& buf,
                                         unsigned access) override;
  void dereg_mr(ib::MemoryRegion* mr) override;
  [[nodiscard]] ib::CompletionQueue* create_cq(int capacity) override;
  [[nodiscard]] ib::QueuePair* create_qp(ib::ProtectionDomain* pd,
                                         ib::CompletionQueue* send_cq,
                                         ib::CompletionQueue* recv_cq) override;
  void connect(ib::QueuePair* qp, QpAddress remote) override;
  void destroy_qp(ib::QueuePair* qp) override;
  QpAddress address(ib::QueuePair* qp) override;

  void post_send(ib::QueuePair* qp, ib::SendWr wr) override;
  int poll_cq(ib::CompletionQueue* cq, int max, ib::Wc* out) override;
  void wait_cq(ib::CompletionQueue* cq) override;

  mem::Buffer alloc_buffer(std::size_t size, std::size_t align) override;
  void free_buffer(const mem::Buffer& buf) override;
  mem::Domain data_domain() const override { return mem::Domain::HostDram; }
  void charge_memcpy(std::size_t bytes) override;

  sim::Process& process() override { return proc_; }

  ib::Hca& hca() { return hca_; }
  ib::Hca& hca_ref() override { return hca_; }

 private:
  sim::Process& proc_;
  ib::Fabric& fabric_;
  mem::NodeMemory& memory_;
  ib::Hca& hca_;
  const sim::Platform& platform_;
};

}  // namespace dcfa::verbs
