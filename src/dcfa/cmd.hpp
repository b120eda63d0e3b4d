#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "dcfa/host_compute.hpp"
#include "ib/hca.hpp"
#include "scif/scif.hpp"
#include "sim/fault.hpp"

namespace dcfa::core {

/// DCFA command opcodes — the requests a Xeon Phi user-space program must
/// offload to the host because a PCIe device cannot configure the HCA
/// itself (Section IV-B1, "DCFA CMD server / client").
enum class CmdOp : std::uint32_t {
  AllocPd,
  RegMr,          ///< params: pd handle, phys addr, length, access
  DeregMr,        ///< params: mr handle
  CreateCq,       ///< params: capacity
  CreateQp,       ///< params: pd, send cq, recv cq handles
  ConnectQp,      ///< params: qp handle, remote lid, remote qpn
  DestroyQp,      ///< params: qp handle; used by connection recovery to tear
                  ///< down a QP wedged in the error state
  RegOffloadMr,   ///< params: size -> host shadow buffer + MR
  DeregOffloadMr, ///< params: offload handle
  // --- DCFA-MPI CMD ops (the paper's future work, Section VI): heavy MPI
  // functions executed by the host CPU on shadow buffers. ---
  ReduceShadow,   ///< params: addr_a, addr_b (host), count, kind, fn
  PackShadow,     ///< params: src addr, count, extent, blocks[] -> packed
                  ///< host buffer + MR (an offload region holding the
                  ///< densely packed data)
};

enum class CmdStatus : std::uint32_t { Ok, BadHandle, BadArgument, Failed };

/// Thrown by the Phi-side CMD client when a delegated verb definitively
/// failed: a non-Ok reply, or no reply within the timeout after the retry
/// budget ran out. Callers with a fallback (the offload shadow path) catch
/// it; callers without one surface it as an MPI error.
class CmdError : public std::runtime_error {
 public:
  CmdError(CmdOp op, CmdStatus status, const std::string& what)
      : std::runtime_error(what), op_(op), status_(status) {}
  CmdOp op() const { return op_; }
  CmdStatus status() const { return status_; }

 private:
  CmdOp op_;
  CmdStatus status_;
};

/// Coarse class of a CMD op for the fault injector's cmd_op= filter.
inline sim::FaultInjector::CmdOpClass cmd_op_class(CmdOp op) {
  switch (op) {
    case CmdOp::RegMr:
    case CmdOp::DeregMr:
      return sim::FaultInjector::CmdOpClass::RegMr;
    case CmdOp::RegOffloadMr:
    case CmdOp::DeregOffloadMr:
    case CmdOp::ReduceShadow:
    case CmdOp::PackShadow:
      return sim::FaultInjector::CmdOpClass::Offload;
    case CmdOp::AllocPd:
    case CmdOp::CreateCq:
    case CmdOp::CreateQp:
    case CmdOp::ConnectQp:
    case CmdOp::DestroyQp:
      return sim::FaultInjector::CmdOpClass::Create;
  }
  return sim::FaultInjector::CmdOpClass::Other;
}

/// The sizes a CMD's host service time grows with.
struct CmdSize {
  /// Bytes the delegate registers: RegMr's length, RegOffloadMr's shadow,
  /// PackShadow's packed buffer.
  std::uint64_t reg_bytes = 0;
  /// Bytes the host CPU streams: ReduceShadow's operand length, PackShadow's
  /// source span.
  std::uint64_t work_bytes = 0;
};

/// Host service time the delegate charges a successful CMD before it
/// replies. The delegate charges it and the Phi client's reply timeout grows
/// with it, so both read this one formula.
sim::Time cmd_service_time(const sim::Platform& p, CmdOp op, CmdSize size);

struct CmdHeader {
  CmdOp op;
  std::uint64_t req_id;
};

struct RespHeader {
  std::uint64_t req_id;
  CmdStatus status;
};

// CMD headers travel over the SCIF channel as raw bytes; fixed-width fields
// only, and the layout must be byte-copyable (dcfa_lint wire-struct rule).
static_assert(std::is_trivially_copyable_v<CmdHeader>);
static_assert(std::is_trivially_copyable_v<RespHeader>);

/// A handle published by the host delegation process ("a hash key for later
/// reuse" in the paper's words).
using Handle = std::uint64_t;

/// Reply payload of RegOffloadMr: where the host shadow buffer lives and the
/// keys to send from it.
struct OffloadMrInfo {
  Handle handle = 0;
  mem::SimAddr host_addr = 0;
  std::uint64_t size = 0;  ///< fixed-width: size_t differs across ABIs
  ib::MKey lkey = 0;
  ib::MKey rkey = 0;
};

static_assert(std::is_trivially_copyable_v<OffloadMrInfo>);

/// The DCFA CMD server: an extension of the host delegation process (mcexec)
/// that receives offloaded InfiniBand requests from one Phi client, executes
/// the corresponding host verbs, stores every created object in a hash
/// table, and replies with its handle.
///
/// Event-driven: it subscribes to the SCIF channel rather than burning a
/// simulated core, and serialises request handling through a Resource so
/// back-to-back commands queue like they would on the real single delegation
/// thread.
class HostDelegate {
 public:
  HostDelegate(scif::Channel& channel, ib::Hca& hca, mem::NodeMemory& memory);
  ~HostDelegate();

  HostDelegate(const HostDelegate&) = delete;
  HostDelegate& operator=(const HostDelegate&) = delete;

  /// Objects created on behalf of the client (for tests/stats).
  std::size_t table_size() const { return objects_.size(); }
  std::uint64_t requests_served() const { return served_; }

  /// True while the delegation process is dead (delegate_crash fault).
  /// Every request is swallowed until the scheduled restart, if any.
  bool crashed() const { return crashed_; }

  /// Arm fault injection: requests may be swallowed (client times out) or
  /// answered with CmdStatus::Failed, always *before* execution so a client
  /// retry never double-creates an object. nullptr disarms.
  void set_faults(sim::FaultInjector* faults) { faults_ = faults; }

  /// Host-side lookup used by the Phi client after a reply: the simulated
  /// equivalent of the mmap'ed structures the host shares back.
  ib::ProtectionDomain* pd(Handle h);
  ib::MemoryRegion* mr(Handle h);
  ib::CompletionQueue* cq(Handle h);
  ib::QueuePair* qp(Handle h);

 private:
  struct OffloadEntry {
    mem::Buffer shadow;
    ib::MemoryRegion* mr;
  };
  using Object = std::variant<ib::ProtectionDomain*, ib::MemoryRegion*,
                              ib::CompletionQueue*, ib::QueuePair*,
                              OffloadEntry>;

  void service();
  void handle(std::vector<std::byte> msg);
  void reply(std::uint64_t req_id, CmdStatus status, scif::Writer payload,
             sim::Time service_time);
  sim::Telemetry& tel() { return channel_.engine().telemetry(); }
  sim::Track track() const { return {sim::Track::Delegate, memory_.node()}; }

  scif::Channel& channel_;
  ib::Hca& hca_;
  mem::NodeMemory& memory_;
  const sim::Platform& platform_;
  sim::FaultInjector* faults_ = nullptr;
  sim::Resource busy_;
  ib::ProtectionDomain* delegate_pd_ = nullptr;  // PD for offload shadows

  Handle next_handle_ = 1;
  std::map<Handle, Object> objects_;
  std::uint64_t served_ = 0;
  bool crashed_ = false;
};

}  // namespace dcfa::core
