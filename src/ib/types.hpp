#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/memory.hpp"
#include "sim/process.hpp"

namespace dcfa::ib {

/// InfiniBand local identifier (one per HCA port in our single-port model).
using Lid = std::uint16_t;
/// Queue pair number, unique per HCA.
using Qpn = std::uint32_t;
/// Memory key (lkey/rkey).
using MKey = std::uint32_t;

/// MR access permissions (bitmask, mirrors IBV_ACCESS_*).
enum Access : unsigned {
  kLocalRead = 0,  // always allowed
  kLocalWrite = 1u << 0,
  kRemoteRead = 1u << 1,
  kRemoteWrite = 1u << 2,
};

/// Scatter/gather element. Addresses are simulated device addresses.
struct Sge {
  mem::SimAddr addr = 0;
  std::uint32_t length = 0;
  MKey lkey = 0;
};

enum class Opcode { Send, RdmaWrite, RdmaRead };

/// Send-side work request (ibv_send_wr).
struct SendWr {
  std::uint64_t wr_id = 0;
  std::vector<Sge> sg_list;
  Opcode opcode = Opcode::Send;
  bool signaled = true;
  /// For RDMA operations: remote window.
  mem::SimAddr remote_addr = 0;
  MKey rkey = 0;
  /// 32-bit immediate-style tag delivered with Send (used by tests).
  std::uint32_t imm_data = 0;
  /// Marks a WR the poster is prepared to retry: the fault injector only
  /// ever drops/errors faultable WRs. Protocol-critical unretryable writes
  /// (credit returns, one-sided window ops) leave this false.
  bool faultable = false;
};

/// Receive-side work request (ibv_recv_wr).
struct RecvWr {
  std::uint64_t wr_id = 0;
  std::vector<Sge> sg_list;
};

enum class WcStatus {
  Success,
  LocalProtectionError,   ///< SGE outside a valid local MR / bad lkey.
  RemoteAccessError,      ///< rkey/window rejected by the responder.
  RemoteInvalidRequest,   ///< e.g. send longer than the posted receive.
  WrFlushError,           ///< QP went to error state; WR flushed.
  RetryExceeded,          ///< transport retries exhausted: the responder
                          ///< stopped acknowledging (its process died; the
                          ///< QP goes to Error), or an injected soft error
                          ///< (the QP stays usable).
};

const char* wc_status_name(WcStatus s);

enum class WcOpcode { Send, RdmaWrite, RdmaRead, Recv };

/// Completion-queue entry (ibv_wc).
struct Wc {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::Success;
  WcOpcode opcode = WcOpcode::Send;
  std::uint32_t byte_len = 0;
  Qpn qp_num = 0;
  Qpn src_qp = 0;
  std::uint32_t imm_data = 0;
};

/// Completion queue: CQEs in completion order plus a virtual-time condition
/// notified on every arrival so processes can block instead of spinning.
class CompletionQueue {
 public:
  CompletionQueue(sim::Engine& engine, int capacity, int id)
      : capacity_(capacity), id_(id), cond_(engine, "cq") {}

  int id() const { return id_; }
  int capacity() const { return capacity_; }
  std::size_t depth() const { return entries_.size(); }

  /// Pop up to `max` completions into `out`. Returns count. Non-blocking;
  /// callers model their own poll overhead.
  int poll(int max, Wc* out) {
    int n = 0;
    while (n < max && !entries_.empty()) {
      out[n++] = entries_.front();
      entries_.pop_front();
    }
    return n;
  }

  /// HCA side: append a completion and wake pollers. Overrunning the CQ
  /// capacity throws — in real hardware this is a fatal CQ overrun, and in
  /// the simulator it means a missing poll loop, so fail loudly.
  void push(const Wc& wc) {
    if (entries_.size() >= static_cast<std::size_t>(capacity_)) {
      throw std::runtime_error("CQ overrun (capacity " +
                               std::to_string(capacity_) + ")");
    }
    entries_.push_back(wc);
    cond_.notify_all();
    if (on_push_) on_push_();
  }

  /// Condition notified on every new CQE.
  sim::Condition& arrival() { return cond_; }

  /// Optional hook fired on every push (lets an MPI progress engine funnel
  /// several CQs and ring events into one wake-up condition).
  void set_on_push(std::function<void()> cb) { on_push_ = std::move(cb); }

 private:
  int capacity_;
  int id_;
  std::deque<Wc> entries_;
  sim::Condition cond_;
  std::function<void()> on_push_;
};

}  // namespace dcfa::ib
