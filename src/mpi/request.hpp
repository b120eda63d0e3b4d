#pragma once

#include <memory>

#include "mem/memory.hpp"
#include "mpi/types.hpp"

namespace dcfa::ib {
class MemoryRegion;
}

namespace dcfa::mpi {

class Engine;

/// Internal request state. Lifetime is managed by shared_ptr: the user's
/// Request handle and the protocol engine both hold references.
struct RequestState {
  enum class Kind { Send, Recv, Coll, Rma };
  enum class Phase {
    Queued,        ///< created, protocol not yet decided / waiting for seq
    EagerSent,     ///< (send) data staged & written — complete for MPI
    RtsSent,       ///< (send) waiting for DONE (or RTR already dropped)
    WritingData,   ///< (send) RDMA write in flight after an RTR
    WaitingPacket, ///< (recv) posted, nothing arrived yet
    RtrSent,       ///< (recv) receiver-first RTR out, waiting data/DONE
    ReadingData,   ///< (recv) RDMA read in flight after an RTS
    Complete,
    Error,
  };
  // Kind::Coll requests back a collective schedule (mpi/coll.hpp): they sit
  // in Queued while the engine advances the schedule's stages and jump
  // straight to Complete/Error. The fields below the envelope are unused.
  // Kind::Rma requests back a window rput/rget (mpi/window.hpp): same shape
  // — Queued until the RDMA op's completion callback fires, then straight
  // to Complete/Error. Completion is phase-based, so they mix freely with
  // p2p and collective requests in every wait/test set.

  Kind kind = Kind::Send;
  Phase phase = Phase::Queued;
  int peer = kAnySource;     ///< destination (send) / source filter (recv)
  int tag = kAnyTag;
  std::uint32_t comm_id = 0;
  std::uint64_t seq = 0;     ///< channel sequence id (once assigned)
  bool seq_assigned = false;

  /// Packed message bytes (send: exact; recv: buffer capacity until matched).
  std::size_t bytes = 0;
  /// User buffer window.
  mem::Buffer buffer;
  std::size_t offset = 0;

  /// Element layout (non-owning; predefined types are static, user types
  /// must outlive the request).
  const class Datatype* type = nullptr;
  std::size_t count = 0;
  /// Staging for non-contiguous datatypes (packed before send / unpacked
  /// after receive); owned by the request, freed at completion.
  mem::Buffer pack_buf;
  bool has_pack = false;
  /// Per-message MR when the cache is disabled (released at completion).
  ib::MemoryRegion* window_mr = nullptr;
  /// DcfaRace tracked-access id for the user buffer (0 when not tracked):
  /// opened at post, closed in the complete/fail funnels.
  std::uint64_t race_id = 0;

  /// Send side: true when the payload was staged through the offloading
  /// send buffer (host shadow) — for stats/tests.
  bool used_offload_shadow = false;
  /// Send side: a stale RTR for this request was received and dropped
  /// (paper's simultaneous / sender-eager cases).
  bool dropped_rtr = false;
  /// Send side: synchronous-mode send (always rendezvous).
  bool sync_mode = false;

  /// Virtual time the request was posted (for trace spans).
  std::int64_t posted_at = 0;

  Status status;             ///< filled at completion (recv)
  std::string error;         ///< non-empty when phase == Error
  MpiErrc errc = MpiErrc::Other;  ///< taxonomy code when phase == Error
  int err_peer = -1;         ///< world rank blamed for the error, if any

  bool done() const {
    return phase == Phase::Complete || phase == Phase::Error;
  }
  /// Raise the request's error, with its taxonomy, once it failed.
  void throw_if_failed() const {
    if (phase == Phase::Error) throw MpiError(error, errc, err_peer, comm_id);
  }
};

/// User-facing request handle (MPI_Request) — one type for point-to-point,
/// persistent and collective operations. Obtained from isend/irecv (and the
/// i-collectives); completed via Communicator::wait/test/waitall/waitany,
/// which accept mixed sets of all three kinds.
class Request {
 public:
  Request() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done(); }
  const Status& status() const { return state_->status; }

  /// Error inspection for fault-tolerant wait sets: after waitall drives a
  /// mixed set to terminal phases, callers sort survivors from casualties
  /// by failed()/errc() without re-throwing.
  bool failed() const {
    return state_ && state_->phase == RequestState::Phase::Error;
  }
  MpiErrc errc() const { return state_ ? state_->errc : MpiErrc::Other; }
  const std::string& error() const { return state_->error; }
  int err_peer() const { return state_ ? state_->err_peer : -1; }

 private:
  friend class Engine;
  friend class Communicator;
  friend class Window;
  explicit Request(std::shared_ptr<RequestState> s) : state_(std::move(s)) {}
  std::shared_ptr<RequestState> state_;
};

}  // namespace dcfa::mpi
