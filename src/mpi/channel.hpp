#pragma once

#include "mpi/communicator.hpp"

namespace dcfa::mpi {

/// Persistent one-sided halo channel (the pMR design point, PAPERS.md):
/// every buffer address, MR and rkey the transfer needs is negotiated
/// exactly once, at construction; after that each post() is a bare RDMA
/// write with pre-exchanged keys — no MR-cache lookup, no registration, no
/// rendezvous handshake, no staging decision on the hot path. For an
/// iterative stencil whose halos move every iteration (the DD-αAMG
/// multigrid workload), this removes the entire per-message setup cost the
/// two-sided rendezvous path pays.
///
/// Usage pattern (both ranks of the pair construct one, symmetrically):
///
///   Channel ch(comm, neighbour, send_buf, soff, recv_buf, roff, bytes);
///   for (iter ...) {
///     fill send_buf;          // local compute
///     ch.post();              // RDMA-write payload + doorbell to peer
///     ch.wait_arrival();      // peer's payload landed in recv_buf
///     ch.wait_local();        // send_buf reusable
///   }
///   ch.close();
///
/// Arrival notification is a doorbell cell: after the payload write
/// completes, the channel writes its monotonic post counter into the
/// peer's doorbell with a second pre-negotiated RDMA write. Both writes
/// ride one queue pair in order, so a doorbell value of n proves payloads
/// 1..n have landed. wait_arrival() blocks on the engine's remote-write
/// observer — no timed polling.
///
/// Self-channels (peer == own rank) work and short-circuit to memcpy, so
/// periodic stencils need no special casing at the wrap-around.
class Channel {
 public:
  /// Internal setup tag for the pairwise rkey exchange (just below the
  /// reserved internal range so it cannot collide with collective traffic;
  /// user code should avoid it while channels are being built).
  static constexpr int kSetupTag = kInternalTagBase - 2;

  /// Pairwise (both sides call it): wire `bytes` from this rank's
  /// send_buf[soff..] to the peer's recv_buf[roff..] and vice versa.
  /// Buffers must outlive the channel.
  Channel(Communicator& comm, int peer, const mem::Buffer& send_buf,
          std::size_t soff, const mem::Buffer& recv_buf, std::size_t roff,
          std::size_t bytes);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel();

  /// Hot path: RDMA-write the send region into the peer's recv region and
  /// ring its doorbell. Returns immediately; wait_local() completes it.
  void post();
  /// Block until the peer's next posted payload has fully landed in the
  /// recv region (arrival n for the n-th call). Throws MpiErrc::ProcFailed
  /// instead of hanging when the peer is dead.
  void wait_arrival();
  /// Block until every local post() completed (send region reusable).
  void wait_local();

  /// Release MRs and the doorbell cell. Pairwise, not collective; called
  /// by the destructor if forgotten (best-effort there).
  void close();

  std::uint64_t posts() const { return posts_; }
  /// Doorbell value: how many peer payloads have arrived.
  std::uint64_t arrivals() const;
  int peer() const { return peer_; }
  std::size_t bytes() const { return bytes_; }

 private:
  Engine& eng() const { return comm_.engine(); }

  Communicator& comm_;
  int peer_;           ///< comm-relative
  int peer_world_;
  std::size_t bytes_;
  std::uint64_t id_ = 0;       ///< checker exposure id (payload region)
  std::uint64_t db_id_ = 0;    ///< checker exposure id (doorbell cell)

  mem::Buffer send_buf_;
  std::size_t soff_ = 0;
  mem::Buffer recv_buf_;
  std::size_t roff_ = 0;
  /// Control block: [0..8) my doorbell cell (peer writes its post count
  /// here), [8..16) doorbell staging (source of my doorbell writes).
  mem::Buffer ctrl_;

  ib::MemoryRegion* send_mr_ = nullptr;
  ib::MemoryRegion* recv_mr_ = nullptr;
  ib::MemoryRegion* ctrl_mr_ = nullptr;

  // Peer's side, learned once at construction.
  mem::SimAddr peer_recv_addr_ = 0;
  ib::MKey peer_recv_rkey_ = 0;
  mem::SimAddr peer_db_addr_ = 0;
  ib::MKey peer_db_rkey_ = 0;

  /// Payloads leave through the offload host shadow (decided at setup).
  bool offload_ = false;
  std::uint64_t posts_ = 0;      ///< payloads posted (doorbell currency)
  std::uint64_t expected_ = 0;   ///< arrivals consumed by wait_arrival
  int local_pending_ = 0;        ///< posts not yet locally complete
  bool closed_ = false;
};

}  // namespace dcfa::mpi
