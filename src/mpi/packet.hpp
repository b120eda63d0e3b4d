#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ib/types.hpp"
#include "mem/memory.hpp"

namespace dcfa::mpi {

/// Wire packet types of the DCFA-MPI P2P protocol (Section IV-B3).
enum class PacketType : std::uint32_t {
  Eager = 1,  ///< header + payload + tail, one-copy small-message path
  Rts = 2,    ///< sender-first rendezvous: here is my (shadow) buffer
  Rtr = 3,    ///< receiver-first rendezvous: here is my receive buffer
  Done = 4,   ///< rendezvous data movement finished
  Err = 5,    ///< peer aborted the message (truncation); extension to the
              ///< paper's set so the opposite side errors instead of hanging
  Revoke = 6, ///< communicator revocation notice (ULFM MPIX_Comm_revoke):
              ///< comm_id names the revoked communicator; receivers poison
              ///< pending ops on it and re-flood once
};

constexpr std::uint32_t kPacketMagic = 0xDCFA2013;

/// Fixed-size packet header, RDMA-written into the receiver's ring slot.
/// The payload (eager only) follows, then a 4-byte tail copy of the magic;
/// the receiver detects arrival by polling header+tail (IBA guarantees the
/// destination bytes land in SGE order, which the paper's design uses).
struct PacketHeader {
  std::uint32_t magic = kPacketMagic;
  PacketType type = PacketType::Eager;
  std::int32_t src_rank = -1;    ///< global rank of the sender
  std::int32_t tag = 0;
  std::uint32_t comm_id = 0;
  /// Piggybacked credit: the low 32 bits of the sender's consumption
  /// counter for the reverse ring when the packet was emitted. The receiver
  /// widens it against its own counter and applies it like a credit-cell
  /// read; a retransmit carries its original, possibly stale, value.
  std::uint32_t credit = 0;
  std::uint64_t seq = 0;         ///< per (pair, comm, tag) channel sequence id
  std::uint64_t msg_bytes = 0;   ///< full message size (all types)
  /// Absolute ring position (sender's packet counter). Under fault
  /// injection a timed-out packet is retransmitted into the *same* slot;
  /// the receiver accepts a slot only when ring_idx matches its own
  /// consumption counter, which makes stale duplicates self-identifying.
  std::uint64_t ring_idx = 0;
  /// Connection generation of the sending endpoint. Bumped on every
  /// reconnect; the receiver fences out packets stamped with a different
  /// epoch than its current one, so traffic from before a recovery can
  /// never be mistaken for replayed post-recovery traffic.
  std::uint32_t conn_epoch = 0;
  /// Done/Err disambiguation: send-side and receive-side sequence counters
  /// are independent, so a completion packet must say which map it targets.
  enum Dir : std::uint32_t { kToSender = 0, kToReceiver = 1 };
  std::uint32_t dir = kToSender;
  /// Failure-propagation piggyback: the sender's known-failure epoch (a
  /// monotonic count of rank deaths it has adopted from the global failure
  /// board). A receiver seeing a higher epoch than its own pulls the board
  /// — failure knowledge disseminates on existing traffic with zero extra
  /// packets (Tentpole part 1).
  std::uint64_t fail_epoch = 0;
  /// RTS: the sender's exposed buffer (user MR or offload shadow).
  /// RTR: the receiver's user buffer. Unused for Eager/Done.
  mem::SimAddr buf_addr = 0;
  ib::MKey rkey = 0;
  std::uint64_t buf_bytes = 0;   ///< exposed window size (RTR: capacity)
};

// Wire hygiene (scripts/dcfa_lint.py wire-struct rule): the header crosses
// the simulated wire as raw bytes, so it must stay trivially copyable and
// built only from fixed-width fields — host and co-processor ABIs must agree
// on its layout.
static_assert(std::is_trivially_copyable_v<PacketHeader>);
// The credit fills what was a padding hole: the wire size and the slot
// stride are those of the header without it.
static_assert(offsetof(PacketHeader, credit) == 20);
static_assert(sizeof(PacketHeader) == 88);

using PacketTail = std::uint32_t;

/// Ring-slot geometry: [PacketHeader][payload (<= max_payload)][tail],
/// with slot 0 starting `base` bytes into the block that holds the slots.
struct SlotLayout {
  std::uint64_t max_payload;
  std::uint64_t base = 0;

  std::uint64_t stride() const {
    return sizeof(PacketHeader) + max_payload + sizeof(PacketTail);
  }
  std::uint64_t header_off(int slot) const { return base + slot * stride(); }
  std::uint64_t payload_off(int slot) const {
    return header_off(slot) + sizeof(PacketHeader);
  }
  /// Tail lands immediately after the payload (position depends on length).
  std::uint64_t tail_off(int slot, std::uint64_t payload_len) const {
    return payload_off(slot) + payload_len;
  }
};

/// Endpoint memory geometry. Every endpoint has two blocks, and every offset
/// into them comes from here:
///  * the remote block, registered on its own, which the peer RDMA-writes
///    through the one rkey the endpoint advertises: [credit cell][ring
///    slots]. The cell comes first, so a ring overrun still runs off the
///    MR's end and trips the bounds check;
///  * the local block, which only this rank writes:
///    [credit source][probe cell][staging slots]. The credit source feeds
///    credit writes, liveness probes land in the probe cell, and the
///    staging slots feed ring writes. It is never advertised, so it is a
///    local_stride()-spaced slice of a staging-arena chunk that shares the
///    chunk's one registration (wire::sge keeps SGEs inside the slice).
struct EndpointLayout {
  static constexpr std::uint64_t kCell = 64;  ///< one cache line per cell
  static constexpr std::uint64_t kCreditCellOff = 0;  ///< remote block
  static constexpr std::uint64_t kCreditSrcOff = 0;   ///< local block
  static constexpr std::uint64_t kProbeCellOff = kCell;  ///< local block
  /// A probe reads the peer's two-word pulse: counter, known-failure epoch.
  static constexpr std::uint64_t kProbeCellBytes = 2 * sizeof(std::uint64_t);

  EndpointLayout(std::uint64_t max_payload, int slots)
      : ring{max_payload, kCell}, staging{max_payload, 2 * kCell},
        slots(slots) {}

  SlotLayout ring;     ///< receive slots, in the remote block
  SlotLayout staging;  ///< send slots, in the local block
  int slots;

  std::uint64_t remote_bytes() const { return ring.header_off(slots); }
  std::uint64_t local_bytes() const { return staging.header_off(slots); }
  /// Spacing of local blocks in an arena chunk: cell-aligned, not paged.
  std::uint64_t local_stride() const {
    return (local_bytes() + kCell - 1) / kCell * kCell;
  }
};

}  // namespace dcfa::mpi
