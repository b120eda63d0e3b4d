#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/memory.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"

namespace dcfa::sim {
struct Platform;
}

namespace dcfa::mpi {

class Datatype;

/// Collective algorithm identifiers. Not every algorithm applies to every
/// collective; the per-collective selection functions below validate forced
/// choices. See docs/collectives.md for the full (size, comm size) table.
enum class CollAlgo {
  Auto,               ///< selection layer picks by message and comm size
  Binomial,           ///< binomial tree (bcast) / reduce+bcast (allreduce)
  RecursiveDoubling,  ///< log2(P) full-vector rounds (allreduce, allgather)
  Ring,               ///< pipelined ring (allreduce, allgather)
  Rabenseifner,       ///< reduce-scatter + recursive-doubling allgather
  ScatterAllgather,   ///< scatter + ring allgather (van de Geijn bcast)
};

/// Short stable name ("ring", "rab", ...) for stats, traces and errors.
const char* coll_algo_name(CollAlgo a);

// Selection. The crossovers and the segment size are sim::Platform fields
// (coll_allreduce_small_max, coll_allreduce_ring_min, coll_bcast_large_min,
// coll_segment_bytes); `forced` is the matching Engine::Options algorithm
// field (Auto = select by size).

/// Allreduce selection: recursive doubling below allreduce_small_max,
/// pipelined ring at and above allreduce_ring_min, Rabenseifner in between.
/// Forced Binomial/RecursiveDoubling/Ring/Rabenseifner are honoured for any
/// comm size (non-power-of-two sizes fold; short vectors leave ring blocks
/// empty); anything else throws MpiError.
CollAlgo select_allreduce(const sim::Platform& p, CollAlgo forced,
                          std::uint64_t bytes, int comm_size);

/// Bcast selection: binomial tree below bcast_large_min or for comms too
/// small to profit (< 4 ranks), scatter + ring allgather at and above it.
CollAlgo select_bcast(const sim::Platform& p, CollAlgo forced,
                      std::uint64_t bytes, int comm_size);

/// Allgather selection: recursive doubling for power-of-two comms with
/// small per-rank blocks (below allreduce_small_max), pipelined ring
/// otherwise. Forcing RecursiveDoubling on a non-power-of-two comm falls
/// back to ring (documented in docs/collectives.md).
CollAlgo select_allgather(const sim::Platform& p, CollAlgo forced,
                          std::uint64_t block_bytes, int comm_size);

// ---------------------------------------------------------------------------
// Collective schedules (nonblocking collectives engine; docs/collectives.md)
// ---------------------------------------------------------------------------
//
// Each collective compiles into a CollSchedule: an ordered list of stages,
// where a stage is either a set of point-to-point transfers plus local
// copy/combine steps that run once all transfers complete, or a pipelined
// segment exchange (CollPipe) whose send/receive/combine of consecutive
// segments overlap. The engine's progress loop advances every outstanding
// schedule as its transfers complete, so MPI_I*-style collectives make
// progress whenever any request is waited or tested. The blocking
// collectives post the same schedules and simply wait on the result.

/// Tag-space reservation for schedules. Each collective posted on a
/// communicator takes the next window slot (round-robin over
/// kCollSchedWindow slots of kCollSchedPhases tags each), so up to 128
/// collectives can be in flight per communicator before tags recycle —
/// concurrent schedules never match each other's packets. Collectives are
/// posted in the same order on every rank (an MPI requirement), which keeps
/// the slot assignment globally consistent without negotiation.
constexpr int kCollSchedTagBase = kInternalTagBase + 64;
constexpr int kCollSchedPhases = 8;
constexpr int kCollSchedWindow = 128;
/// Pairwise alltoall steps posted per schedule stage. On perfbench host_a2a
/// (48 ranks) 8 steps cut the traffic's virtual time by a third; 16 steps,
/// or one stage of all P-1, cut it a little more but raised the median
/// latency of the nonblocking allreduces that follow, which inherit the
/// rank skew a wide window leaves (docs/collectives.md).
constexpr int kAlltoallStepsPerStage = 8;

/// One point-to-point transfer inside a stage. Peers are world ranks and
/// tags are absolute (the emitter resolves both at build time).
struct CollXfer {
  bool is_send = false;
  mem::Buffer buf;
  std::size_t off = 0;    ///< byte offset into buf
  std::size_t count = 0;  ///< elements of *type
  const Datatype* type = nullptr;
  int peer = 0;
  int tag = 0;
};

/// A local step that runs after the stage's transfers complete.
struct CollLocal {
  enum class Kind { Copy, Combine };
  Kind kind = Kind::Copy;
  mem::Buffer dst;
  std::size_t dst_off = 0;
  mem::Buffer src;
  std::size_t src_off = 0;
  /// Bytes for Copy, elements of *type for Combine.
  std::size_t count = 0;
  const Datatype* type = nullptr;
  Op op = Op::Sum;
};

/// A pipelined segment-exchange stage (one ring / halving step): stream
/// out_len elements at buf[base + out_off*extent] to `to` while receiving
/// in_len elements at in_off from `from`, both split into seg_elems-element
/// segments. With has_op, incoming segments land in the double-buffered
/// scratch and are folded into the in-place block while the next segment is
/// in flight; without it they land directly. A schedule's folding pipes share
/// one scratch sized to the largest block they fold, capped at two segments
/// (Communicator::attach_fold_scratch).
struct CollPipe {
  mem::Buffer buf;
  std::size_t base = 0;
  std::size_t out_off = 0, out_len = 0;  ///< elements
  std::size_t in_off = 0, in_len = 0;
  const Datatype* type = nullptr;
  bool has_op = false;
  Op op = Op::Sum;
  std::size_t seg_elems = 0;
  int to = 0, from = 0;  ///< world ranks
  int tag = 0;
  mem::Buffer scratch;  ///< has_op: >= min(in_len, 2 segments); else unused

  // Runtime state (owned by the engine's executor).
  bool started = false;
  std::vector<Request> sends;
  std::vector<Request> recvs;
  std::size_t posted = 0;    ///< incoming segments posted so far
  std::size_t combined = 0;  ///< incoming segments folded / checked done
};

/// One schedule stage: either a pipe, or transfers + locals. Stages run
/// strictly in order; the transfers of one stage are all posted together
/// (receives listed before sends, mirroring sendrecv).
struct CollStage {
  std::vector<CollXfer> xfers;
  std::vector<CollLocal> locals;
  std::optional<CollPipe> pipe;
};

/// A compiled collective. Built by the Communicator emitters
/// (collectives.cpp), executed by Engine::progress.
struct CollSchedule {
  std::vector<CollStage> stages;
  /// Temporaries (scratch, accumulators) freed when the schedule completes.
  std::vector<mem::Buffer> owned;
  std::uint32_t comm_id = 0;
  /// Trace span name: a printf format over (label_algo, label_bytes), such
  /// as "allreduce.%s %zuB", formatted only if a tracer records it. Null =
  /// no span (barrier).
  const char* label = nullptr;
  const char* label_algo = nullptr;
  std::size_t label_bytes = 0;
  std::size_t bytes = 0;  ///< reported in the completion Status
  /// Per-algorithm Stats counter bumped once at completion (may be null).
  std::uint64_t* algo_counter = nullptr;
  /// Reserved rotating-window tag base (next_coll_tag_base); -1 when the
  /// schedule runs outside the window. DcfaCheck derives the window slot
  /// from it to catch alias bugs.
  int tag_base = -1;

  // Runtime state (owned by the engine's executor).
  /// DcfaCheck schedule id (0 = checker off); see sim/check.hpp.
  std::uint64_t check_id = 0;
  std::shared_ptr<RequestState> req;
  std::size_t stage = 0;
  bool stage_started = false;
  std::vector<Request> outstanding;
};

}  // namespace dcfa::mpi
