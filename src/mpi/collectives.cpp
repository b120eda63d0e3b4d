// The collectives algorithm engine (docs/collectives.md): each algorithm —
// recursive-doubling / pipelined-ring / Rabenseifner allreduce, binomial
// and scatter+ring-allgather bcast, ring and recursive-doubling allgather,
// reduce_scatter_block, dissemination barrier — is a schedule emitter that
// compiles this rank's part of the collective into a CollSchedule
// (mpi/coll.hpp) of send/recv/copy/combine stages. The engine's progress
// loop advances the schedule, so the nonblocking i* entry points return
// immediately; the blocking forms post the same schedule and wait.
// Large-message stages are pipelined (CollPipe) so send, receive and
// combine of consecutive segments overlap.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "mpi/communicator.hpp"

namespace dcfa::mpi {

namespace {

/// Fixed internal tags for the collectives that still run inline (rooted /
/// irregular ones outside the schedule engine), disjoint per collective.
/// Schedule-based collectives use rotating per-schedule tag windows instead
/// (kCollSchedTagBase; see next_coll_tag_base).
enum : int {
  kTagReduce = kInternalTagBase + 3,
  kTagGather = kInternalTagBase + 4,
  kTagScatter = kInternalTagBase + 5,
  kTagAlltoall = kInternalTagBase + 7,
  kTagScan = kInternalTagBase + 8,
  kTagGatherv = kInternalTagBase + 9,
  kTagScatterv = kInternalTagBase + 10,
};

/// Phase slots inside a schedule's kCollSchedPhases-tag window. Phases that
/// run in sequence on the same peer pair may share a slot (the channel's
/// sequence ids keep them ordered); phases whose traffic could interleave
/// get their own.
enum : int {
  kPhaseFold = 0,      ///< power-of-two fold / unfold
  kPhaseRsRing = 1,    ///< ring reduce-scatter segments
  kPhaseAgRing = 2,    ///< ring allgather segments
  kPhaseRdRound = 3,   ///< recursive doubling / halving rounds
  kPhaseScatter = 4,   ///< bcast's binomial scatter
  kPhaseBcastTree = 5, ///< binomial bcast tree
  kPhaseBarrier = 6,   ///< dissemination rounds
  kPhaseReduceTree = 7 ///< binomial reduce tree
};

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

CollStage& add_stage(CollSchedule& s) {
  s.stages.emplace_back();
  return s.stages.back();
}

CollXfer xfer(bool is_send, const mem::Buffer& buf, std::size_t off,
              std::size_t count, const Datatype& type, int world_peer,
              int tag) {
  CollXfer x;
  x.is_send = is_send;
  x.buf = buf;
  x.off = off;
  x.count = count;
  x.type = &type;
  x.peer = world_peer;
  x.tag = tag;
  return x;
}

}  // namespace

/// Balanced partition of a vector into consecutive per-block element
/// ranges; the remainder is spread over the leading blocks so lengths
/// differ by at most one (blocks may be empty when count < parts).
struct Communicator::BlockPart {
  std::vector<std::size_t> off;  ///< size parts+1; off[parts] == count

  BlockPart(std::size_t count, int parts) : off(parts + 1) {
    const std::size_t q = count / parts;
    const std::size_t r = count % parts;
    std::size_t at = 0;
    for (int b = 0; b < parts; ++b) {
      off[b] = at;
      at += q + (static_cast<std::size_t>(b) < r ? 1 : 0);
    }
    off[parts] = at;
  }
  std::size_t len(int b) const { return off[b + 1] - off[b]; }
  /// Elements in the contiguous block range [b0, b1).
  std::size_t range(int b0, int b1) const { return off[b1] - off[b0]; }
};

int Communicator::next_coll_tag_base() {
  const int slot = static_cast<int>(coll_seq_++ % kCollSchedWindow);
  return kCollSchedTagBase + slot * kCollSchedPhases;
}

// ---------------------------------------------------------------------------
// Ring phases (pipelined stages)
// ---------------------------------------------------------------------------

void Communicator::emit_rs_ring(CollSchedule& sched, const mem::Buffer& buf,
                                std::size_t base, const BlockPart& part,
                                const Datatype& type, Op op,
                                std::size_t seg_elems, int final_block,
                                int tag) {
  const int P = size();
  const int to = to_world((rank() + 1) % P);
  const int from = to_world((rank() - 1 + P) % P);
  // Step s forwards the partial of block (final_block - 1 - s) to the
  // successor while folding the predecessor's partial of the next block;
  // after P-1 steps only `final_block` is globally complete here.
  for (int s = 0; s < P - 1; ++s) {
    const int ob = (final_block - 1 - s + 2 * P) % P;
    const int ib = (final_block - 2 - s + 2 * P) % P;
    CollPipe p;
    p.buf = buf;
    p.base = base;
    p.out_off = part.off[ob];
    p.out_len = part.len(ob);
    p.in_off = part.off[ib];
    p.in_len = part.len(ib);
    p.type = &type;
    p.has_op = true;
    p.op = op;
    p.seg_elems = seg_elems;
    p.to = to;
    p.from = from;
    p.tag = tag;
    add_stage(sched).pipe = std::move(p);
  }
}

void Communicator::emit_ag_ring(CollSchedule& sched, const mem::Buffer& buf,
                                std::size_t base, const BlockPart& part,
                                const Datatype& type, std::size_t seg_elems,
                                int my_block, int to, int from, int tag) {
  const int P = size();
  const int wto = to_world(to);
  const int wfrom = to_world(from);
  for (int s = 0; s < P - 1; ++s) {
    const int ob = (my_block - s + 2 * P) % P;
    const int ib = (my_block - 1 - s + 2 * P) % P;
    CollPipe p;
    p.buf = buf;
    p.base = base;
    p.out_off = part.off[ob];
    p.out_len = part.len(ob);
    p.in_off = part.off[ib];
    p.in_len = part.len(ib);
    p.type = &type;
    p.has_op = false;
    p.seg_elems = seg_elems;
    p.to = wto;
    p.from = wfrom;
    p.tag = tag;
    add_stage(sched).pipe = std::move(p);
  }
}

void Communicator::attach_fold_scratch(CollSchedule& sched) {
  // pipe_advance lands incoming segment j at (j % 2) * seg_bytes, so a pipe
  // folding in_len elements touches the first min(in_len, 2 * seg_elems).
  std::size_t bytes = 0;
  for (const CollStage& st : sched.stages) {
    if (!st.pipe || !st.pipe->has_op) continue;
    const CollPipe& p = *st.pipe;
    bytes = std::max(bytes,
                     std::min(p.in_len, 2 * p.seg_elems) * p.type->size());
  }
  if (bytes == 0) return;
  mem::Buffer scratch = alloc(bytes);
  sched.owned.push_back(scratch);
  for (CollStage& st : sched.stages) {
    if (st.pipe && st.pipe->has_op) st.pipe->scratch = scratch;
  }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

Request Communicator::ibarrier() {
  if (size() == 1) return engine_.completed_request();
  auto sched = std::make_shared<CollSchedule>();
  sched->comm_id = id_;
  sched->tag_base = next_coll_tag_base();
  const int tag = sched->tag_base + kPhaseBarrier;
  // Dissemination barrier: works for any communicator size in ceil(log2 n)
  // rounds of 0-byte messages.
  mem::Buffer dummy = alloc(1);
  sched->owned.push_back(dummy);
  for (int k = 1; k < size(); k <<= 1) {
    const int to = (rank() + k) % size();
    const int from = (rank() - k + size()) % size();
    CollStage& st = add_stage(*sched);
    st.xfers.push_back(
        xfer(false, dummy, 0, 0, type_byte(), to_world(from), tag));
    st.xfers.push_back(
        xfer(true, dummy, 0, 0, type_byte(), to_world(to), tag));
  }
  return engine_.start_coll(std::move(sched));
}

void Communicator::barrier() {
  Request r = ibarrier();
  engine_.wait(r);
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void Communicator::emit_bcast_binomial(CollSchedule& sched, int tag_base,
                                       const mem::Buffer& buf,
                                       std::size_t offset, std::size_t count,
                                       const Datatype& type, int root) {
  const int tag = tag_base + kPhaseBcastTree;
  // Binomial tree rooted at `root`, computed in root-relative rank space.
  const int vrank = (rank() - root + size()) % size();
  int mask = 1;
  while (mask < size()) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % size();
      add_stage(sched).xfers.push_back(
          xfer(false, buf, offset, count, type, to_world(src), tag));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size()) {
      const int dst = ((vrank + mask) + root) % size();
      // One send per stage: children are fed sequentially, like the
      // blocking tree's send loop.
      add_stage(sched).xfers.push_back(
          xfer(true, buf, offset, count, type, to_world(dst), tag));
    }
    mask >>= 1;
  }
}

void Communicator::emit_bcast_scatter_ag(CollSchedule& sched, int tag_base,
                                         const mem::Buffer& buf,
                                         std::size_t offset,
                                         std::size_t count,
                                         const Datatype& type, int root) {
  // van de Geijn: binomial scatter of per-rank blocks, then a pipelined
  // ring allgather — the full message crosses each rank's links ~twice
  // instead of log2(P) times. Everything runs in root-relative vrank
  // space; block v belongs to vrank v.
  const int P = size();
  const int vrank = (rank() - root + P) % P;
  const auto real = [&](int v) { return ((v % P) + P + root) % P; };
  const BlockPart part(count, P);
  const std::size_t es = type.size();
  const int stag = tag_base + kPhaseScatter;

  // Scatter: the first set bit of vrank is the subtree this rank roots;
  // it receives blocks [vrank, vrank+mask) and forwards sub-halves.
  int mask = 1;
  while (mask < P) {
    if (vrank & mask) {
      const int hi = std::min(vrank + mask, P);
      add_stage(sched).xfers.push_back(
          xfer(false, buf, offset + part.off[vrank] * es,
               part.range(vrank, hi), type, to_world(real(vrank - mask)),
               stag));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < P) {
      const int lo = vrank + mask;
      const int hi = std::min(vrank + 2 * mask, P);
      add_stage(sched).xfers.push_back(
          xfer(true, buf, offset + part.off[lo] * es, part.range(lo, hi),
               type, to_world(real(lo)), stag));
    }
    mask >>= 1;
  }

  const std::size_t seg_elems =
      std::max<std::size_t>(1, engine_.platform().coll_segment_bytes / es);
  emit_ag_ring(sched, buf, offset, part, type, seg_elems, vrank,
               real(vrank + 1), real(vrank - 1), tag_base + kPhaseAgRing);
}

Request Communicator::ibcast(const mem::Buffer& buf, std::size_t offset,
                             std::size_t count, const Datatype& type,
                             int root) {
  if (size() == 1 || count == 0) return engine_.completed_request();
  const std::size_t bytes = count * type.size();
  const CollAlgo algo = select_bcast(
      engine_.platform(), engine_.options().bcast_algo, bytes, size());
  auto sched = std::make_shared<CollSchedule>();
  sched->comm_id = id_;
  sched->bytes = bytes;
  const int tag_base = next_coll_tag_base();
  sched->tag_base = tag_base;
  if (algo == CollAlgo::ScatterAllgather) {
    emit_bcast_scatter_ag(*sched, tag_base, buf, offset, count, type, root);
    sched->algo_counter = &engine_.coll_stats().coll_bcast_scatter_ag;
  } else {
    emit_bcast_binomial(*sched, tag_base, buf, offset, count, type, root);
    sched->algo_counter = &engine_.coll_stats().coll_bcast_binomial;
  }
  sched->label = "bcast.%s %zuB";
  sched->label_algo = coll_algo_name(algo);
  sched->label_bytes = bytes;
  return engine_.start_coll(std::move(sched));
}

void Communicator::bcast(const mem::Buffer& buf, std::size_t offset,
                         std::size_t count, const Datatype& type, int root) {
  Request r = ibcast(buf, offset, count, type, root);
  engine_.wait(r);
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

void Communicator::reduce(const mem::Buffer& sendbuf, std::size_t soff,
                          const mem::Buffer& recvbuf, std::size_t roff,
                          std::size_t count, const Datatype& type, Op op,
                          int root) {
  if (!type.is_contiguous()) {
    throw MpiError("reduce: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  // Accumulator starts as my contribution.
  mem::Buffer acc = alloc(std::max<std::size_t>(bytes, 1));
  std::memcpy(acc.data(), sendbuf.data() + soff, bytes);

  // Binomial reduction in root-relative space.
  const int vrank = (rank() - root + size()) % size();
  mem::Buffer tmp = alloc(std::max<std::size_t>(bytes, 1));
  for (int mask = 1; mask < size(); mask <<= 1) {
    if (vrank & mask) {
      const int dst = ((vrank - mask) + root) % size();
      send(acc, 0, count, type, dst, kTagReduce);
      break;
    }
    if (vrank + mask < size()) {
      const int src = ((vrank + mask) + root) % size();
      recv(tmp, 0, count, type, src, kTagReduce);
      engine_.combine(op, type, acc, 0, tmp, 0, count);
    }
  }
  if (rank() == root) {
    std::memcpy(recvbuf.data() + roff, acc.data(), bytes);
  }
  free(tmp);
  free(acc);
}

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

void Communicator::emit_allreduce_rd(CollSchedule& sched, int tag_base,
                                     const mem::Buffer& recvbuf,
                                     std::size_t roff, std::size_t count,
                                     const Datatype& type, Op op) {
  const int P = size();
  const std::size_t bytes = count * type.size();
  const int tag_fold = tag_base + kPhaseFold;
  const int tag_rd = tag_base + kPhaseRdRound;
  mem::Buffer tmp = alloc(std::max<std::size_t>(bytes, 1));
  sched.owned.push_back(tmp);

  // Fold to a power of two: the first 2*rem ranks pair up, evens ship
  // their vector to the odd partner and sit out the doubling rounds.
  const int pof2 = floor_pow2(P);
  const int rem = P - pof2;
  int newrank;
  if (rank() < 2 * rem) {
    if (rank() % 2 == 0) {
      add_stage(sched).xfers.push_back(xfer(
          true, recvbuf, roff, count, type, to_world(rank() + 1), tag_fold));
      newrank = -1;
    } else {
      CollStage& st = add_stage(sched);
      st.xfers.push_back(
          xfer(false, tmp, 0, count, type, to_world(rank() - 1), tag_fold));
      st.locals.push_back(
          {CollLocal::Kind::Combine, recvbuf, roff, tmp, 0, count, &type, op});
      newrank = rank() / 2;
    }
  } else {
    newrank = rank() - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int pn = newrank ^ mask;
      const int peer = pn < rem ? pn * 2 + 1 : pn + rem;
      CollStage& st = add_stage(sched);
      st.xfers.push_back(
          xfer(false, tmp, 0, count, type, to_world(peer), tag_rd));
      st.xfers.push_back(
          xfer(true, recvbuf, roff, count, type, to_world(peer), tag_rd));
      st.locals.push_back(
          {CollLocal::Kind::Combine, recvbuf, roff, tmp, 0, count, &type, op});
    }
  }

  // Unfold: odd partners return the finished vector to the evens.
  if (rank() < 2 * rem) {
    add_stage(sched).xfers.push_back(
        xfer(rank() % 2 != 0, recvbuf, roff, count, type,
             to_world(rank() % 2 == 0 ? rank() + 1 : rank() - 1), tag_fold));
  }
}

void Communicator::emit_allreduce_ring(CollSchedule& sched, int tag_base,
                                       const mem::Buffer& recvbuf,
                                       std::size_t roff, std::size_t count,
                                       const Datatype& type, Op op) {
  const int P = size();
  const std::size_t es = type.size();
  const BlockPart part(count, P);
  const std::size_t seg_elems =
      std::max<std::size_t>(1, engine_.platform().coll_segment_bytes / es);

  // Reduce-scatter leaves this rank with block (rank+1) complete — exactly
  // the block the allgather ring starts forwarding.
  const int my_block = (rank() + 1) % P;
  emit_rs_ring(sched, recvbuf, roff, part, type, op, seg_elems, my_block,
               tag_base + kPhaseRsRing);
  emit_ag_ring(sched, recvbuf, roff, part, type, seg_elems, my_block,
               (rank() + 1) % P, (rank() - 1 + P) % P,
               tag_base + kPhaseAgRing);
}

void Communicator::emit_allreduce_rab(CollSchedule& sched, int tag_base,
                                      const mem::Buffer& recvbuf,
                                      std::size_t roff, std::size_t count,
                                      const Datatype& type, Op op) {
  const int P = size();
  const std::size_t es = type.size();
  const std::size_t bytes = count * es;
  const int tag_fold = tag_base + kPhaseFold;
  const int tag_rd = tag_base + kPhaseRdRound;

  // Fold to a power of two (as in emit_allreduce_rd).
  const int pof2 = floor_pow2(P);
  const int rem = P - pof2;
  int newrank;
  if (rank() < 2 * rem) {
    if (rank() % 2 == 0) {
      add_stage(sched).xfers.push_back(xfer(
          true, recvbuf, roff, count, type, to_world(rank() + 1), tag_fold));
      newrank = -1;
    } else {
      mem::Buffer tmp = alloc(std::max<std::size_t>(bytes, 1));
      sched.owned.push_back(tmp);
      CollStage& st = add_stage(sched);
      st.xfers.push_back(
          xfer(false, tmp, 0, count, type, to_world(rank() - 1), tag_fold));
      st.locals.push_back(
          {CollLocal::Kind::Combine, recvbuf, roff, tmp, 0, count, &type, op});
      newrank = rank() / 2;
    }
  } else {
    newrank = rank() - rem;
  }

  if (newrank != -1) {
    const BlockPart part(count, pof2);
    const std::size_t seg_elems =
        std::max<std::size_t>(1, engine_.platform().coll_segment_bytes / es);
    const auto peer_of = [&](int pn) {
      return pn < rem ? pn * 2 + 1 : pn + rem;
    };

    // Recursive-halving reduce-scatter: each round trades half of the
    // still-owned block range with the partner and folds the kept half.
    int lo = 0, hi = pof2;
    for (int dist = pof2 / 2; dist >= 1; dist >>= 1) {
      const int peer = peer_of(newrank ^ dist);
      const int mid = lo + (hi - lo) / 2;
      int keep_lo, keep_hi, give_lo, give_hi;
      if ((newrank & dist) == 0) {
        keep_lo = lo, keep_hi = mid, give_lo = mid, give_hi = hi;
      } else {
        keep_lo = mid, keep_hi = hi, give_lo = lo, give_hi = mid;
      }
      CollPipe p;
      p.buf = recvbuf;
      p.base = roff;
      p.out_off = part.off[give_lo];
      p.out_len = part.range(give_lo, give_hi);
      p.in_off = part.off[keep_lo];
      p.in_len = part.range(keep_lo, keep_hi);
      p.type = &type;
      p.has_op = true;
      p.op = op;
      p.seg_elems = seg_elems;
      p.to = to_world(peer);
      p.from = to_world(peer);
      p.tag = tag_rd;
      add_stage(sched).pipe = std::move(p);
      lo = keep_lo;
      hi = keep_hi;
    }

    // Recursive-doubling allgather over the finished blocks: the owned
    // aligned range doubles every round.
    for (int dist = 1; dist < pof2; dist <<= 1) {
      const int peer = peer_of(newrank ^ dist);
      const int base_blk = newrank & ~(dist - 1);
      const int peer_blk = base_blk ^ dist;
      CollStage& st = add_stage(sched);
      st.xfers.push_back(xfer(false, recvbuf,
                              roff + part.off[peer_blk] * es,
                              part.range(peer_blk, peer_blk + dist), type,
                              to_world(peer), tag_rd));
      st.xfers.push_back(xfer(true, recvbuf, roff + part.off[base_blk] * es,
                              part.range(base_blk, base_blk + dist), type,
                              to_world(peer), tag_rd));
    }
  }

  // Unfold the full vector to the folded-out evens.
  if (rank() < 2 * rem) {
    add_stage(sched).xfers.push_back(
        xfer(rank() % 2 != 0, recvbuf, roff, count, type,
             to_world(rank() % 2 == 0 ? rank() + 1 : rank() - 1), tag_fold));
  }
}

void Communicator::emit_allreduce_binomial(CollSchedule& sched, int tag_base,
                                           const mem::Buffer& recvbuf,
                                           std::size_t roff,
                                           std::size_t count,
                                           const Datatype& type, Op op) {
  // The pre-engine path: binomial reduce to rank 0, binomial bcast back
  // out. Kept as the small-comm / forced fallback and as the baseline the
  // bench sweeps against.
  const std::size_t bytes = count * type.size();
  const int tag = tag_base + kPhaseReduceTree;
  // Accumulator starts as my contribution (recvbuf already holds it).
  mem::Buffer acc = alloc(std::max<std::size_t>(bytes, 1));
  std::memcpy(acc.data(), recvbuf.data() + roff, bytes);
  mem::Buffer tmp = alloc(std::max<std::size_t>(bytes, 1));
  sched.owned.push_back(acc);
  sched.owned.push_back(tmp);

  const int vrank = rank();  // root is 0
  for (int mask = 1; mask < size(); mask <<= 1) {
    if (vrank & mask) {
      add_stage(sched).xfers.push_back(
          xfer(true, acc, 0, count, type, to_world(vrank - mask), tag));
      break;
    }
    if (vrank + mask < size()) {
      CollStage& st = add_stage(sched);
      st.xfers.push_back(
          xfer(false, tmp, 0, count, type, to_world(vrank + mask), tag));
      st.locals.push_back(
          {CollLocal::Kind::Combine, acc, 0, tmp, 0, count, &type, op});
    }
  }
  if (rank() == 0) {
    add_stage(sched).locals.push_back(
        {CollLocal::Kind::Copy, recvbuf, roff, acc, 0, bytes, nullptr,
         Op::Sum});
  }
  emit_bcast_binomial(sched, tag_base, recvbuf, roff, count, type, 0);
}

Request Communicator::iallreduce(const mem::Buffer& sendbuf, std::size_t soff,
                                 const mem::Buffer& recvbuf, std::size_t roff,
                                 std::size_t count, const Datatype& type,
                                 Op op) {
  if (!type.is_contiguous()) {
    throw MpiError("allreduce: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  if (recvbuf.data() + roff != sendbuf.data() + soff) {
    std::memcpy(recvbuf.data() + roff, sendbuf.data() + soff, bytes);
  }
  if (size() == 1 || count == 0) return engine_.completed_request();
  if (type.kind() == Datatype::Kind::Opaque) {
    // Same failure the per-element combine would raise, but before any
    // rank communicates, so every rank throws in lockstep.
    throw MpiError("reduce: datatype has no arithmetic kind");
  }

  const CollAlgo algo = select_allreduce(
      engine_.platform(), engine_.options().allreduce_algo, bytes, size());
  auto sched = std::make_shared<CollSchedule>();
  sched->comm_id = id_;
  sched->bytes = bytes;
  const int tag_base = next_coll_tag_base();
  sched->tag_base = tag_base;
  Engine::Stats& st = engine_.coll_stats();
  switch (algo) {
    case CollAlgo::Ring:
      emit_allreduce_ring(*sched, tag_base, recvbuf, roff, count, type, op);
      sched->algo_counter = &st.coll_allreduce_ring;
      break;
    case CollAlgo::Rabenseifner:
      emit_allreduce_rab(*sched, tag_base, recvbuf, roff, count, type, op);
      sched->algo_counter = &st.coll_allreduce_rab;
      break;
    case CollAlgo::RecursiveDoubling:
      emit_allreduce_rd(*sched, tag_base, recvbuf, roff, count, type, op);
      sched->algo_counter = &st.coll_allreduce_rd;
      break;
    default:
      emit_allreduce_binomial(*sched, tag_base, recvbuf, roff, count, type,
                              op);
      sched->algo_counter = &st.coll_allreduce_binomial;
      break;
  }
  attach_fold_scratch(*sched);
  sched->label = "allreduce.%s %zuB";
  sched->label_algo = coll_algo_name(algo);
  sched->label_bytes = bytes;
  return engine_.start_coll(std::move(sched));
}

void Communicator::allreduce(const mem::Buffer& sendbuf, std::size_t soff,
                             const mem::Buffer& recvbuf, std::size_t roff,
                             std::size_t count, const Datatype& type, Op op) {
  Request r = iallreduce(sendbuf, soff, recvbuf, roff, count, type, op);
  engine_.wait(r);
}

// ---------------------------------------------------------------------------
// Reduce-scatter-block
// ---------------------------------------------------------------------------

Request Communicator::ireduce_scatter_block(const mem::Buffer& sendbuf,
                                            std::size_t soff,
                                            const mem::Buffer& recvbuf,
                                            std::size_t roff,
                                            std::size_t recvcount,
                                            const Datatype& type, Op op) {
  if (!type.is_contiguous()) {
    throw MpiError("reduce_scatter_block: derived datatypes not supported");
  }
  const int P = size();
  const std::size_t es = type.size();
  const std::size_t block_bytes = recvcount * es;
  if (P == 1) {
    std::memcpy(recvbuf.data() + roff, sendbuf.data() + soff, block_bytes);
    return engine_.completed_request();
  }
  if (recvcount == 0) return engine_.completed_request();
  if (type.kind() == Datatype::Kind::Opaque) {
    throw MpiError("reduce: datatype has no arithmetic kind");
  }

  // Ring reduce-scatter over a working copy of the full input, targeting
  // block `rank` (reduce_scatter_block semantics), then lift it out.
  const std::size_t count = recvcount * static_cast<std::size_t>(P);
  const BlockPart part(count, P);
  const std::size_t seg_elems =
      std::max<std::size_t>(1, engine_.platform().coll_segment_bytes / es);
  mem::Buffer work = alloc(count * es);
  std::memcpy(work.data(), sendbuf.data() + soff, count * es);

  auto sched = std::make_shared<CollSchedule>();
  sched->comm_id = id_;
  sched->bytes = block_bytes;
  sched->owned.push_back(work);
  const int tag_base = next_coll_tag_base();
  sched->tag_base = tag_base;
  emit_rs_ring(*sched, work, 0, part, type, op, seg_elems, rank(),
               tag_base + kPhaseRsRing);
  attach_fold_scratch(*sched);
  add_stage(*sched).locals.push_back(
      {CollLocal::Kind::Copy, recvbuf, roff, work, part.off[rank()] * es,
       block_bytes, nullptr, Op::Sum});
  sched->label = "reduce_scatter.%s %zuB";
  sched->label_algo = "ring";
  sched->label_bytes = count * es;
  return engine_.start_coll(std::move(sched));
}

void Communicator::reduce_scatter_block(const mem::Buffer& sendbuf,
                                        std::size_t soff,
                                        const mem::Buffer& recvbuf,
                                        std::size_t roff,
                                        std::size_t recvcount,
                                        const Datatype& type, Op op) {
  Request r =
      ireduce_scatter_block(sendbuf, soff, recvbuf, roff, recvcount, type, op);
  engine_.wait(r);
}

// ---------------------------------------------------------------------------
// Gather / scatter
// ---------------------------------------------------------------------------

void Communicator::gather(const mem::Buffer& sendbuf, std::size_t soff,
                          std::size_t count, const Datatype& type,
                          const mem::Buffer& recvbuf, std::size_t roff,
                          int root) {
  if (!type.is_contiguous()) {
    throw MpiError("gather: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  if (rank() == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == rank()) {
        std::memcpy(recvbuf.data() + roff + r * bytes, sendbuf.data() + soff,
                    bytes);
        continue;
      }
      reqs.push_back(irecv(recvbuf, roff + r * bytes, bytes, type_byte(), r,
                           kTagGather));
    }
    waitall(reqs);
  } else {
    send(sendbuf, soff, count, type, root, kTagGather);
  }
}

void Communicator::scatter(const mem::Buffer& sendbuf, std::size_t soff,
                           std::size_t count, const Datatype& type,
                           const mem::Buffer& recvbuf, std::size_t roff,
                           int root) {
  if (!type.is_contiguous()) {
    throw MpiError("scatter: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  if (rank() == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == rank()) {
        std::memcpy(recvbuf.data() + roff,
                    sendbuf.data() + soff + r * bytes, bytes);
        continue;
      }
      reqs.push_back(isend(sendbuf, soff + r * bytes, bytes, type_byte(), r,
                           kTagScatter));
    }
    waitall(reqs);
  } else {
    recv(recvbuf, roff, count, type, root, kTagScatter);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void Communicator::emit_allgather_rd(CollSchedule& sched, int tag_base,
                                     const mem::Buffer& recvbuf,
                                     std::size_t roff, std::size_t count,
                                     const Datatype& type) {
  // Power-of-two comms only (the selection layer guarantees it): the owned
  // aligned run of blocks doubles every round.
  const int P = size();
  const std::size_t es = type.size();
  const int tag = tag_base + kPhaseRdRound;
  for (int dist = 1; dist < P; dist <<= 1) {
    const int peer = rank() ^ dist;
    const int base_blk = rank() & ~(dist - 1);
    const int peer_blk = base_blk ^ dist;
    CollStage& st = add_stage(sched);
    st.xfers.push_back(xfer(false, recvbuf, roff + peer_blk * count * es,
                            dist * count, type, to_world(peer), tag));
    st.xfers.push_back(xfer(true, recvbuf, roff + base_blk * count * es,
                            dist * count, type, to_world(peer), tag));
  }
}

Request Communicator::iallgather(const mem::Buffer& sendbuf, std::size_t soff,
                                 std::size_t count, const Datatype& type,
                                 const mem::Buffer& recvbuf,
                                 std::size_t roff) {
  if (!type.is_contiguous()) {
    throw MpiError("allgather: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  std::memcpy(recvbuf.data() + roff + rank() * bytes, sendbuf.data() + soff,
              bytes);
  if (size() == 1 || count == 0) return engine_.completed_request();

  const CollAlgo algo = select_allgather(
      engine_.platform(), engine_.options().allgather_algo, bytes, size());
  auto sched = std::make_shared<CollSchedule>();
  sched->comm_id = id_;
  sched->bytes = bytes;
  const int tag_base = next_coll_tag_base();
  sched->tag_base = tag_base;
  if (algo == CollAlgo::RecursiveDoubling) {
    emit_allgather_rd(*sched, tag_base, recvbuf, roff, count, type);
    sched->algo_counter = &engine_.coll_stats().coll_allgather_rd;
  } else {
    // Pipelined ring over uniform per-rank blocks.
    const std::size_t seg_elems =
        std::max<std::size_t>(1, engine_.platform().coll_segment_bytes /
                                     type.size());
    // Uniform partition: count*P splits evenly, so off[b] == b*count.
    const BlockPart part(count * static_cast<std::size_t>(size()), size());
    emit_ag_ring(*sched, recvbuf, roff, part, type, seg_elems, rank(),
                 (rank() + 1) % size(), (rank() - 1 + size()) % size(),
                 tag_base + kPhaseAgRing);
    sched->algo_counter = &engine_.coll_stats().coll_allgather_ring;
  }
  sched->label = "allgather.%s %zuB/rank";
  sched->label_algo = coll_algo_name(algo);
  sched->label_bytes = bytes;
  return engine_.start_coll(std::move(sched));
}

void Communicator::allgather(const mem::Buffer& sendbuf, std::size_t soff,
                             std::size_t count, const Datatype& type,
                             const mem::Buffer& recvbuf, std::size_t roff) {
  Request r = iallgather(sendbuf, soff, count, type, recvbuf, roff);
  engine_.wait(r);
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

void Communicator::scan(const mem::Buffer& sendbuf, std::size_t soff,
                        const mem::Buffer& recvbuf, std::size_t roff,
                        std::size_t count, const Datatype& type, Op op) {
  if (!type.is_contiguous()) {
    throw MpiError("scan: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  // Linear pipeline: receive the prefix from rank-1, fold my contribution,
  // pass it on. O(P) latency but exact left-to-right operator order.
  std::memcpy(recvbuf.data() + roff, sendbuf.data() + soff, bytes);
  if (rank() > 0) {
    mem::Buffer prefix = alloc(std::max<std::size_t>(bytes, 1));
    recv(prefix, 0, count, type, rank() - 1, kTagScan);
    // recv = prefix OP mine, keeping operand order (prefix first).
    engine_.combine(op, type, prefix, 0, recvbuf, roff, count);
    std::memcpy(recvbuf.data() + roff, prefix.data(), bytes);
    free(prefix);
  }
  if (rank() + 1 < size()) {
    send(recvbuf, roff, count, type, rank() + 1, kTagScan);
  }
}

// ---------------------------------------------------------------------------
// Gatherv / scatterv / alltoall
// ---------------------------------------------------------------------------

void Communicator::gatherv(const mem::Buffer& sendbuf, std::size_t soff,
                           std::size_t count, const Datatype& type,
                           const mem::Buffer& recvbuf, std::size_t roff,
                           std::span<const std::size_t> counts,
                           std::span<const std::size_t> displs, int root) {
  if (!type.is_contiguous()) {
    throw MpiError("gatherv: derived datatypes not supported");
  }
  if (rank() == root) {
    if (static_cast<int>(counts.size()) != size() ||
        static_cast<int>(displs.size()) != size()) {
      throw MpiError("gatherv: counts/displs must have one entry per rank");
    }
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      const std::size_t off = roff + displs[r] * type.size();
      if (r == rank()) {
        std::memcpy(recvbuf.data() + off, sendbuf.data() + soff,
                    counts[r] * type.size());
        continue;
      }
      reqs.push_back(irecv(recvbuf, off, counts[r] * type.size(),
                           type_byte(), r, kTagGatherv));
    }
    waitall(reqs);
  } else {
    send(sendbuf, soff, count, type, root, kTagGatherv);
  }
}

void Communicator::scatterv(const mem::Buffer& sendbuf, std::size_t soff,
                            std::span<const std::size_t> counts,
                            std::span<const std::size_t> displs,
                            const Datatype& type, const mem::Buffer& recvbuf,
                            std::size_t roff, std::size_t count, int root) {
  if (!type.is_contiguous()) {
    throw MpiError("scatterv: derived datatypes not supported");
  }
  if (rank() == root) {
    if (static_cast<int>(counts.size()) != size() ||
        static_cast<int>(displs.size()) != size()) {
      throw MpiError("scatterv: counts/displs must have one entry per rank");
    }
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      const std::size_t off = soff + displs[r] * type.size();
      if (r == rank()) {
        std::memcpy(recvbuf.data() + roff, sendbuf.data() + off,
                    counts[r] * type.size());
        continue;
      }
      reqs.push_back(isend(sendbuf, off, counts[r] * type.size(),
                           type_byte(), r, kTagScatterv));
    }
    waitall(reqs);
  } else {
    recv(recvbuf, roff, count, type, root, kTagScatterv);
  }
}

void Communicator::alltoall(const mem::Buffer& sendbuf, std::size_t soff,
                            std::size_t count, const Datatype& type,
                            const mem::Buffer& recvbuf, std::size_t roff) {
  if (!type.is_contiguous()) {
    throw MpiError("alltoall: derived datatypes not supported");
  }
  const std::size_t bytes = count * type.size();
  // Pairwise exchange with rotating partners; self block is a local copy.
  std::memcpy(recvbuf.data() + roff + rank() * bytes,
              sendbuf.data() + soff + rank() * bytes, bytes);
  for (int step = 1; step < size(); ++step) {
    const int to = (rank() + step) % size();
    const int from = (rank() - step + size()) % size();
    sendrecv(sendbuf, soff + to * bytes, bytes, type_byte(), to, kTagAlltoall,
             recvbuf, roff + from * bytes, bytes, type_byte(), from,
             kTagAlltoall);
  }
}

}  // namespace dcfa::mpi
