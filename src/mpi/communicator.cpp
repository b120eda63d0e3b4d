#include "mpi/communicator.hpp"

#include <algorithm>

namespace dcfa::mpi {

Communicator::Communicator(Engine& engine, std::uint32_t id,
                           std::vector<int> group, int my_index)
    : engine_(engine), id_(id), group_(std::move(group)), my_index_(my_index) {
  if (my_index_ < 0 || my_index_ >= static_cast<int>(group_.size())) {
    throw MpiError("Communicator: rank outside group");
  }
  if (group_[my_index_] != engine_.rank()) {
    throw MpiError("Communicator: group entry does not name this rank");
  }
  // The engine needs the membership to scope failure semantics: which
  // collectives a dead rank poisons, which wildcards it can wake, who a
  // revocation notice floods to.
  engine_.register_comm(id_, group_);
}

int Communicator::to_world(int comm_rank) const {
  if (comm_rank == kAnySource) return kAnySource;
  if (comm_rank < 0 || comm_rank >= size()) {
    throw MpiError("rank " + std::to_string(comm_rank) +
                   " outside communicator of size " + std::to_string(size()));
  }
  return group_[comm_rank];
}

int Communicator::from_world(int world_rank) const {
  for (int i = 0; i < size(); ++i) {
    if (group_[i] == world_rank) return i;
  }
  return kAnySource;
}

Status Communicator::translate(Status s) const {
  s.source = from_world(s.source);
  return s;
}

Request Communicator::isend(const mem::Buffer& buf, std::size_t offset,
                            std::size_t count, const Datatype& type, int dst,
                            int tag) {
  return engine_.isend(buf, offset, count, type, to_world(dst), tag, id_);
}

Request Communicator::irecv(const mem::Buffer& buf, std::size_t offset,
                            std::size_t count, const Datatype& type, int src,
                            int tag) {
  return engine_.irecv(buf, offset, count, type, to_world(src), tag, id_);
}

void Communicator::send(const mem::Buffer& buf, std::size_t offset,
                        std::size_t count, const Datatype& type, int dst,
                        int tag) {
  Request r = isend(buf, offset, count, type, dst, tag);
  engine_.wait(r);
}

Request Communicator::issend(const mem::Buffer& buf, std::size_t offset,
                             std::size_t count, const Datatype& type, int dst,
                             int tag) {
  return engine_.isend(buf, offset, count, type, to_world(dst), tag, id_,
                       /*sync=*/true);
}

void Communicator::ssend(const mem::Buffer& buf, std::size_t offset,
                         std::size_t count, const Datatype& type, int dst,
                         int tag) {
  Request r = issend(buf, offset, count, type, dst, tag);
  engine_.wait(r);
}

std::optional<Status> Communicator::iprobe(int src, int tag) {
  auto st = engine_.iprobe(to_world(src), tag, id_);
  if (st) *st = translate(*st);
  return st;
}

Status Communicator::probe(int src, int tag) {
  return translate(engine_.probe(to_world(src), tag, id_));
}

Status Communicator::recv(const mem::Buffer& buf, std::size_t offset,
                          std::size_t count, const Datatype& type, int src,
                          int tag) {
  Request r = irecv(buf, offset, count, type, src, tag);
  return translate(engine_.wait(r));
}

Status Communicator::wait(Request& req) { return translate(engine_.wait(req)); }

bool Communicator::test(Request& req) { return engine_.test(req); }

void Communicator::waitall(std::span<Request> reqs) {
  // Delegated (not a per-request wait loop) so one failed request cannot
  // block the set: the engine drives every request to a terminal phase
  // first, then reports the first casualty — the rest have completed and
  // remain inspectable through Request::failed()/errc().
  engine_.waitall(reqs);
}

std::size_t Communicator::waitany(std::span<Request> reqs) {
  return engine_.waitany(reqs);
}

bool Communicator::testall(std::span<Request> reqs) {
  return engine_.testall(reqs);
}

std::optional<std::size_t> Communicator::testany(std::span<Request> reqs) {
  return engine_.testany(reqs);
}

Status Communicator::sendrecv(const mem::Buffer& sbuf, std::size_t soff,
                              std::size_t scount, const Datatype& stype,
                              int dst, int stag, const mem::Buffer& rbuf,
                              std::size_t roff, std::size_t rcount,
                              const Datatype& rtype, int src, int rtag) {
  Request rr = irecv(rbuf, roff, rcount, rtype, src, rtag);
  Request sr = isend(sbuf, soff, scount, stype, dst, stag);
  engine_.wait(sr);
  return translate(engine_.wait(rr));
}

Request& Communicator::Persistent::start() {
  if (!comm_) throw MpiError("Persistent::start: uninitialised request");
  if (active_.valid() && !active_.done()) {
    throw MpiError("Persistent::start: previous operation still active");
  }
  if (is_send_) {
    active_ = comm_->engine_.isend(buf_, offset_, count_, *type_,
                                   comm_->to_world(peer_), tag_, comm_->id_,
                                   sync_);
  } else {
    active_ = comm_->engine_.irecv(buf_, offset_, count_, *type_,
                                   comm_->to_world(peer_), tag_, comm_->id_);
  }
  return active_;
}

Communicator::Persistent Communicator::send_init(const mem::Buffer& buf,
                                                 std::size_t offset,
                                                 std::size_t count,
                                                 const Datatype& type,
                                                 int dst, int tag) {
  Persistent p;
  p.comm_ = this;
  p.is_send_ = true;
  p.buf_ = buf;
  p.offset_ = offset;
  p.count_ = count;
  p.type_ = &type;
  p.peer_ = dst;
  p.tag_ = tag;
  return p;
}

Communicator::Persistent Communicator::ssend_init(const mem::Buffer& buf,
                                                  std::size_t offset,
                                                  std::size_t count,
                                                  const Datatype& type,
                                                  int dst, int tag) {
  Persistent p = send_init(buf, offset, count, type, dst, tag);
  p.sync_ = true;
  return p;
}

Communicator::Persistent Communicator::recv_init(const mem::Buffer& buf,
                                                 std::size_t offset,
                                                 std::size_t count,
                                                 const Datatype& type,
                                                 int src, int tag) {
  Persistent p;
  p.comm_ = this;
  p.is_send_ = false;
  p.buf_ = buf;
  p.offset_ = offset;
  p.count_ = count;
  p.type_ = &type;
  p.peer_ = src;
  p.tag_ = tag;
  return p;
}

double Communicator::wtime() const {
  return sim::to_s(engine_.ib().process().now());
}

void Communicator::revoke() { engine_.revoke_comm(id_); }

std::uint64_t Communicator::agree(std::uint64_t value) {
  const std::uint64_t seq = ++agree_seq_;
  Bootstrap& bs = engine_.bootstrap();
  // Coordinator duty falls on the lowest member this rank believes alive.
  // Beliefs may lag (two ranks can act as coordinator simultaneously
  // during a succession) — harmless, because decisions are first-wins.
  const auto coordinator = [&] {
    for (int w : group_) {
      if (!engine_.rank_failed(w) && !bs.is_dead(w)) return w;
    }
    return -1;
  };
  bs.post_vote(id_, seq, engine_.rank(), value, coordinator());
  // DcfaRace HB edge source: the vote publishes this rank's history to
  // every rank that observes the round's decision.
  engine_.checker().agree_voted(engine_.rank(), id_, seq);
  const std::uint64_t* dec = nullptr;
  engine_.wait_until([&]() -> bool {
    dec = bs.get_decision(id_, seq);
    if (dec) return true;
    if (coordinator() != engine_.rank()) return false;
    std::uint64_t acc = 0;
    for (int w : group_) {
      if (const std::uint64_t* v = bs.get_vote(id_, seq, w)) {
        acc |= *v;  // counted even if the voter died after voting
        continue;
      }
      if (engine_.rank_failed(w) || bs.is_dead(w)) continue;  // died unvoted
      return false;  // a live member has not voted yet
    }
    bs.post_decision(id_, seq, acc);
    dec = bs.get_decision(id_, seq);
    return dec != nullptr;
  });
  // DcfaRace HB edge sink: observing the decision orders this rank after
  // every vote of the round (agreement acts as a barrier among voters).
  engine_.checker().agree_decided(engine_.rank(), id_, seq);
  return *dec;
}

Communicator Communicator::shrink() {
  // Agree on who is gone: each survivor contributes the members it knows
  // dead as a bit mask (indexed by communicator rank), and the OR makes the
  // view consistent — a failure only one rank had detected still excludes
  // that member everywhere. The agreement value is 64 bits, so groups
  // beyond 64 members vote one 64-rank chunk per round; every survivor
  // makes the same sequence of agree() calls (it is collective), so the
  // merged mask is identical everywhere even if further members die
  // between chunk rounds (a late death just surfaces in a later shrink).
  Bootstrap& bs = engine_.bootstrap();
  const int words = (size() + 63) / 64;
  std::vector<std::uint64_t> mask(static_cast<std::size_t>(words), 0);
  for (int i = 0; i < size(); ++i) {
    const int w = group_[i];
    if (w == engine_.rank()) continue;
    if (engine_.rank_failed(w) || bs.is_dead(w)) {
      mask[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1} << (i % 64);
    }
  }
  for (std::uint64_t& word : mask) word = agree(word);
  std::vector<int> group;
  int my_index = -1;
  for (int i = 0; i < size(); ++i) {
    if ((mask[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1) continue;
    if (group_[i] == engine_.rank()) my_index = static_cast<int>(group.size());
    group.push_back(group_[i]);
  }
  if (my_index < 0) {
    throw MpiError("shrink: calling rank agreed to be failed",
                   MpiErrc::ProcFailed, engine_.rank(), id_);
  }
  // All survivors made the same derive_id calls (agree is collective), so
  // the child id matches without further communication.
  const std::uint32_t child = derive_id(/*color=*/0);
  return Communicator(engine_, child, std::move(group), my_index);
}

Communicator Communicator::dup() {
  // Collective; every member derives the same id with the same counter.
  const std::uint32_t child = derive_id(/*color=*/0);
  barrier();
  return Communicator(engine_, child, group_, my_index_);
}

std::uint32_t Communicator::derive_id(int color) {
  ++derive_counter_;
  std::uint64_t h = id_;
  h = h * 1000003ull + derive_counter_;
  h = h * 1000003ull + static_cast<std::uint32_t>(color + 1);
  h ^= h >> 31;
  std::uint32_t out = static_cast<std::uint32_t>(h * 0x9e3779b97f4a7c15ull >> 32);
  return out == 0 ? 1 : out;  // 0 is reserved for the world communicator
}

Communicator Communicator::split(int color, int key) {
  // Allgather (color, key) over the parent, then carve out my group.
  struct Entry {
    int color;
    int key;
    int world;
  };
  mem::Buffer mine = alloc(sizeof(Entry));
  mem::Buffer all = alloc(sizeof(Entry) * size());
  Entry e{color, key, engine_.rank()};
  std::memcpy(mine.data(), &e, sizeof e);
  allgather(mine, 0, sizeof(Entry), type_byte(), all, 0);

  std::vector<Entry> entries(size());
  std::memcpy(entries.data(), all.data(), sizeof(Entry) * size());
  free(mine);
  free(all);

  std::vector<Entry> members;
  for (const Entry& en : entries) {
    if (en.color == color) members.push_back(en);
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.world < b.world;
                   });
  std::vector<int> group;
  int my_index = -1;
  for (const Entry& en : members) {
    if (en.world == engine_.rank()) my_index = static_cast<int>(group.size());
    group.push_back(en.world);
  }
  const std::uint32_t child = derive_id(color);
  return Communicator(engine_, child, std::move(group), my_index);
}

}  // namespace dcfa::mpi
