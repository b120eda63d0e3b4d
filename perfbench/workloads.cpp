// Workload catalogue and the per-rank traffic executor (README.md).
//
// Every workload is closed-loop SPMD: a rank finishes all operations of one
// step before it starts the next, then idles for the phase's gap. Inputs are
// a pure function of the seed — the traffic through traffic::build_schedule,
// the ping-pong pairing and buffer choices through seeded sim::Rng streams —
// so every rank derives the same plan and receivers know what to post.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "perfbench.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace mpi = dcfa::mpi;
namespace mem = dcfa::mem;
namespace sim = dcfa::sim;
namespace traffic = dcfa::mpi::traffic;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPingTag = 90;
constexpr int kPongTag = 91;
constexpr int kP2PTagBase = 100;  ///< + phase index
/// Flow-id namespace of ping-pong messages (P2P flows use phase + 1 there).
constexpr std::uint64_t kPingPongFlow = 0xffull << 48;

/// Payload pattern: word i of a message is splitmix(key + i), so a misplaced,
/// truncated or stale byte anywhere in the window fails check().
void fill(std::byte* p, std::size_t n, std::uint64_t key) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = splitmix(key + i);
    std::memcpy(p + i, &v, std::min<std::size_t>(8, n - i));
  }
}

bool check(const std::byte* p, std::size_t n, std::uint64_t key) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = splitmix(key + i);
    if (std::memcmp(p + i, &v, std::min<std::size_t>(8, n - i)) != 0) {
      return false;
    }
  }
  return true;
}

std::size_t align64(std::size_t n) { return (n + 63) & ~std::size_t{63}; }

std::uint64_t p2p_flow(std::size_t phase, std::size_t round, std::size_t i) {
  return ((phase + 1) << 48) | (round << 20) | i;
}

/// Allreduce input element: exact in double, so the sum is exact too.
double reduce_input(int rank, int burst, std::size_t i) {
  return static_cast<double>(rank + burst + static_cast<int>(i & 7));
}

struct PhaseRound {
  std::size_t phase;
  std::size_t round;
};

std::vector<std::vector<PhaseRound>> make_steps(const Workload& w,
                                                const traffic::Schedule& s) {
  std::vector<std::vector<PhaseRound>> steps;
  if (w.interleave) {
    const std::size_t rounds = s.phases.front().rounds.size();
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<PhaseRound> step;
      for (std::size_t p = 0; p < s.phases.size(); ++p) {
        if (s.phases[p].rounds.size() != rounds) {
          throw std::logic_error("interleaved phases need equal rounds");
        }
        step.push_back({p, r});
      }
      steps.push_back(std::move(step));
    }
  } else {
    for (std::size_t p = 0; p < s.phases.size(); ++p) {
      for (std::size_t r = 0; r < s.phases[p].rounds.size(); ++r) {
        steps.push_back({{p, r}});
      }
    }
  }
  return steps;
}

struct SendInfo {
  Time post = -1;
  std::uint64_t span = 0;
};

/// An operation posted in the current step, awaiting completion.
struct Pending {
  Kind kind = Kind::Send;
  std::uint64_t flow = 0;
  std::uint64_t span = 0;
  Time v0 = 0;
  std::int64_t h0 = 0;
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
  std::uint64_t key = 0;
  const SendInfo* send = nullptr;  ///< Recv: the matching send
  int burst = 0;                   ///< Iallreduce: burst index
  int churn = -1;                  ///< churn buffer held until completion
};

struct RankOut {
  std::vector<Span> spans;
  std::uint64_t next_span = 0;
  std::uint64_t attempted = 0, failed = 0, sent = 0, received = 0;
  std::uint64_t payload = 0;
  std::uint64_t digest = kFnvBasis;
  Time barrier_exit = 0, traffic_end = 0;
  std::int64_t h_barrier_exit = 0, h_body_end = 0;
  NodeSample node;
  std::uint64_t mr_hits = 0, mr_misses = 0, mr_evictions = 0;
  std::uint64_t shadow_misses = 0;
  Time reg_mr_ns = 0;
};

/// Cross-rank state of one iteration. Only one simulated rank runs at a time
/// (the scheduler hands control between fibers), so plain containers do.
struct Shared {
  Shared(const Workload& wl, const traffic::Schedule& sc, bool tr, bool so)
      : w(wl), sched(sc), traced(tr), setup_only(so), h_start(Clock::now()) {}

  const Workload& w;
  const traffic::Schedule& sched;
  bool traced;
  bool setup_only;
  Clock::time_point h_start;
  mpi::Runtime* rt = nullptr;
  std::vector<std::vector<PhaseRound>> steps;
  /// [phase][round][op] post time and span of every P2P send.
  std::vector<std::vector<std::vector<SendInfo>>> sends;
  /// [step][rank][exchange] post time and span of each ping-pong message.
  std::vector<SendInfo> pp_sends;
  std::vector<int> partner;  ///< ping-pong partner, -1 when unpaired
  std::vector<RankOut> out;

  std::int64_t hnow() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                h_start)
        .count();
  }
  SendInfo& pp(std::size_t step, int rank, int k) {
    return pp_sends[(step * w.cfg.nprocs + rank) * w.pingpong + k];
  }
};

/// Per-rank executor: runs every step of the schedule on `world`.
class Rank {
 public:
  Rank(Shared& sh, mpi::RankCtx& ctx)
      : sh_(sh),
        ctx_(ctx),
        comm_(ctx.world),
        me_(ctx.rank),
        nprocs_(ctx.nprocs),
        out_(sh.out[me_]),
        rng_(sh.w.sc.seed ^ splitmix(0x636875726e00ull + me_)),
        compute_(sh.w.sc.seed ^ splitmix(0x636f6d7075746500ull + me_)) {}

  void run() {
    init();
    if (sh_.setup_only) {
      // Stay live until every rank is out: a late rank may still need this
      // one to retransmit or to answer its recovery.
      comm_.barrier();
      return;
    }
    for (std::size_t s = 0; s < sh_.steps.size(); ++s) step(s);
    out_.traffic_end = vnow();
    if (sh_.traced) {
      record(Kind::Traffic, out_.barrier_exit, out_.traffic_end,
             out_.h_barrier_exit, sh_.hnow());
    }
    finish();
  }

 private:
  Time vnow() const { return ctx_.proc.now(); }

  std::uint64_t new_span() {
    return (static_cast<std::uint64_t>(me_ + 1) << 40) | ++out_.next_span;
  }

  Span& record(Kind kind, Time v0, Time v1, std::int64_t h0, std::int64_t h1,
               std::uint64_t id = 0) {
    Span sp;
    sp.kind = kind;
    sp.rank = me_;
    sp.v0 = v0;
    sp.v1 = v1;
    sp.h0 = h0;
    sp.h1 = h1;
    sp.id = id != 0 ? id : new_span();
    out_.spans.push_back(sp);
    return out_.spans.back();
  }

  std::int64_t h() const { return sh_.traced ? sh_.hnow() : 0; }

  /// Bytes of the pool one step needs on this rank (every window rounded up
  /// to 64 bytes): non-churn P2P payloads, allreduce in/out pairs and
  /// alltoall send/receive blocks.
  std::size_t step_pool_bytes(const std::vector<PhaseRound>& step) const {
    std::size_t bytes = 0;
    for (const PhaseRound& pr : step) {
      const traffic::PhaseSpec& ps = sh_.w.sc.phases[pr.phase];
      const traffic::Round& rd = sh_.sched.phases[pr.phase].rounds[pr.round];
      switch (ps.kind) {
        case traffic::PhaseKind::P2P:
          if (is_churn(pr.phase)) break;
          for (const traffic::P2POp& op : rd.p2p) {
            if (op.src == me_ || op.dst == me_) bytes += align64(op.bytes);
          }
          break;
        case traffic::PhaseKind::Allreduce:
          bytes += 2 * ps.burst * align64(elems(rd) * sizeof(double));
          break;
        case traffic::PhaseKind::AllToAll:
          bytes += 2 * align64(nprocs_ * a2a_count(rd));
          break;
        case traffic::PhaseKind::Barrier:
          break;
      }
    }
    return bytes;
  }

  bool is_churn(std::size_t phase) const {
    return sh_.w.churn_buffers > 0 && sh_.w.sc.phases[phase].name == "mr_churn";
  }
  static std::size_t elems(const traffic::Round& rd) {
    return std::max<std::size_t>(rd.coll_bytes / sizeof(double), 1);
  }
  static std::size_t a2a_count(const traffic::Round& rd) {
    return std::max<std::uint32_t>(rd.coll_bytes, 1);
  }

  /// MPI init as the application sees it: the Runtime has wired endpoints;
  /// the rank then allocates and registers its persistent buffer pool and
  /// enters the opening barrier.
  void init() {
    std::size_t need = 64 * 2;  // ping-pong send/receive slots
    for (const auto& step : sh_.steps) {
      need = std::max(need, 128 + step_pool_bytes(step));
    }
    pool_ = comm_.alloc(need);
    comm_.engine().mr_cache()->get(pool_);
    for (int i = 0; i < sh_.w.churn_buffers; ++i) {
      churn_.push_back(comm_.alloc(sh_.w.churn_buffer_bytes));
    }
    churn_busy_.assign(churn_.size(), false);
    sim::FaultInjector* faults = sh_.rt->faults_mut();
    if (faults != nullptr && faults->spec().compute_delay > 0.0) {
      // Compute jitter holds a rank away from progress; widen the liveness
      // deadline so a slow-but-live rank is not declared dead (the same
      // grace traffic::run_scenario grants).
      comm_.engine().set_liveness_grace(2 * faults->spec().compute_delay_ns);
    }
    compute();
    comm_.barrier();
    out_.barrier_exit = vnow();
    out_.h_barrier_exit = sh_.hnow();
    start_ = sample_node();
    if (sh_.traced) {
      record(Kind::Init, 0, out_.barrier_exit, 0, out_.h_barrier_exit);
    }
  }

  NodeSample sample_node() {
    dcfa::ib::Hca& hca = comm_.engine().ib().hca_ref();
    NodeSample n;
    n.window = vnow();
    n.dma_read = hca.dma_read().busy_total();
    n.dma_write = hca.dma_write().busy_total();
    n.egress = hca.egress().busy_total();
    n.ingress = hca.ingress().busy_total();
    n.phi_dma = ctx_.pcie.phi_dma().busy_total();
    n.egress_bytes = hca.egress_bytes();
    n.mrs_total = hca.mrs_registered_total();
    return n;
  }

  void finish() {
    const mpi::MrCache* mc = comm_.engine().mr_cache();
    out_.mr_hits = mc->hits();
    out_.mr_misses = mc->misses();
    out_.mr_evictions = mc->evictions();
    if (const mpi::OffloadShadowCache* sc = comm_.engine().shadow_cache()) {
      out_.shadow_misses = sc->misses();
    }
    comm_.barrier();
    const NodeSample end = sample_node();
    NodeSample& d = out_.node;
    d.window = end.window - start_.window;
    d.dma_read = end.dma_read - start_.dma_read;
    d.dma_write = end.dma_write - start_.dma_write;
    d.egress = end.egress - start_.egress;
    d.ingress = end.ingress - start_.ingress;
    d.phi_dma = end.phi_dma - start_.phi_dma;
    d.egress_bytes = end.egress_bytes - start_.egress_bytes;
    d.mrs_total = end.mrs_total;
    if (sh_.traced && me_ == 0) probe_reg_mr();
    out_.h_body_end = sh_.hnow();
  }

  /// One delegated registration through the transport, after the traffic:
  /// what a single Phi reg_mr costs at the size this seed draws. Under
  /// injected faults the CMD channel may refuse it; the probe then reports
  /// nothing rather than failing the run.
  void probe_reg_mr() {
    dcfa::verbs::Ib& ib = comm_.engine().ib();
    const mem::Buffer buf = comm_.alloc(sh_.w.probe_bytes);
    try {
      dcfa::ib::ProtectionDomain* pd = ib.alloc_pd();
      const Time v0 = vnow();
      const std::int64_t h0 = sh_.hnow();
      dcfa::ib::MemoryRegion* mr =
          ib.reg_mr(pd, buf,
                    dcfa::ib::kLocalWrite | dcfa::ib::kRemoteRead |
                        dcfa::ib::kRemoteWrite);
      const Time v1 = vnow();
      record(Kind::RegMr, v0, v1, h0, sh_.hnow()).bytes =
          static_cast<std::uint32_t>(sh_.w.probe_bytes);
      out_.reg_mr_ns = v1 - v0;
      ib.dereg_mr(mr);
    } catch (const dcfa::core::CmdError&) {
      out_.reg_mr_ns = 0;
    }
  }

  /// The application's own work between communication steps (and before
  /// the opening barrier): a seeded per-rank draw, so collectives see the
  /// load imbalance real SPMD codes have.
  void compute() {
    if (sh_.w.compute_ns > 0) {
      ctx_.proc.wait(static_cast<Time>(
          compute_.below(static_cast<std::uint64_t>(sh_.w.compute_ns))));
    }
  }

  /// Carve the next 64-byte-aligned window of the pool for this step.
  std::size_t take(std::size_t bytes) {
    const std::size_t off = cursor_;
    cursor_ += align64(bytes);
    return off;
  }

  int take_churn() {
    std::size_t i = rng_.below(churn_.size());
    while (churn_busy_[i]) i = (i + 1) % churn_.size();
    churn_busy_[i] = true;
    return static_cast<int>(i);
  }

  void step(std::size_t s) {
    const std::vector<PhaseRound>& step = sh_.steps[s];
    cursor_ = 128;
    compute();
    if (sim::FaultInjector* faults = sh_.rt->faults_mut()) {
      const Time j = faults->compute_jitter();
      if (j > 0) ctx_.proc.wait(j);
    }
    if (sh_.w.pingpong > 0 && sh_.partner[me_] >= 0) pingpong(s);

    reqs_.clear();
    pend_.clear();
    for (const PhaseRound& pr : step) post_recvs(pr);
    for (const PhaseRound& pr : step) post_sends(pr);
    for (const PhaseRound& pr : step) {
      if (sh_.w.sc.phases[pr.phase].kind == traffic::PhaseKind::Allreduce) {
        post_iallreduce(pr);
      }
    }
    for (const PhaseRound& pr : step) {
      if (sh_.w.sc.phases[pr.phase].kind == traffic::PhaseKind::AllToAll) {
        alltoall(pr);
      }
    }
    drain();

    Time gap = 0;
    for (const PhaseRound& pr : step) {
      gap = std::max(gap, sh_.w.sc.phases[pr.phase].gap);
    }
    if (gap > 0) ctx_.proc.wait(gap);
  }

  void post_recvs(const PhaseRound& pr) {
    if (sh_.w.sc.phases[pr.phase].kind != traffic::PhaseKind::P2P) return;
    const traffic::Round& rd = sh_.sched.phases[pr.phase].rounds[pr.round];
    const int tag = kP2PTagBase + static_cast<int>(pr.phase);
    for (std::size_t i = 0; i < rd.p2p.size(); ++i) {
      const traffic::P2POp& op = rd.p2p[i];
      if (op.dst != me_) continue;
      Pending p;
      p.kind = Kind::Recv;
      p.flow = p2p_flow(pr.phase, pr.round, i);
      p.bytes = op.bytes;
      p.key = splitmix(p.flow ^ sh_.w.sc.seed);
      p.send = &sh_.sends[pr.phase][pr.round][i];
      mem::Buffer buf = pool_;
      std::size_t off = 0;
      if (is_churn(pr.phase)) {
        p.churn = take_churn();
        buf = churn_[p.churn];
      } else {
        off = take(op.bytes);
      }
      p.data = buf.data() + off;
      post(p, [&] {
        return comm_.irecv(buf, off, op.bytes, mpi::type_byte(), op.src, tag);
      });
    }
  }

  void post_sends(const PhaseRound& pr) {
    if (sh_.w.sc.phases[pr.phase].kind != traffic::PhaseKind::P2P) return;
    const traffic::Round& rd = sh_.sched.phases[pr.phase].rounds[pr.round];
    const int tag = kP2PTagBase + static_cast<int>(pr.phase);
    for (std::size_t i = 0; i < rd.p2p.size(); ++i) {
      const traffic::P2POp& op = rd.p2p[i];
      if (op.src != me_) continue;
      Pending p;
      p.kind = Kind::Send;
      p.flow = p2p_flow(pr.phase, pr.round, i);
      p.bytes = op.bytes;
      mem::Buffer buf = pool_;
      std::size_t off = 0;
      if (is_churn(pr.phase)) {
        p.churn = take_churn();
        buf = churn_[p.churn];
      } else {
        off = take(op.bytes);
      }
      fill(buf.data() + off, op.bytes, splitmix(p.flow ^ sh_.w.sc.seed));
      SendInfo& info = sh_.sends[pr.phase][pr.round][i];
      info.span = p.span = new_span();
      post(p, [&] {
        info.post = vnow();
        return comm_.isend(buf, off, op.bytes, mpi::type_byte(), op.dst, tag);
      });
    }
  }

  void post_iallreduce(const PhaseRound& pr) {
    const traffic::PhaseSpec& ps = sh_.w.sc.phases[pr.phase];
    const traffic::Round& rd = sh_.sched.phases[pr.phase].rounds[pr.round];
    const std::size_t n = elems(rd);
    for (int b = 0; b < ps.burst; ++b) {
      const std::size_t in = take(n * sizeof(double));
      const std::size_t res = take(n * sizeof(double));
      auto* din = reinterpret_cast<double*>(pool_.data() + in);
      for (std::size_t i = 0; i < n; ++i) din[i] = reduce_input(me_, b, i);
      Pending p;
      p.kind = Kind::Iallreduce;
      p.flow = p2p_flow(pr.phase, pr.round, static_cast<std::size_t>(b));
      p.data = pool_.data() + res;
      p.bytes = n * sizeof(double);
      p.burst = b;
      post(p, [&] {
        return comm_.iallreduce(pool_, in, pool_, res, n, mpi::type_double(),
                                mpi::Op::Sum);
      });
    }
  }

  /// Post one operation; `start` issues the MPI call and returns its request.
  template <class Fn>
  void post(Pending& p, Fn&& start) {
    ++out_.attempted;
    p.v0 = vnow();
    p.h0 = h();
    if (p.span == 0) p.span = new_span();
    try {
      reqs_.push_back(start());
    } catch (const mpi::MpiError&) {
      ++out_.failed;
      release(p);
      return;
    }
    pend_.push_back(p);
  }

  void release(const Pending& p) {
    if (p.churn >= 0) churn_busy_[p.churn] = false;
  }

  void drain() {
    std::size_t remaining = reqs_.size();
    while (remaining > 0) {
      const Time wv0 = vnow();
      const std::int64_t wh0 = h();
      std::size_t i = 0;
      try {
        i = comm_.waitany(std::span<mpi::Request>(reqs_));
      } catch (const mpi::MpiError&) {
        for (std::size_t k = 0; k < reqs_.size(); ++k) {
          if (!reqs_[k].failed()) continue;
          ++out_.failed;
          release(pend_[k]);
          reqs_[k] = mpi::Request();
          --remaining;
        }
        continue;
      }
      if (i == SIZE_MAX) break;
      const Time now = vnow();
      if (sh_.traced) record(Kind::Wait, wv0, now, wh0, sh_.hnow());
      complete(pend_[i], now);
      release(pend_[i]);
      reqs_[i] = mpi::Request();
      --remaining;
    }
  }

  void complete(const Pending& p, Time now) {
    switch (p.kind) {
      case Kind::Send: {
        ++out_.sent;
        if (sh_.traced) {
          Span& sp = record(Kind::Send, p.v0, now, p.h0, sh_.hnow(), p.span);
          sp.flow = p.flow;
          sp.bytes = static_cast<std::uint32_t>(p.bytes);
        }
        break;
      }
      case Kind::Recv:
        ++out_.received;
        message_done(p.data, p.bytes, p.key, p.flow, *p.send, now, p.span,
                     p.v0, p.h0);
        break;
      case Kind::Iallreduce: {
        const auto* dout = reinterpret_cast<const double*>(p.data);
        const std::size_t n = p.bytes / sizeof(double);
        const double ranks = nprocs_;
        bool ok = true;
        for (std::size_t i = 0; i < n && ok; ++i) {
          const double want = ranks * (ranks - 1) / 2.0 +
                              ranks * static_cast<double>(p.burst + (i & 7));
          ok = dout[i] == want;
        }
        if (!ok) {
          ++out_.failed;
        } else {
          out_.digest = fold(fold(out_.digest, p.flow), n);
          out_.payload += p.bytes;
        }
        Span& sp = record(Kind::Iallreduce, p.v0, now, p.h0, h(), p.span);
        sp.bytes = static_cast<std::uint32_t>(p.bytes);
        sp.flow = p.flow;
        break;
      }
      default:
        break;
    }
  }

  /// A receive completed: verify it and record the message's latency from
  /// its own send's post.
  void message_done(const std::byte* data, std::size_t bytes,
                    std::uint64_t key, std::uint64_t flow,
                    const SendInfo& send, Time now, std::uint64_t recv_span,
                    Time recv_v0, std::int64_t recv_h0) {
    if (!check(data, bytes, key)) {
      ++out_.failed;
    } else {
      out_.digest = fold(fold(out_.digest, flow), bytes);
      out_.payload += bytes;
    }
    Span& msg = record(Kind::Msg, send.post, now, 0, 0);
    msg.bytes = static_cast<std::uint32_t>(bytes);
    msg.flow = flow;
    msg.parent = send.span;
    if (sh_.traced) {
      Span& rs = record(Kind::Recv, recv_v0, now, recv_h0, sh_.hnow(),
                        recv_span);
      rs.bytes = msg.bytes;
      rs.flow = flow;
      rs.parent = send.span;
    }
  }

  /// 4-byte ping-pong with this step's partner, before the step's traffic is
  /// posted: the first exchange absorbs the pair's skew from the previous
  /// step, later ones see only the other ranks' background traffic.
  void pingpong(std::size_t s) {
    const int peer = sh_.partner[me_];
    const bool initiator = me_ < peer;
    const mem::Buffer& sbuf = pool_;
    constexpr std::size_t kSend = 0, kRecv = 64, kBytes = 4;
    for (int k = 0; k < sh_.w.pingpong; ++k) {
      const std::uint64_t base =
          kPingPongFlow | (static_cast<std::uint64_t>(s) << 20) |
          static_cast<std::uint64_t>(k) << 1;
      const int ping_from = initiator ? me_ : peer;
      const std::uint64_t ping_flow = base | (ping_from << 12);
      const std::uint64_t pong_flow = ping_flow | 1;
      const std::uint64_t in_flow = initiator ? pong_flow : ping_flow;
      const std::uint64_t out_flow = initiator ? ping_flow : pong_flow;
      ++out_.attempted;
      mpi::Request rr;
      const Time rv0 = vnow();
      const std::int64_t rh0 = h();
      try {
        rr = comm_.irecv(sbuf, kRecv, kBytes, mpi::type_byte(), peer,
                         initiator ? kPongTag : kPingTag);
      } catch (const mpi::MpiError&) {
        ++out_.failed;
        continue;
      }
      const std::uint64_t recv_span = new_span();
      Time t0 = 0;
      auto send = [&] {
        ++out_.attempted;
        fill(sbuf.data() + kSend, kBytes, splitmix(out_flow ^ sh_.w.sc.seed));
        SendInfo& info = sh_.pp(s, me_, k);
        info.span = new_span();
        info.post = t0 = vnow();
        const std::int64_t h0 = h();
        try {
          mpi::Request sr = comm_.isend(sbuf, kSend, kBytes, mpi::type_byte(),
                                        peer, initiator ? kPingTag : kPongTag);
          comm_.wait(sr);
          ++out_.sent;
          if (sh_.traced) {
            Span& sp = record(Kind::Send, info.post, vnow(), h0, sh_.hnow(),
                              info.span);
            sp.flow = out_flow;
            sp.bytes = kBytes;
          }
        } catch (const mpi::MpiError&) {
          ++out_.failed;
        }
      };
      if (initiator) send();
      try {
        comm_.wait(rr);
        ++out_.received;
        const Time now = vnow();
        message_done(sbuf.data() + kRecv, kBytes,
                     splitmix(in_flow ^ sh_.w.sc.seed), in_flow,
                     sh_.pp(s, peer, k), now, recv_span, rv0, rh0);
        if (initiator) {
          Span& rtt = record(Kind::Rtt, t0, now, 0, 0);
          rtt.flow = ping_flow;
          rtt.bytes = kBytes;
        }
      } catch (const mpi::MpiError&) {
        ++out_.failed;
      }
      if (!initiator) send();
    }
  }

  void alltoall(const PhaseRound& pr) {
    const traffic::PhaseSpec& ps = sh_.w.sc.phases[pr.phase];
    const traffic::Round& rd = sh_.sched.phases[pr.phase].rounds[pr.round];
    const std::size_t count = a2a_count(rd);
    const std::size_t soff = take(nprocs_ * count);
    const std::size_t roff = take(nprocs_ * count);
    for (int b = 0; b < ps.burst; ++b) {
      const std::uint64_t flow =
          p2p_flow(pr.phase, pr.round, static_cast<std::size_t>(b));
      auto key = [&](int from, int to) {
        return splitmix(flow ^ sh_.w.sc.seed ^ (static_cast<std::uint64_t>(from) << 32) ^
                   static_cast<std::uint64_t>(to));
      };
      for (int d = 0; d < nprocs_; ++d) {
        fill(pool_.data() + soff + d * count, count, key(me_, d));
      }
      ++out_.attempted;
      const Time v0 = vnow();
      const std::int64_t h0 = h();
      try {
        comm_.alltoall(pool_, soff, count, mpi::type_byte(), pool_, roff);
      } catch (const mpi::MpiError&) {
        ++out_.failed;
        continue;
      }
      bool ok = true;
      for (int src = 0; src < nprocs_ && ok; ++src) {
        ok = check(pool_.data() + roff + src * count, count, key(src, me_));
      }
      if (!ok) {
        ++out_.failed;
      } else {
        out_.digest = fold(fold(out_.digest, flow), count);
        out_.payload += (nprocs_ - 1) * count;
      }
      Span& sp = record(Kind::Alltoall, v0, vnow(), h0, h());
      sp.bytes = static_cast<std::uint32_t>(count);
      sp.flow = flow;
    }
  }

  Shared& sh_;
  mpi::RankCtx& ctx_;
  mpi::Communicator& comm_;
  const int me_;
  const int nprocs_;
  RankOut& out_;
  sim::Rng rng_;      ///< churn buffer choice
  sim::Rng compute_;  ///< compute imbalance draws
  mem::Buffer pool_;
  std::size_t cursor_ = 0;
  std::vector<mem::Buffer> churn_;
  std::vector<bool> churn_busy_;
  NodeSample start_;
  std::vector<mpi::Request> reqs_;
  std::vector<Pending> pend_;
};

/// Seeded perfect matching of the ranks (odd rank counts leave one idle).
std::vector<int> pair_ranks(int nprocs, std::uint64_t seed) {
  std::vector<int> order(nprocs);
  for (int i = 0; i < nprocs; ++i) order[i] = i;
  sim::Rng rng(seed ^ 0x70696e67706f6e67ull);  // "pingpong"
  for (int i = nprocs - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<int> partner(nprocs, -1);
  for (int i = 0; i + 1 < nprocs; i += 2) {
    partner[order[i]] = order[i + 1];
    partner[order[i + 1]] = order[i];
  }
  return partner;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.sc.name = name;
  w.sc.seed = seed;
  sim::Rng rng(seed ^ 0x70726f6265ull);  // "probe"
  // One delegated registration of 64 KiB .. 1 MiB, page-cost dominated.
  w.probe_bytes = (1 + rng.below(16)) << 16;
  if (name == "phi_mix" || name == "phi_faulty") {
    // The paper's system and placement: DCFA-MPI ranks on the Phi, one per
    // node, endpoints wired at init.
    constexpr int kRanks = 16;
    // The fault path costs about 3x the host time per step (heartbeats,
    // retransmit timers) and each iteration injects one delegate crash, so
    // the faulty variant runs shorter iterations at more sub-seeds.
    const int steps = name == "phi_mix" ? 60 : 12;
    w.passes = name == "phi_mix" ? 8 : 20;
    w.cfg.mode = mpi::MpiMode::DcfaPhi;
    w.cfg.platform.nodes = kRanks;
    w.sc.nprocs = kRanks;
    w.interleave = true;
    w.pingpong = 3;
    // More rotating buffers than the MR cache (and the offload-shadow
    // cache) holds, so mid-size traffic keeps registering and evicting.
    w.churn_buffers = w.cfg.platform.mr_cache_entries * 3 / 2;
    w.churn_buffer_bytes = 64 << 10;
    using traffic::PhaseKind;
    using traffic::SizeDist;
    // Median 4 KiB: most messages eager (< 8 KiB), a long rendezvous tail,
    // and a few percent past 64 KiB where the offload shadow's DMA sync
    // dominates.
    w.sc.phases.push_back({.name = "p2p_lognormal",
                           .kind = PhaseKind::P2P,
                           .sizes = SizeDist::lognormal(4096, 1.5, 16, 1 << 20),
                           .rounds = steps,
                           .msgs_per_rank = 2});
    w.sc.phases.push_back({.name = "mr_churn",
                           .kind = PhaseKind::P2P,
                           .sizes = SizeDist::uniform(8 << 10, 64 << 10),
                           .rounds = steps,
                           .msgs_per_rank = 1});
    // A burst of three concurrent iallreduces per step, each its own phase
    // so each draws its own size: a step's load then varies less, and the
    // latency tail is made of many steps instead of a few heavy ones.
    for (const char* burst : {"iallreduce_a", "iallreduce_b", "iallreduce_c"}) {
      w.sc.phases.push_back(
          {.name = burst,
           .kind = PhaseKind::Allreduce,
           .sizes = SizeDist::lognormal(16 << 10, 1.2, 1 << 10, 256 << 10),
           .rounds = steps});
    }
    if (name == "phi_faulty") {
      // faulty_soak's hazards: WC drop/error storms, compute jitter, one
      // delegate crash with restart.
      w.sc.fault_spec =
          traffic::make_scenario("faulty_soak", kRanks, seed, false).fault_spec;
      w.sc.fault_seed = splitmix(seed ^ 0x6661756c74ull);  // "fault"
    }
  } else if (name == "host_a2a") {
    // Host MPI at scale: every rank touches every peer, so host time goes
    // to the event core, fiber switches and per-pass endpoint scans.
    constexpr int kRanks = 48;
    w.cfg = traffic::scale_run_config(kRanks);
    w.sc.nprocs = kRanks;
    w.passes = 4;
    w.compute_ns = sim::microseconds(50);
    // bursty_a2a's shapes. The bimodal 512 B / 32 KiB alltoall mix is
    // stratified (8 small and 3 large per iteration) rather than drawn per
    // round: with so few rounds a random split would dominate the
    // run-to-run spread of every figure.
    const traffic::Scenario bursty =
        traffic::make_scenario("bursty_a2a", kRanks, seed, false);
    traffic::PhaseSpec small = bursty.phases.at(0);
    small.name = "a2a_small";
    small.sizes = traffic::SizeDist::fixed(small.sizes.lo);
    small.rounds = 4;
    small.burst = 2;
    traffic::PhaseSpec large = small;
    large.name = "a2a_large";
    large.sizes = traffic::SizeDist::fixed(bursty.phases.at(0).sizes.hi);
    large.rounds = 1;
    large.burst = 3;
    traffic::PhaseSpec storm = bursty.phases.at(1);
    storm.rounds = 6;
    w.sc.phases = {small, large, storm};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.cfg.nprocs = w.sc.nprocs;
  w.cfg.fault_spec = w.sc.fault_spec;
  w.cfg.fault_seed = w.sc.fault_seed;
  return w;
}

IterResult run_iteration(const Workload& w, bool traced, bool setup_only) {
  const traffic::Schedule sched = traffic::build_schedule(w.sc);
  Shared sh(w, sched, traced, setup_only);
  sh.steps = make_steps(w, sched);
  for (const traffic::PhaseSchedule& ph : sched.phases) {
    auto& per_round = sh.sends.emplace_back();
    for (const traffic::Round& rd : ph.rounds) {
      per_round.emplace_back(rd.p2p.size());
    }
  }
  sh.pp_sends.resize(sh.steps.size() * w.cfg.nprocs *
                     static_cast<std::size_t>(std::max(w.pingpong, 0)));
  sh.partner = pair_ranks(w.cfg.nprocs, w.sc.seed);
  sh.out.resize(w.cfg.nprocs);

  IterResult res;
  std::optional<mpi::Runtime> rt;
  rt.emplace(w.cfg);
  sh.rt = &*rt;
  const Clock::time_point h_ctor = Clock::now();
  try {
    rt->run([&](mpi::RankCtx& ctx) { Rank(sh, ctx).run(); });
  } catch (const std::exception& e) {
    res.violations.push_back(std::string("run failed: ") + e.what());
  }
  const Clock::time_point h_run = Clock::now();
  res.events = rt->sim().events_executed();
  for (const mpi::Engine::Stats& s : rt->rank_stats()) {
    res.stats = traffic::stats_add(res.stats, s);
  }
  if (rt->faults() != nullptr) res.faults = rt->faults()->counters();
  rt.reset();
  const Clock::time_point h_end = Clock::now();

  std::int64_t h_barrier = 0, h_body_end = 0;
  Time v_barrier = 0;
  for (const RankOut& o : sh.out) {
    h_barrier = std::max(h_barrier, o.h_barrier_exit);
    h_body_end = std::max(h_body_end, o.h_body_end);
    v_barrier = std::max(v_barrier, o.barrier_exit);
    res.makespan = std::max(res.makespan, o.traffic_end - o.barrier_exit);
    res.attempted += o.attempted;
    res.failed += o.failed;
    res.p2p_sent += o.sent;
    res.p2p_received += o.received;
    res.payload_bytes += o.payload;
    res.mr_hits += o.mr_hits;
    res.mr_misses += o.mr_misses;
    res.mr_evictions += o.mr_evictions;
    res.shadow_misses += o.shadow_misses;
    res.reg_mr_ns += o.reg_mr_ns;
    res.nodes.push_back(o.node);
  }
  res.init_virt = v_barrier;
  const double h_total = seconds_between(sh.h_start, h_end);
  res.ctor_s = seconds_between(sh.h_start, h_ctor);
  res.setup_s = static_cast<double>(h_barrier) * 1e-9;
  res.wall_s = h_total - res.setup_s;
  res.run_s = seconds_between(h_ctor, h_run);
  res.teardown_s = h_total - static_cast<double>(h_body_end) * 1e-9;

  res.result_digest = kFnvBasis;
  for (RankOut& o : sh.out) {
    res.result_digest = fold(res.result_digest, o.digest);
    res.spans.insert(res.spans.end(), o.spans.begin(), o.spans.end());
  }
  if (traced) {
    Span ctor;
    ctor.kind = Kind::Ctor;
    ctor.h1 = static_cast<std::int64_t>(res.ctor_s * 1e9);
    ctor.id = 1;
    Span down;
    down.kind = Kind::Teardown;
    down.h0 = h_body_end;
    down.h1 = static_cast<std::int64_t>(h_total * 1e9);
    down.id = 2;
    res.spans.push_back(ctor);
    res.spans.push_back(down);
  }
  return res;
}

}  // namespace perfbench
