#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dcfa::sim {

/// Seeded, deterministic fault-injection oracle. Components consult it at
/// their hazard points (the HCA before completing a work request, the DCFA
/// host delegate before executing a CMD, the eager ring when computing free
/// slots); it rolls one shared RNG and answers "what goes wrong here, if
/// anything". Because the simulation executes events in a deterministic
/// order, the same spec + seed reproduces the exact same fault pattern —
/// which is what makes fault runs replayable and the recovery tests exact.
///
/// The spec is a comma/semicolon-separated `key=value` string, e.g.
///   "drop_wc=0.1"                    drop 10% of faultable completions
///   "err_wc=1,err_wc_max=1"          error exactly the first faultable WR
///   "err_wc=1,err_wc_skip=2,err_wc_max=1"   ... the third one instead
///   "cmd_fail=1,cmd_op=offload"      fail every offload-MR CMD verb
///   "cmd_drop=1,cmd_drop_max=1"      swallow one CMD request (timeout path)
///   "delay_dma=0.2,delay_dma_ns=2000"  late DMA start on 20% of transfers
///   "credit_slots=2"                 squeeze the eager ring to 2 credits
/// Full grammar in docs/faults.md.
class FaultInjector {
 public:
  /// What happens to one faultable work request at the HCA.
  enum class WcFate {
    Deliver,  ///< normal: data moves, CQE delivered
    Drop,     ///< data moves, but the completion is lost (silent CQE loss)
    Error,    ///< nothing moves; an error CQE is delivered after the wire RTT
    Fatal,    ///< like Error, but the QP wedges in QpState::Error for good
  };

  /// What happens to one CMD-channel request at the host delegate.
  enum class CmdFate {
    Ok,     ///< executed normally
    Fail,   ///< not executed; a CmdStatus::Failed reply is sent
    Drop,   ///< not executed; no reply ever sent (client must time out)
    Crash,  ///< the whole delegate dies: this and every later request is
            ///< swallowed until (optionally) it restarts
  };

  /// Coarse classification of CMD ops for the `cmd_op=` filter. The caller
  /// (dcfa layer) maps its op codes onto these so sim/ stays dependency-free.
  enum class CmdOpClass { Other, RegMr, Offload, Create };

  struct Spec {
    // Per-hazard injection probabilities in [0, 1]. 0 = hazard disabled.
    double drop_wc = 0.0;    ///< P(lose a faultable completion)
    double err_wc = 0.0;     ///< P(error a faultable work request)
    double delay_dma = 0.0;  ///< P(delay a DMA/wire transfer start)
    double cmd_fail = 0.0;   ///< P(CMD verb replies Failed)
    double cmd_drop = 0.0;   ///< P(CMD request swallowed, no reply)
    /// P(one compute step straggles): OS noise / page-fault style jitter.
    /// Consulted by workloads that model per-rank compute (the traffic
    /// generator's soak scenarios), not by the protocol layers.
    double compute_delay = 0.0;

    // Fatal faults: these kill a resource instead of one operation. The
    // recovery subsystem (engine reconnect / proxy failover) is what makes
    // them survivable; arming either one also arms peer liveness (probes
    // of watched peers) in mpi::Engine.
    double qp_fatal = 0.0;        ///< P(faultable WR wedges its QP in Error)
    double delegate_crash = 0.0;  ///< P(a CMD request kills the delegate)

    /// If > 0, a crashed delegate restarts this many ns after the crash;
    /// 0 means it stays dead (forcing the proxy failover path).
    Time delegate_restart_ns = 0;

    /// Permanent process death: `rank_kill=2+5` kills world ranks 2 and 5
    /// outright (the whole rank, not just its delegate — nothing restarts).
    /// `rank_kill_at_ns=80000+120000` gives each victim its own virtual
    /// death time (a single value applies to all victims; default 0 = die
    /// at setup). Unlike every probabilistic key above this is exact by
    /// construction: the survivors' detection/recovery path is what the
    /// seeded tests pin down.
    std::vector<int> rank_kill;
    std::vector<Time> rank_kill_at_ns;

    /// Added latency for each delayed DMA start.
    Time delay_dma_ns = nanoseconds(2000);

    /// Added latency for each straggling compute step.
    Time compute_delay_ns = microseconds(50);

    /// Cap on usable eager-ring credits per peer (0 = no squeeze). Values
    /// below the ring depth force credit exhaustion under bursts.
    int credit_slots = 0;

    /// Deterministic targeting: skip the first `_skip` candidates of a kind,
    /// stop injecting after `_max` injections of that kind. With the
    /// probability at 1 these select exact victims ("err the 3rd faultable
    /// WR") without any RNG sensitivity.
    std::uint64_t drop_wc_max = UINT64_MAX;
    std::uint64_t drop_wc_skip = 0;
    std::uint64_t err_wc_max = UINT64_MAX;
    std::uint64_t err_wc_skip = 0;
    std::uint64_t delay_dma_max = UINT64_MAX;
    std::uint64_t delay_dma_skip = 0;
    std::uint64_t compute_delay_max = UINT64_MAX;
    std::uint64_t compute_delay_skip = 0;
    std::uint64_t cmd_fail_max = UINT64_MAX;
    std::uint64_t cmd_fail_skip = 0;
    std::uint64_t cmd_drop_max = UINT64_MAX;
    std::uint64_t cmd_drop_skip = 0;
    std::uint64_t qp_fatal_max = UINT64_MAX;
    std::uint64_t qp_fatal_skip = 0;
    std::uint64_t delegate_crash_max = UINT64_MAX;
    std::uint64_t delegate_crash_skip = 0;

    /// Restrict CMD faults to one op class: any | reg_mr | offload | create.
    CmdOpClass cmd_filter = CmdOpClass::Other;
    bool cmd_filter_any = true;

    /// True when any hazard can actually fire.
    bool armed() const {
      return drop_wc > 0.0 || err_wc > 0.0 || delay_dma > 0.0 ||
             cmd_fail > 0.0 || cmd_drop > 0.0 || compute_delay > 0.0 ||
             credit_slots > 0 || fatal_armed();
    }

    /// True when a *fatal* hazard (QP wedge / delegate crash / rank kill)
    /// can fire. The engine arms its peer-liveness probes only in this
    /// case, so transient-fault specs keep their exact event schedule.
    bool fatal_armed() const {
      return qp_fatal > 0.0 || delegate_crash > 0.0 || !rank_kill.empty();
    }

    /// Scheduled death time of `rank`, or -1 when it is not a victim.
    Time kill_time_of(int rank) const {
      for (std::size_t i = 0; i < rank_kill.size(); ++i) {
        if (rank_kill[i] != rank) continue;
        if (rank_kill_at_ns.empty()) return 0;
        return i < rank_kill_at_ns.size() ? rank_kill_at_ns[i]
                                          : rank_kill_at_ns.back();
      }
      return -1;
    }

    /// Parse the spec grammar; throws std::invalid_argument on unknown keys
    /// or malformed values. Empty string = all hazards off.
    static Spec parse(const std::string& text);
  };

  struct Counters {
    std::uint64_t wc_dropped = 0;
    std::uint64_t wc_errored = 0;
    std::uint64_t dma_delayed = 0;
    std::uint64_t compute_delayed = 0;
    std::uint64_t cmd_failed = 0;
    std::uint64_t cmd_dropped = 0;
    std::uint64_t qp_fatal = 0;
    std::uint64_t delegate_crashes = 0;
    std::uint64_t rank_kills = 0;
  };

  FaultInjector(const Spec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool armed() const { return spec_.armed(); }
  const Spec& spec() const { return spec_; }
  const Counters& counters() const { return counters_; }

  /// Decide the fate of one faultable work request (called once per such WR,
  /// in posting order). Error wins over Drop when both roll true.
  WcFate wc_fate();

  /// Extra latency to add before this DMA transfer starts (0 most times).
  Time dma_delay();

  /// Extra latency to add to this compute step (0 most times). Workload
  /// harnesses consult it once per modelled compute quantum so OS-noise
  /// stragglers ride the same seeded oracle as the protocol hazards.
  Time compute_jitter();

  /// Decide the fate of one CMD request of the given class.
  CmdFate cmd_fate(CmdOpClass cls);

  /// Record that a scheduled rank kill fired (bookkeeping only; the kill
  /// itself is exact, driven by Spec::rank_kill / kill_time_of).
  void note_rank_kill() { ++counters_.rank_kills; }

  /// Eager-ring credit squeeze: usable credits per peer, given the ring's
  /// natural depth. Returns `ring_slots` untouched when no squeeze is set.
  int credit_cap(int ring_slots) const {
    if (spec_.credit_slots <= 0) return ring_slots;
    return spec_.credit_slots < ring_slots ? spec_.credit_slots : ring_slots;
  }

 private:
  Spec spec_;
  Rng rng_;
  Counters counters_;
  // Per-kind candidate counts, for the _skip windows.
  std::uint64_t err_seen_ = 0;
  std::uint64_t drop_seen_ = 0;
  std::uint64_t delay_seen_ = 0;
  std::uint64_t compute_seen_ = 0;
  std::uint64_t cmd_fail_seen_ = 0;
  std::uint64_t cmd_drop_seen_ = 0;
  std::uint64_t qp_fatal_seen_ = 0;
  std::uint64_t delegate_crash_seen_ = 0;
};

}  // namespace dcfa::sim
