#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace dcfa::sim {

class Checker;
class Process;

/// Deterministic discrete-event engine.
///
/// The engine owns a priority queue of (time, sequence) ordered events and a
/// set of cooperative processes, each a stackful fiber the engine resumes
/// inline on the caller's thread. Exactly one context — the engine inside an
/// event callback, or a single resumed Process — runs at any moment, so
/// simulation state needs no locking and every run with the same inputs
/// produces the same event order.
///
/// Scheduling is O(active contexts), not O(all ranks): blocked processes
/// cost nothing until an event resumes them, finished processes release
/// their stacks and bodies immediately (Process::finish_cleanup), and the
/// live-process count is a counter, not a sweep.
class Engine {
 public:
  using Callback = std::function<void()>;

  /// Ordering/stack from the environment (DCFA_SIM_SCHED, DCFA_SIM_STACK_KB,
  /// ...; see SchedConfig::from_env).
  Engine();
  /// Explicit scheduler configuration.
  explicit Engine(SchedConfig sched);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `cb` to run at absolute virtual time `t` (must be >= now()).
  void schedule_at(Time t, Callback cb);

  /// Schedule `cb` to run `delay` nanoseconds from now.
  void schedule_after(Time delay, Callback cb);

  /// Create a process whose body starts executing at the current time once
  /// run() reaches it. The engine owns the process; its body runs on a
  /// resumable context that only executes while the engine has handed it
  /// control.
  Process& spawn(std::string name, std::function<void(Process&)> body);

  /// Run until the event queue is empty. Returns normally when every spawned
  /// process has finished; throws DeadlockError if processes remain blocked
  /// with no pending events (naming the stuck processes).
  void run();

  /// Run until the event queue is empty or virtual time would exceed
  /// `deadline`; remaining events stay queued. Does not throw on blocked
  /// processes (useful for driving partial scenarios in tests).
  void run_until(Time deadline);

  /// Number of processes that have been spawned and not yet finished. O(1).
  std::size_t live_processes() const { return live_; }

  /// Abandon any still-parked processes and release every execution
  /// context. Owners whose members are referenced from process bodies
  /// (fabrics, memories) call this at the top of their destructors so no
  /// context is still unwinding when those members die. Idempotent; the
  /// destructor calls it too.
  void join_all();

  /// Total events executed so far (for determinism tests and stats).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Total fiber resumes so far: each is a round trip through the context
  /// switch, out to the process and back.
  std::uint64_t switches() const { return switches_; }

  /// The scheduler configuration this engine runs under.
  const SchedConfig& sched_config() const { return sched_; }

  /// The DcfaCheck invariant checker for this cluster. Created lazily at
  /// the level named by DCFA_CHECK (off|cheap|full; unset = cheap), so each
  /// Engine — and therefore each test cluster — gets fresh shadow state.
  Checker& checker();

  /// This cluster's telemetry sink: the Chrome-trace recorder (off until
  /// Telemetry::enable_tracing) and the DCFA_SIM_LOG stderr echo, read when
  /// the engine is built.
  Telemetry& telemetry() { return telemetry_; }

 private:
  friend class Process;

  struct Event {
    Time time;
    std::uint64_t prio;  ///< 0 under Fifo; splitmix64(seed, seq) under Explore
    std::uint64_t seq;
    Callback cb;
  };
  /// (time, prio, seq): virtual time always dominates, so exploration only
  /// permutes events that are logically concurrent. Under Fifo every prio
  /// is 0 and the historical (time, seq) order falls out unchanged; under
  /// Explore the prio draw realizes one seeded random schedule, with seq as
  /// the deterministic tie-break.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.prio != b.prio) return a.prio > b.prio;
      return a.seq > b.seq;
    }
  };

  /// Move the earliest event out of the heap (no std::function copy).
  Event pop_event();
  void step(const Event& ev);
  void check_deadlock() const;
  void note_process_finished() { --live_; }

  Time now_ = 0;
  bool process_failed_ = false;  // set by Process when a body dies on an exception
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t switches_ = 0;
  std::size_t live_ = 0;
  SchedConfig sched_;
  /// Binary heap under EventOrder (std::push_heap/pop_heap), so the top
  /// event can be moved out rather than copied as priority_queue::top forces.
  std::vector<Event> queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unique_ptr<Checker> checker_;
  Telemetry telemetry_{now_};
};

/// Thrown by Engine::run() when all events have drained but processes are
/// still blocked on conditions that can never fire.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace dcfa::sim
