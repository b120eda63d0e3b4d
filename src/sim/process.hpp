#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace dcfa::sim {

class Engine;
class Condition;

/// Internal exception used to unwind a parked process when its engine is
/// destroyed before the process body finished. Never escapes the library.
struct AbandonedProcess {};

/// A cooperative simulated process.
///
/// The engine resumes a process by handing it the "run token"; the process
/// gives it back whenever it blocks in wait() / wait_on(). Only one process
/// (or the engine itself) ever holds the token, which makes the simulation
/// single-threaded in effect and fully deterministic.
///
/// The resumable context is a stackful Fiber (sim/fiber.hpp) that the
/// engine resumes inline on its own thread: thousands of ranks cost
/// lazily-paged stack mappings, not OS threads, and a switch saves and
/// loads a handful of registers with no system call and no kernel
/// scheduler involved.
///
/// Schedule exploration (DCFA_SIM_SCHED=explore) needs no cooperation from
/// this layer, and that is a load-bearing property: *every* way a process
/// can block or become runnable — wait() timers, wait_on() wakeups,
/// spawn-time first resumes — funnels through Engine::schedule_at, so
/// permuting same-time event priorities in the engine's queue explores
/// every interleaving decision there is. Nothing in Process or Condition
/// may ever resume a context directly without going through an engine
/// event, or that decision would escape the explored (and replayed)
/// schedule.
class Process {
 public:
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  Engine& engine() { return engine_; }
  Time now() const;

  /// Advance virtual time by `d` (models computation or fixed overheads).
  void wait(Time d);

  /// Block until `cond` is notified. Callers typically loop:
  ///   while (!predicate()) wait_on(cond);
  void wait_on(Condition& cond);

  /// True once the body has returned.
  bool finished() const { return state_ == State::Done; }

  /// The process whose body the calling thread is currently executing, or
  /// nullptr outside any process body. Every rank shares the engine's
  /// thread, so per-rank ambient state must key off the process, not the
  /// thread.
  static Process* current();

  /// One ambient pointer slot per process, for layers that need "process
  /// globals" (the C API keeps its per-rank environment here). The process
  /// does not own what it points to.
  void set_ambient(void* p) { ambient_ = p; }
  void* ambient() const { return ambient_; }

  /// Exception that escaped the body, if any (rethrown by Engine::run()).
  std::exception_ptr error() const { return error_; }

 private:
  friend class Engine;
  friend class Condition;

  enum class State { Runnable, Running, Blocked, Done };

  Process(Engine& engine, std::string name, std::function<void(Process&)> body);

  /// Engine-side: hand the token to this process and wait for it back.
  void resume();
  /// Switch into the fiber until it parks or finishes, with current()
  /// naming this process for the duration of the slice.
  void switch_in();
  /// Process-side: give the token back to the engine.
  void park();
  /// Fiber body: error capture and the Done transition.
  void run_body();
  /// Engine-side, once per process after the Done transition: release the
  /// fiber's stack mapping and the body closure eagerly, so a finished
  /// rank stops costing memory long before teardown. The Process shell
  /// (name, error) survives for diagnostics.
  void finish_cleanup();

  /// Saved and restored around every resume (switch_in).
  static thread_local Process* tl_current_;

  Engine& engine_;
  std::string name_;
  std::function<void(Process&)> body_;
  State state_ = State::Runnable;
  bool abandoned_ = false;  ///< teardown unwind flag
  void* ambient_ = nullptr;
  std::exception_ptr error_;
  std::unique_ptr<Fiber> fiber_;
};

/// A waitable condition in virtual time. notify_all() schedules a wake-up of
/// every current waiter at the current virtual time; waiters re-check their
/// predicates on resume (spurious wake-ups are allowed and expected).
class Condition {
 public:
  explicit Condition(Engine& engine, std::string name = {});

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Wake every process currently blocked in wait_on(*this).
  void notify_all();

  const std::string& name() const { return name_; }

 private:
  friend class Process;

  Engine& engine_;
  std::string name_;
  std::vector<Process*> waiters_;
};

}  // namespace dcfa::sim
