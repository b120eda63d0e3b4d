#pragma once

// The execution context behind every sim::Process (docs/simulator.md).
//
// A Fiber is a resumable execution context, switched by a register-only
// routine in fiber.cpp (x86-64 System V), with its own mmap'd stack: a
// guard page at the low end, the rest lazily paged, so thousands of
// simulated ranks cost virtual address space instead of OS threads. The
// engine resumes fibers inline on its own thread, one at a time, and only
// from events it has popped, so a fiber switch never changes the event
// order — every trace and Stats bag is a pure function of the inputs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace dcfa::sim {

/// Scheduler configuration for one sim::Engine, resolved from the
/// environment once at engine construction:
///   DCFA_SIM_SCHED     fiber | explore. Default fiber (Fifo ordering);
///                      `explore` switches the event *ordering* to
///                      randomized priorities (below).
///   DCFA_SIM_STACK_KB  virtual stack size per fiber in KiB (decimal,
///                      default 512). Only touched pages cost RSS.
///   DCFA_SIM_SEED      explore-mode seed (decimal, default 0).
///   DCFA_SIM_SCHEDULE  a replay token ("x1:<hex seed>") as printed in a
///                      violation report: forces explore mode with exactly
///                      that seed, deterministically reproducing the run
///                      that emitted it. Overrides DCFA_SIM_SEED.
///
/// Ordering policies (docs/simulator.md):
///   Fifo    — events at equal virtual time run in schedule order (the
///             historical deterministic default).
///   Explore — events at equal virtual time run in an order drawn from
///             splitmix64(seed, event-seq): a PCT-style randomized-priority
///             schedule over the logically-concurrent event set. Virtual
///             time is never reordered, so timing metrics are undistorted;
///             each seed is one reproducible interleaving.
struct SchedConfig {
  enum class Order { Fifo, Explore };
  Order order = Order::Fifo;
  std::uint64_t seed = 0;
  std::size_t stack_bytes = 512 * 1024;

  bool explore() const { return order == Order::Explore; }

  /// The compact replay token naming this schedule ("x1:<hex seed>"; the
  /// "x1" tags the priority algorithm so a token can never silently replay
  /// under a different scheme). Empty under Fifo ordering.
  std::string schedule_token() const;
  /// Parse a replay token back into an explore config (the stack size
  /// keeps its default). Throws std::invalid_argument on junk.
  static SchedConfig from_token(const std::string& token);

  static SchedConfig from_env();
};

/// One resumable context. resume() and yield() must pair on the same OS
/// thread for any given fiber (the engine's thread resumes them all);
/// sanitizer stack bookkeeping requires this.
class Fiber {
 public:
  Fiber(std::function<void()> body, std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch the calling thread into the fiber; returns when the fiber
  /// yields or its body returns.
  void resume();
  /// Called from inside the body: switch back to the resumer.
  void yield();
  /// True once the body has returned. A done fiber must not be resumed.
  bool done() const { return done_; }
  bool started() const { return started_; }

 private:
  [[noreturn]] static void trampoline();
  [[noreturn]] void enter();  ///< leaves through the switch, never resumed

  std::function<void()> body_;
  void* map_ = nullptr;  ///< mmap base (guard page first)
  std::size_t map_bytes_ = 0;
  void* stack_base_ = nullptr;  ///< usable stack (above the guard page)
  std::size_t stack_size_ = 0;
  bool started_ = false;
  bool done_ = false;
  // Saved stack pointers: each addresses the callee-saved registers and
  // control words the switch routine pushed before leaving that stack.
  void* sp_ = nullptr;         ///< this fiber's, while it is not running
  void* return_sp_ = nullptr;  ///< the resumer's, while the fiber runs
  // ASan fiber-switch bookkeeping (__sanitizer_*_switch_fiber protocol):
  // the resumer's fake-stack handle, the fiber's own handle across yields,
  // and the stack we most recently arrived from (switched back to on yield).
  void* resumer_fake_stack_ = nullptr;
  void* own_fake_stack_ = nullptr;
  const void* from_stack_bottom_ = nullptr;
  std::size_t from_stack_size_ = 0;
  // TSan fiber contexts (__tsan_*_fiber protocol): this fiber's own, and
  // the resumer's, switched back to on yield and on exit.
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
};

}  // namespace dcfa::sim
