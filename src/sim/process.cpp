#include "sim/process.hpp"

#include <stdexcept>

#include "sim/engine.hpp"

namespace dcfa::sim {

thread_local Process* Process::tl_current_ = nullptr;

Process* Process::current() { return tl_current_; }

Process::Process(Engine& engine, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(std::make_unique<Fiber>([this] { run_body(); },
                                     engine.sched_config().stack_bytes)) {}

Process::~Process() {
  if (fiber_ && fiber_->started() && !fiber_->done()) {
    // The engine is being torn down with this fiber still parked inside
    // its body. Resume it one last time with the abandon flag set so
    // park() throws AbandonedProcess and the fiber stack unwinds its
    // destructors before the mapping is released. Never-started fibers
    // hold no frames; ~Fiber just unmaps.
    abandoned_ = true;
    switch_in();
  }
}

Time Process::now() const { return engine_.now(); }

void Process::run_body() {
  try {
    body_(*this);
  } catch (const AbandonedProcess&) {
    // Engine torn down while we were parked; just unwind.
  } catch (...) {
    // Remember the failure; Engine::run() rethrows it to the caller. The
    // engine is blocked until we hand control back, so this write is
    // ordered before its next loop check.
    error_ = std::current_exception();
    engine_.process_failed_ = true;
  }
  state_ = State::Done;
}

void Process::resume() {
  if (state_ == State::Done) return;  // finished before a stale wake-up
  state_ = State::Running;
  switch_in();
  if (state_ == State::Done) finish_cleanup();
}

void Process::switch_in() {
  Process* prev = tl_current_;
  tl_current_ = this;
  ++engine_.switches_;
  fiber_->resume();
  tl_current_ = prev;
}

void Process::park() {
  state_ = State::Blocked;
  fiber_->yield();
  if (abandoned_) throw AbandonedProcess{};
  state_ = State::Running;
}

void Process::finish_cleanup() {
  // Release the execution context and the body closure the moment the body
  // returns: at thousands of ranks the stacks and captured state are the
  // dominant memory, and keeping them until teardown is an O(all ranks)
  // cost the scheduler is designed to avoid.
  fiber_.reset();
  body_ = nullptr;
  engine_.note_process_finished();
}

void Process::wait(Time d) {
  if (d < 0) throw std::logic_error("Process::wait: negative duration");
  engine_.schedule_after(d, [this] { resume(); });
  park();
}

void Process::wait_on(Condition& cond) {
  cond.waiters_.push_back(this);
  park();
}

Condition::Condition(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

void Condition::notify_all() {
  if (waiters_.empty()) return;
  auto woken = std::move(waiters_);
  waiters_.clear();
  // One engine event per waiter (never a direct resume): under explore
  // ordering each wakeup draws its own priority, so the scheduler can
  // legally run the woken processes in any order — this is the main
  // source of interleaving choice points the seed sweep permutes.
  for (Process* p : woken) {
    engine_.schedule_after(0, [p] { p->resume(); });
  }
}

}  // namespace dcfa::sim
