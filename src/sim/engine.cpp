#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/check.hpp"
#include "sim/process.hpp"
#include "sim/vclock.hpp"

namespace dcfa::sim {

Engine::Engine() : Engine(SchedConfig::from_env()) {}

Engine::Engine(SchedConfig sched) : sched_(sched) {}

Engine::~Engine() { join_all(); }

void Engine::join_all() {
  // Unwind any fibers that are still parked: each gets one final
  // abandonment resume from ~Process.
  processes_.clear();
  live_ = 0;
}

void Engine::schedule_at(Time t, Callback cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  const std::uint64_t seq = next_seq_++;
  // Explore ordering: every event draws a priority from (seed, seq). The
  // draw is a pure function of inputs the replay token pins, so the same
  // token always reproduces the same interleaving byte-for-byte.
  const std::uint64_t prio =
      sched_.explore() ? splitmix64(sched_.seed ^
                                    (seq * 0x9e3779b97f4a7c15ULL))
                       : 0;
  queue_.push_back(Event{t, prio, seq, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), EventOrder{});
}

void Engine::schedule_after(Time delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body) {
  auto proc = std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(body)));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  ++live_;
  schedule_at(now_, [&ref] { ref.resume(); });
  return ref;
}

Engine::Event Engine::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end(), EventOrder{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void Engine::step(const Event& ev) {
  now_ = ev.time;
  ++events_executed_;
  ev.cb();
}

void Engine::run() {
  while (!queue_.empty()) {
    step(pop_event());
    // Fail fast on a dead process: periodic timers (liveness ticks, retransmit
    // checks) keep the queue non-empty forever, which would turn any rank
    // exception — a DcfaCheck violation, say — into a silent hang if we
    // only looked after the queue drained.
    if (process_failed_) break;
  }
  // A process that died on an exception usually strands its peers; surface
  // the root cause rather than a misleading deadlock report. The scan is
  // O(ranks), so only pay for it when a failure actually happened.
  if (process_failed_) {
    for (const auto& p : processes_) {
      if (p->error()) std::rethrow_exception(p->error());
    }
  }
  check_deadlock();
}

void Engine::run_until(Time deadline) {
  while (!queue_.empty() && queue_.front().time <= deadline) {
    step(pop_event());
  }
  if (now_ < deadline) now_ = deadline;
}

Checker& Engine::checker() {
  if (!checker_) {
    checker_ = std::make_unique<Checker>(Checker::level_from_env());
    // Violations found while exploring carry their own reproduction recipe:
    // the checker appends this token to every report it raises.
    checker_->set_schedule_token(sched_.schedule_token());
  }
  return *checker_;
}

void Engine::check_deadlock() const {
  if (live_ == 0) return;  // the common case — skip the name sweep entirely
  std::ostringstream stuck;
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) {
      if (n++) stuck << ", ";
      stuck << p->name();
    }
  }
  if (n > 0) {
    throw DeadlockError("simulation deadlock: " + std::to_string(n) +
                        " process(es) blocked forever: " + stuck.str());
  }
}

}  // namespace dcfa::sim
