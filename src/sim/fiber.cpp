#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

// Sanitizer detection. Neither sanitizer follows a bare stack switch, so
// every switch below is annotated: ASan through the
// __sanitizer_*_switch_fiber protocol (foreign stacks and fake stacks), TSan
// through __tsan_*_fiber (one TSan context per fiber). TSan switches pass
// flags 0, so each run-token hand-off is a happens-before edge between the
// engine and the fiber it resumes.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCFA_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define DCFA_FIBER_TSAN 1
#endif
#endif
#if !defined(DCFA_FIBER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define DCFA_FIBER_ASAN 1
#endif
#if !defined(DCFA_FIBER_TSAN) && defined(__SANITIZE_THREAD__)
#define DCFA_FIBER_TSAN 1
#endif

#ifdef DCFA_FIBER_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

#ifdef DCFA_FIBER_TSAN
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if !defined(__x86_64__) || !defined(__ELF__)
#error "sim::Fiber's context switch is written for x86-64 System V (ELF) only; add this target's switch routine beside it in fiber.cpp"
#endif

// dcfa_fiber_switch(save_sp, load_sp): push what the System V ABI makes a
// call preserve (rbx, rbp, r12-r15, the MXCSR control bits, the x87
// control word), store rsp through save_sp, adopt load_sp and pop the same
// layout from there. Every other register is caller-saved, so the compiler
// already treats it as clobbered by the call. The signal mask is not part
// of the context: nothing in the simulator changes it.
extern "C" void dcfa_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .globl dcfa_fiber_switch
  .hidden dcfa_fiber_switch
  .type dcfa_fiber_switch, @function
  .p2align 4
dcfa_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dcfa_fiber_switch, .-dcfa_fiber_switch
  .popsection
)");

namespace dcfa::sim {

namespace {

// What the first switch into a fiber pops, lowest address first: the
// control words and callee-saved registers dcfa_fiber_switch restores, the
// address it "returns" to, and a null return address above that which ends
// any unwind walking up out of the trampoline.
struct InitialFrame {
  std::uint32_t mxcsr = 0x1F80;   // all exceptions masked, round to nearest
  std::uint16_t x87_cw = 0x037F;  // likewise, 64-bit precision
  std::uint16_t pad = 0;
  std::uint64_t r15 = 0, r14 = 0, r13 = 0, r12 = 0, rbx = 0, rbp = 0;
  void (*entry)() = nullptr;
  std::uint64_t end_of_stack = 0;
};
static_assert(sizeof(InitialFrame) == 72);

// The trampoline takes no argument; the fiber being entered parks itself
// here just before the switch, on the same thread that will run it.
thread_local Fiber* tl_entering = nullptr;

std::size_t page_size() {
  static const std::size_t p = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return p;
}

}  // namespace

std::string SchedConfig::schedule_token() const {
  if (order != Order::Explore) return {};
  char buf[32];
  std::snprintf(buf, sizeof buf, "x1:%llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

SchedConfig SchedConfig::from_token(const std::string& token) {
  SchedConfig cfg;
  if (token.rfind("x1:", 0) != 0 || token.size() <= 3) {
    throw std::invalid_argument(
        "DCFA_SIM_SCHEDULE: expected a replay token 'x1:<hex seed>', got '" +
        token + "'");
  }
  std::size_t used = 0;
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(token.substr(3), &used, 16);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != token.size() - 3) {
    throw std::invalid_argument(
        "DCFA_SIM_SCHEDULE: bad seed digits in token '" + token + "'");
  }
  cfg.order = Order::Explore;
  cfg.seed = seed;
  return cfg;
}

SchedConfig SchedConfig::from_env() {
  SchedConfig cfg;
  if (const char* e = std::getenv("DCFA_SIM_SCHED")) {
    if (std::strcmp(e, "explore") == 0) {
      cfg.order = Order::Explore;
    } else if (std::strcmp(e, "fiber") != 0) {
      throw std::invalid_argument(
          std::string("DCFA_SIM_SCHED: expected 'fiber' or 'explore', got '") +
          e + "'");
    }
  }
  if (const char* e = std::getenv("DCFA_SIM_SEED")) {
    char* end = nullptr;
    const unsigned long long s = std::strtoull(e, &end, 10);
    if (end == e || *end != '\0') {
      throw std::invalid_argument("DCFA_SIM_SEED: not a decimal integer");
    }
    cfg.seed = static_cast<std::uint64_t>(s);
  }
  if (const char* e = std::getenv("DCFA_SIM_SCHEDULE")) {
    // A replay token pins both the policy and the seed; it wins over
    // DCFA_SIM_SCHED/DCFA_SIM_SEED so "export the printed token and rerun"
    // needs no other environment surgery.
    const SchedConfig replay = from_token(e);
    cfg.order = replay.order;
    cfg.seed = replay.seed;
  }
  if (const char* e = std::getenv("DCFA_SIM_STACK_KB")) {
    char* end = nullptr;
    const long kb = std::strtol(e, &end, 10);
    if (end == e || *end != '\0') {
      throw std::invalid_argument("DCFA_SIM_STACK_KB: not a decimal integer");
    }
    if (kb < 16 || kb > 1048576) {
      throw std::invalid_argument("DCFA_SIM_STACK_KB: out of range [16, 2^20]");
    }
    cfg.stack_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  return cfg;
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  const std::size_t page = page_size();
  stack_size_ = (stack_bytes + page - 1) / page * page;
  map_bytes_ = stack_size_ + page;
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw std::runtime_error("Fiber: stack mmap failed");
  }
  // Stacks grow down; an overflow hits the PROT_NONE page and faults
  // instead of silently corrupting the neighbouring fiber's stack.
  if (mprotect(map_, page, PROT_NONE) != 0) {
    munmap(map_, map_bytes_);
    map_ = nullptr;
    throw std::runtime_error("Fiber: guard-page mprotect failed");
  }
  stack_base_ = static_cast<char*>(map_) + page;
#ifdef DCFA_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef DCFA_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

void Fiber::trampoline() {
  Fiber* f = tl_entering;
  tl_entering = nullptr;
  f->enter();
}

void Fiber::enter() {
#ifdef DCFA_FIBER_ASAN
  // First entry: no fake stack of our own to restore yet; record the
  // resumer's stack so yield()/exit can switch back to it.
  __sanitizer_finish_switch_fiber(nullptr, &from_stack_bottom_,
                                  &from_stack_size_);
#endif
  body_();
  done_ = true;
#ifdef DCFA_FIBER_ASAN
  // Final exit: nullptr tells ASan this stack is dying (its fake-stack
  // frames are released instead of saved).
  __sanitizer_start_switch_fiber(nullptr, from_stack_bottom_,
                                 from_stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  // Leave by switching straight back into resume() rather than returning:
  // under TSan the epilogues of enter() and trampoline() would run after the
  // switch above and pop the resumer's shadow stack. A done fiber is never
  // resumed, so this switch does not come back.
  dcfa_fiber_switch(&sp_, return_sp_);
  std::abort();
}

void Fiber::resume() {
  if (done_) return;
  if (!started_) {
    started_ = true;
    // The stack top is page-aligned, so the trampoline starts with
    // rsp = top - 8: the alignment a call instruction leaves.
    char* top = static_cast<char*>(stack_base_) + stack_size_;
    auto* frame = new (top - sizeof(InitialFrame)) InitialFrame{};
    frame->entry = &Fiber::trampoline;
    sp_ = frame;
    tl_entering = this;
  }
#ifdef DCFA_FIBER_ASAN
  __sanitizer_start_switch_fiber(&resumer_fake_stack_, stack_base_,
                                 stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  dcfa_fiber_switch(&return_sp_, sp_);
#ifdef DCFA_FIBER_ASAN
  __sanitizer_finish_switch_fiber(resumer_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#ifdef DCFA_FIBER_ASAN
  __sanitizer_start_switch_fiber(&own_fake_stack_, from_stack_bottom_,
                                 from_stack_size_);
#endif
#ifdef DCFA_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  dcfa_fiber_switch(&sp_, return_sp_);
#ifdef DCFA_FIBER_ASAN
  // Re-record the resumer's stack on every entry: it is always the engine
  // thread, but recording what finish reports is what the protocol asks.
  __sanitizer_finish_switch_fiber(own_fake_stack_, &from_stack_bottom_,
                                  &from_stack_size_);
#endif
}

}  // namespace dcfa::sim
