// Unit tests for the discrete-event core: event ordering, process
// scheduling, conditions, resources, deterministic RNG, time formatting,
// scheduler configuration from the environment.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

using namespace dcfa::sim;

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
}

TEST(Time, TransferTimeMatchesBandwidth) {
  // 1 GB/s == 1 byte/ns.
  EXPECT_EQ(transfer_time(1000, 1.0), 1000);
  EXPECT_EQ(transfer_time(6000, 6.0), 1000);
  EXPECT_EQ(transfer_time(0, 6.0), 0);
  // Sub-nanosecond transfers round up to 1ns, never 0.
  EXPECT_EQ(transfer_time(1, 100.0), 1);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(microseconds(13.2)), "13.20us");
  EXPECT_EQ(format_time(milliseconds(2)), "2.00ms");
  EXPECT_EQ(format_time(seconds(1.5)), "1.500s");
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(100, [] {});
  engine.run();
  EXPECT_EQ(engine.now(), 100);
  EXPECT_THROW(engine.schedule_at(50, [] {}), std::logic_error);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] {
    engine.schedule_after(5, [&] { fired = 1; });
  });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 15);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int count = 0;
  engine.schedule_at(10, [&] { ++count; });
  engine.schedule_at(20, [&] { ++count; });
  engine.schedule_at(30, [&] { ++count; });
  engine.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.now(), 20);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Process, WaitAdvancesVirtualTime) {
  Engine engine;
  Time observed = -1;
  engine.spawn("p", [&](Process& p) {
    p.wait(microseconds(5));
    p.wait(microseconds(7));
    observed = p.now();
  });
  engine.run();
  EXPECT_EQ(observed, microseconds(12));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::pair<char, Time>> log;
  engine.spawn("a", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      log.push_back({'a', p.now()});
      p.wait(10);
    }
  });
  engine.spawn("b", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      log.push_back({'b', p.now()});
      p.wait(15);
    }
  });
  engine.run();
  const std::vector<std::pair<char, Time>> expected = {
      {'a', 0},  {'b', 0},  {'a', 10}, {'b', 15},
      {'a', 20}, {'b', 30},
  };
  EXPECT_EQ(log, expected);
}

TEST(Process, ConditionWakesAllWaiters) {
  Engine engine;
  Condition cond(engine, "c");
  int woken = 0;
  bool ready = false;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("w" + std::to_string(i), [&](Process& p) {
      while (!ready) p.wait_on(cond);
      ++woken;
    });
  }
  engine.spawn("notifier", [&](Process& p) {
    p.wait(100);
    ready = true;
    cond.notify_all();
  });
  engine.run();
  EXPECT_EQ(woken, 4);
}

TEST(Process, SpuriousWakeupsAreHandledByPredicateLoops) {
  Engine engine;
  Condition cond(engine, "c");
  bool ready = false;
  int wakeups = 0;
  engine.spawn("waiter", [&](Process& p) {
    while (!ready) {
      p.wait_on(cond);
      ++wakeups;
    }
  });
  engine.spawn("noise", [&](Process& p) {
    p.wait(10);
    cond.notify_all();  // spurious: predicate still false
    p.wait(10);
    ready = true;
    cond.notify_all();
  });
  engine.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(Process, DeadlockIsDetectedAndNamed) {
  Engine engine;
  Condition never(engine, "never");
  engine.spawn("stuck_one", [&](Process& p) {
    while (true) p.wait_on(never);
  });
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck_one"), std::string::npos);
  }
}

TEST(Process, ExceptionInBodyPropagatesFromRun) {
  Engine engine;
  engine.spawn("thrower", [&](Process& p) {
    p.wait(5);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Process, ExceptionBeatsDeadlockReport) {
  // A dead process usually strands its peers; the root cause must surface.
  Engine engine;
  Condition never(engine, "never");
  engine.spawn("stuck", [&](Process& p) {
    while (true) p.wait_on(never);
  });
  engine.spawn("thrower", [&](Process&) {
    throw std::runtime_error("root cause");
  });
  try {
    engine.run();
    FAIL() << "expected exception";
  } catch (const DeadlockError&) {
    FAIL() << "deadlock masked the real error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(Process, ManyProcessesAllFinish) {
  Engine engine;
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    engine.spawn("p" + std::to_string(i), [&, i](Process& p) {
      p.wait(i * 3 + 1);
      ++done;
    });
  }
  engine.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(engine.live_processes(), 0u);
}

TEST(Engine, DeterministicEventCountAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    Condition cond(engine, "c");
    bool flag = false;
    engine.spawn("a", [&](Process& p) {
      p.wait(7);
      flag = true;
      cond.notify_all();
    });
    engine.spawn("b", [&](Process& p) {
      while (!flag) p.wait_on(cond);
      p.wait(3);
    });
    engine.run();
    return std::pair(engine.now(), engine.events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Fiber context switch: what a switch must carry across a yield --------

namespace {

struct Churned {
  std::uint64_t ints = 0;
  double doubles = 0;
  bool operator==(const Churned&) const = default;
};

/// Keeps eight integers and four doubles live across every `yield()`, so at
/// -O2 the integers sit in callee-saved registers the switch must restore
/// (the doubles are spilled: no xmm register survives a call).
template <class Yield>
Churned churn(std::uint64_t seed, int rounds, Yield yield) {
  std::uint64_t a = seed, b = seed * 3, c = seed * 5, d = seed * 7;
  std::uint64_t e = seed * 11, f = seed * 13, g = seed * 17, h = seed * 19;
  double w = static_cast<double>(seed), x = w * 0.5, y = w * 0.25, z = 1.0;
  for (int i = 0; i < rounds; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    a += b ^ u;
    b = (b << 7 | b >> 57) + c;
    c ^= d + u;
    d += e * 3;
    e ^= f >> 3;
    f += g ^ a;
    g = (g << 13 | g >> 51) ^ h;
    h += a + u;
    w = w * 0.75 + x;
    x = x * 0.5 + y + 1.0;
    y = y * 0.25 + z;
    z = z * 0.125 + 2.0;
    yield();
  }
  return {a ^ b ^ c ^ d ^ e ^ f ^ g ^ h, w + x + y + z};
}

/// Hides an address from the optimizer, so an alignment check on it is
/// evaluated at run time rather than folded from the declared alignment.
std::uintptr_t opaque_address(const void* p) {
  asm volatile("" : "+r"(p));
  return reinterpret_cast<std::uintptr_t>(p);
}

}  // namespace

TEST(Fiber, CalleeSavedStateSurvivesInterleavedYields) {
  // Driven through Fiber directly, so the frames holding the live values
  // call straight into the switch and no frame in between saves them.
  constexpr int kRounds = 5000;
  Churned got[2];
  std::unique_ptr<Fiber> fibers[2];
  for (int k = 0; k < 2; ++k) {
    fibers[k] = std::make_unique<Fiber>(
        [&got, &fibers, k] {
          got[k] = churn(100 + k, kRounds, [&] { fibers[k]->yield(); });
        },
        64 * 1024);
  }
  // The resumer keeps its own values live across every resume, too.
  const Churned resumer = churn(7, kRounds + 1, [&] {
    for (auto& f : fibers) f->resume();
  });
  EXPECT_EQ(resumer, churn(7, kRounds + 1, [] {}));
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(fibers[k]->done());
    EXPECT_EQ(got[k], churn(100 + k, kRounds, [] {})) << "fiber " << k;
  }
}

TEST(Fiber, RoundingModeIsPerContext) {
  // One third is inexact: rounding up lands one ulp above the nearest.
  volatile double one = 1.0, three = 3.0;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one / three;
  int fiber_ok = 0, nearest_ok = 0;
  constexpr int kYields = 200;
  Engine engine;
  engine.spawn("upward", [&](Process& p) {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < kYields; ++i) {
      p.wait(1);
      // fegetround reads the x87 control word; the division uses MXCSR.
      if (std::fegetround() == FE_UPWARD && one / three > nearest) ++fiber_ok;
    }
  });
  // A second fiber and the engine's own events must stay on the default.
  engine.spawn("observer", [&](Process& p) {
    for (int i = 0; i < kYields; ++i) {
      p.wait(1);
      if (std::fegetround() == FE_TONEAREST && one / three == nearest) {
        ++nearest_ok;
      }
    }
  });
  for (Time t = 1; t <= kYields; ++t) {
    engine.schedule_at(t, [&] {
      if (std::fegetround() == FE_TONEAREST && one / three == nearest) {
        ++nearest_ok;
      }
    });
  }
  engine.run();
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(fiber_ok, kYields);
  EXPECT_EQ(nearest_ok, 2 * kYields);
}

TEST(Fiber, StackIsAbiAlignedOnEntryAndAfterYields) {
  int misaligned = 0, checks = 0;
  Fiber* self = nullptr;
  Fiber fiber(
      [&] {
        alignas(16) double pair[2] = {1.0, 2.0};
        for (int i = 0; i < 100; ++i) {
          ++checks;
          if (opaque_address(pair) % 16 != 0) ++misaligned;
          self->yield();
        }
      },
      64 * 1024);
  self = &fiber;
  while (!fiber.done()) fiber.resume();
  EXPECT_EQ(checks, 100);
  EXPECT_EQ(misaligned, 0);
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossAYield) {
  // Both fibers park inside their try blocks, then each throws through a
  // frame with live locals and catches the exception it threw. No fiber
  // yields inside a handler: the runtime's caught-exception stack is per
  // thread, and a switch does not swap it (docs/simulator.md).
  std::vector<std::string> caught;
  Engine engine;
  for (int k = 0; k < 2; ++k) {
    engine.spawn("thrower" + std::to_string(k), [&caught, k](Process& p) {
      const std::string tag = "from fiber " + std::to_string(k);
      std::string what;
      try {
        [&] {
          std::vector<int> frame_local(64, k);
          p.wait(1);
          throw std::runtime_error(tag);
        }();
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      p.wait(1);
      caught.push_back(what);
    });
  }
  engine.run();
  EXPECT_EQ(caught,
            (std::vector<std::string>{"from fiber 0", "from fiber 1"}));
}

TEST(Fiber, ParkedFiberUnwindsWhenItsEngineDies) {
  struct Guard {
    int& destroyed;
    ~Guard() { ++destroyed; }
  };
  int destroyed = 0;
  {
    Engine engine;
    Condition never(engine, "never");
    engine.spawn("parked", [&](Process& p) {
      Guard outer{destroyed};
      p.wait(1);
      Guard inner{destroyed};
      while (true) p.wait_on(never);
    });
    engine.run_until(10);
    EXPECT_EQ(engine.live_processes(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(Engine, SwitchesCountFiberResumes) {
  Engine engine;
  engine.spawn("a", [](Process& p) {
    for (int i = 0; i < 3; ++i) p.wait(1);
  });
  engine.schedule_at(1, [] {});
  engine.run();
  // The first entry plus one resume per wait.
  EXPECT_EQ(engine.switches(), 4u);
}

namespace {

/// RAII env override (restores the previous value on scope exit).
class EnvGuard {
 public:
  EnvGuard(const char* key, const char* value) : key_(key) {
    const char* old = std::getenv(key);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(key, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(key_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(key_.c_str());
    }
  }

 private:
  std::string key_, old_;
  bool had_old_;
};

}  // namespace

TEST(SchedConfig, FromEnvRejectsUnknownSchedAndMalformedStack) {
  {
    EnvGuard sched("DCFA_SIM_SCHED", "fiber");
    EXPECT_NO_THROW(SchedConfig::from_env());
  }
  {
    // The message names the accepted values.
    EnvGuard sched("DCFA_SIM_SCHED", "thread");
    try {
      SchedConfig::from_env();
      ADD_FAILURE() << "DCFA_SIM_SCHED=thread accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'fiber' or 'explore'"),
                std::string::npos)
          << e.what();
    }
  }
  {
    EnvGuard stack("DCFA_SIM_STACK_KB", "512x");
    EXPECT_THROW(SchedConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard stack("DCFA_SIM_STACK_KB", "64");
    EXPECT_EQ(SchedConfig::from_env().stack_bytes, 65536u);
  }
}

TEST(Resource, FifoBooking) {
  Resource r("r");
  EXPECT_EQ(r.acquire(0, 10), 10);
  EXPECT_EQ(r.acquire(0, 10), 20);   // queues behind the first booking
  EXPECT_EQ(r.acquire(50, 10), 60);  // idle gap honoured
  EXPECT_EQ(r.free_at(), 60);
  EXPECT_EQ(r.busy_total(), 30);
}

TEST(Rng, DeterministicAndRangeRespecting) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}
