// Unit tests for the discrete-event core: event ordering, process
// scheduling, conditions, resources, deterministic RNG, time formatting,
// scheduler configuration from the environment.

#include <gtest/gtest.h>

#include <cstdlib>
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
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  } catch (const DeadlockError&) {
    FAIL() << "deadlock masked the real error";
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
