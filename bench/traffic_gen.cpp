// Heavy-traffic scenario harness (src/mpi/traffic.hpp, docs/benchmarks.md).
//
// Runs the named workload scenarios — production-shaped size mixes, bursty
// collective storms on overlapping communicators, stragglers, fault soak —
// and reports per-phase sustained message rate, aggregate bandwidth and
// p50/p99 completion latency, plus the engine and fault-injector counters
// and the host-work counters (simulator events, endpoint polls).
// Everything is seeded and virtual-time deterministic, so the emitted
// BENCH_traffic_gen.json is exact and scripts/bench_trajectory.py can gate
// regressions against the committed baseline.
//
//   traffic_gen [--quick] [--scenario NAME] [--nprocs N] [--seed S]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mpi/traffic.hpp"

using namespace dcfa;
namespace traffic = mpi::traffic;

namespace {

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::string fmt(double v, const char* spec) {
  char buf[48];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

std::uint64_t sum_phase(const traffic::ScenarioResult& res,
                        std::uint64_t mpi::Engine::Stats::* field) {
  std::uint64_t total = 0;
  for (const traffic::PhaseMetrics& m : res.phases) total += m.stats.*field;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const char* only = arg_value(argc, argv, "--scenario");
  const char* np = arg_value(argc, argv, "--nprocs");
  const char* seed_arg = arg_value(argc, argv, "--seed");
  const int nprocs = np != nullptr ? std::atoi(np) : 8;
  const std::uint64_t seed =
      seed_arg != nullptr ? std::strtoull(seed_arg, nullptr, 10) : 1;

  bench::banner("Traffic generator",
                "mixed heavy-traffic scenarios on the DCFA-MPI stack");
  bench::claim("the direct path sustains production-shaped traffic — mixed "
               "sizes, bursts, overlapping communicators, stragglers, "
               "faults — not just single-pattern sweeps");

  bench::JsonReport rep("traffic_gen", argc, argv);
  rep.config("nprocs", static_cast<double>(nprocs));
  rep.config("seed", static_cast<double>(seed));

  std::vector<std::string> names = traffic::scenario_names();
  if (only != nullptr) names = {only};

  for (const std::string& name : names) {
    const traffic::Scenario sc =
        traffic::make_scenario(name, nprocs, seed, quick);
    const traffic::ScenarioResult res = traffic::run_scenario(sc);

    std::printf("\n--- %s (nprocs=%d seed=%llu digest=%016llx", name.c_str(),
                nprocs, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(res.digest));
    if (!sc.fault_spec.empty()) {
      std::printf(" faults=\"%s\"", sc.fault_spec.c_str());
    }
    std::printf(") ---\n");

    bench::Table table({"phase", "msgs", "MB", "msg/s", "GB/s", "p50 us",
                        "p99 us", "retx"});
    for (const traffic::PhaseMetrics& m : res.phases) {
      table.add_row({m.phase, std::to_string(m.msgs_recv),
                     fmt(static_cast<double>(m.bytes_recv) / 1e6, "%.2f"),
                     fmt(m.msg_rate, "%.0f"), fmt(m.gbps, "%.3f"),
                     fmt(m.p50_us, "%.1f"), fmt(m.p99_us, "%.1f"),
                     std::to_string(m.stats.retransmits)});
      rep.metric(name, m.phase + "/msg_rate", m.msg_rate, "msg/s");
      rep.metric(name, m.phase + "/gbps", m.gbps, "GB/s");
      rep.metric(name, m.phase + "/p50_us", m.p50_us, "us");
      rep.metric(name, m.phase + "/p99_us", m.p99_us, "us");
    }
    table.print();

    std::printf("run: %.1f ms virtual, %llu check events, "
                "%lld leaked allocations\n",
                sim::to_us(res.elapsed) / 1000.0,
                static_cast<unsigned long long>(res.check_events),
                static_cast<long long>(res.leaked_allocations));
    if (!sc.fault_spec.empty()) {
      std::printf("injected: wc_drop=%llu wc_err=%llu compute=%llu "
                  "crashes=%llu | recovered: retx=%llu retries=%llu "
                  "failover=%llu reconnect=%llu\n",
                  static_cast<unsigned long long>(res.injected.wc_dropped),
                  static_cast<unsigned long long>(res.injected.wc_errored),
                  static_cast<unsigned long long>(
                      res.injected.compute_delayed),
                  static_cast<unsigned long long>(
                      res.injected.delegate_crashes),
                  static_cast<unsigned long long>(
                      sum_phase(res, &mpi::Engine::Stats::retransmits)),
                  static_cast<unsigned long long>(
                      sum_phase(res, &mpi::Engine::Stats::data_op_retries)),
                  static_cast<unsigned long long>(
                      sum_phase(res, &mpi::Engine::Stats::proxy_failovers)),
                  static_cast<unsigned long long>(
                      sum_phase(res, &mpi::Engine::Stats::reconnects)));
    }
    if (sc.ft_shrink) {
      std::printf("survivors: %d/%d, failure detection latency %.1f us "
                  "(max over survivors)\n",
                  res.survivors, sc.nprocs,
                  static_cast<double>(res.failure_detect_max_ns) / 1000.0);
      rep.metric(name, "survivors", static_cast<double>(res.survivors),
                 "ranks");
      rep.metric(name, "failure_detect_us",
                 static_cast<double>(res.failure_detect_max_ns) / 1000.0,
                 "us");
    }
    rep.metric(name, "elapsed_ms", sim::to_us(res.elapsed) / 1000.0, "ms");
    // Deterministic host-work counters: they gate simulator cost exactly,
    // where wall-clock time could only be recorded.
    rep.metric(name, "events", static_cast<double>(res.events), "count");
    rep.metric(name, "endpoint_polls",
               static_cast<double>(res.totals.endpoint_polls), "count");
    rep.metric(name, "ctx_switches", static_cast<double>(res.ctx_switches),
               "count");
    // Reliability mechanism counters, gated exactly like the host work.
    rep.metric(name, "credits_sent",
               static_cast<double>(res.totals.credits_sent), "count");
    rep.metric(name, "credits_piggybacked",
               static_cast<double>(res.totals.credits_piggybacked), "count");
    rep.metric(name, "retransmits",
               static_cast<double>(res.totals.retransmits), "count");
  }

  std::printf("\n(All numbers are virtual time from the deterministic "
              "simulator: same seed => identical output on any machine. "
              "Baseline gating: scripts/bench_trajectory.py --check.)\n");
  return 0;
}
