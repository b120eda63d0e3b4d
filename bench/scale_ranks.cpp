// Scale-regression bench (docs/simulator.md, tests/test_scale.cpp).
//
// The fiber scheduler's whole point is that rank count is no longer bounded
// by OS threads: this harness runs the thousand-rank configurations CI must
// keep fast — an allreduce sweep up to 1024 ranks and a 4096-rank steady_p2p
// smoke — on scale_run_config() (HostMpi, lazy endpoints, small rings).
//
// Emitted BENCH_scale_ranks.json separates the two kinds of numbers:
//   * metric() rows are virtual-time results (elapsed ms, message counts)
//     and host-work counters (simulator events, endpoint polls, MR
//     registrations) — deterministic, gated by bench_trajectory.py.
//   * config() rows are host measurements (wall-clock ms, peak RSS MiB per
//     sweep point) — machine-dependent, recorded for trending but never
//     gated.
//
//   scale_ranks [--quick] [--seed S]

#include <sys/resource.h>

#include <chrono>
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

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Pure allreduce load for the rank sweep: payload under the scale config's
/// eager ceiling, a couple of rounds with a concurrent burst. Collectives
/// are the worst case for lazy endpoints (every rank participates), so this
/// is the number that regresses first if engine progress stops being
/// O(active endpoints).
traffic::Scenario allreduce_scenario(int nprocs, std::uint64_t seed,
                                     bool quick) {
  traffic::Scenario sc;
  sc.name = "scale_allreduce";
  sc.nprocs = nprocs;
  sc.seed = seed;
  sc.phases.push_back({.name = "allreduce",
                       .kind = traffic::PhaseKind::Allreduce,
                       .sizes = traffic::SizeDist::fixed(512),
                       .rounds = quick ? 2 : 3,
                       .burst = 2});
  return sc;
}

std::uint64_t total_msgs(const traffic::ScenarioResult& res) {
  std::uint64_t n = 0;
  for (const traffic::PhaseMetrics& m : res.phases) n += m.msgs_recv;
  return n;
}

/// Deterministic host-work counters, gated exactly like the virtual-time
/// rows: what the simulator did, independent of how fast the host ran it.
void report_work(bench::JsonReport& rep, const std::string& label,
                 const traffic::ScenarioResult& res) {
  rep.metric(label, "events", static_cast<double>(res.events), "count");
  rep.metric(label, "endpoint_polls",
             static_cast<double>(res.totals.endpoint_polls), "count");
  rep.metric(label, "ctx_switches", static_cast<double>(res.ctx_switches),
             "count");
  rep.metric(label, "mr_regs", static_cast<double>(res.mr_regs), "count");
}

std::string hex_digest(std::uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const char* seed_arg = arg_value(argc, argv, "--seed");
  const std::uint64_t seed =
      seed_arg != nullptr ? std::strtoull(seed_arg, nullptr, 10) : 1;

  bench::banner("Rank scaling",
                "thousand-rank scenarios on the fiber scheduler");
  bench::claim("fiber-multiplexed ranks + lazy endpoints keep 1024-rank "
               "collectives and a 4096-rank P2P smoke inside a CI wall-clock "
               "budget, with memory that scales with endpoints actually "
               "used, not the full N^2 mesh");

  bench::JsonReport rep("scale_ranks", argc, argv);
  rep.config("seed", static_cast<double>(seed));

  bench::Table table(
      {"scenario", "ranks", "virt ms", "msgs", "wall ms", "rss MiB"});

  // --- Allreduce rank sweep --------------------------------------------------
  const std::vector<int> sweep = {64, 256, 1024};
  for (int nranks : sweep) {
    const traffic::Scenario sc = allreduce_scenario(nranks, seed, quick);
    const mpi::RunConfig cfg = traffic::scale_run_config(nranks);
    const Clock::time_point t0 = Clock::now();
    const traffic::ScenarioResult res = traffic::run_scenario(sc, cfg);
    const double wall = ms_since(t0);
    const double virt = sim::to_us(res.elapsed) / 1000.0;
    const std::string label = "allreduce/" + std::to_string(nranks);

    table.add_row({"allreduce", std::to_string(nranks),
                   std::to_string(virt), std::to_string(total_msgs(res)),
                   std::to_string(wall), std::to_string(peak_rss_mib())});
    rep.metric(label, "elapsed_ms", virt, "ms");
    rep.metric(label, "msgs",
               static_cast<double>(total_msgs(res)), "msgs");
    report_work(rep, label, res);
    rep.config(label + "/digest", hex_digest(res.digest));
    rep.config(label + "/wall_ms", wall);
    rep.config(label + "/peak_rss_mib", peak_rss_mib());
  }

  // --- 4096-rank steady_p2p smoke --------------------------------------------
  // Always the quick shape: the point is "does a 4096-rank cluster spin up,
  // route point-to-point traffic over lazily-established endpoints, and tear
  // down inside the budget", not throughput.
  {
    const int nranks = 4096;
    const traffic::Scenario sc =
        traffic::make_scenario("steady_p2p", nranks, seed, /*quick=*/true);
    const mpi::RunConfig cfg = traffic::scale_run_config(nranks);
    const Clock::time_point t0 = Clock::now();
    const traffic::ScenarioResult res = traffic::run_scenario(sc, cfg);
    const double wall = ms_since(t0);
    const double virt = sim::to_us(res.elapsed) / 1000.0;
    const std::string label = "steady_p2p/" + std::to_string(nranks);

    table.add_row({"steady_p2p", std::to_string(nranks),
                   std::to_string(virt), std::to_string(total_msgs(res)),
                   std::to_string(wall), std::to_string(peak_rss_mib())});
    rep.metric(label, "elapsed_ms", virt, "ms");
    rep.metric(label, "msgs",
               static_cast<double>(total_msgs(res)), "msgs");
    report_work(rep, label, res);
    rep.config(label + "/digest", hex_digest(res.digest));
    rep.config(label + "/wall_ms", wall);
    rep.config(label + "/peak_rss_mib", peak_rss_mib());
  }

  table.print();
  std::printf("\n(virt/msgs/digest are deterministic simulator outputs and "
              "gated by scripts/bench_trajectory.py; wall ms and RSS are "
              "host measurements recorded as config, never gated.)\n");
  return 0;
}
