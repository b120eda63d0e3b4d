// End-to-end benchmark driver (README.md).
//
//   dcfa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--revision REV] [--trace-out FILE]
//
// Repeats whole-cluster iterations of one workload for S host seconds and
// prints, as the last stdout line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// Host metrics are medians over iterations; virtual-time metrics must repeat
// exactly in every iteration, and any drift, payload mismatch or broken
// model invariant makes the run incorrect (exit 1).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Ctor: return "setup.ctor";
    case Kind::Init: return "setup.init";
    case Kind::Traffic: return "traffic";
    case Kind::Teardown: return "teardown";
    case Kind::Send: return "send";
    case Kind::Recv: return "recv";
    case Kind::Msg: return "msg";
    case Kind::Rtt: return "rtt_4b";
    case Kind::Alltoall: return "alltoall";
    case Kind::Iallreduce: return "iallreduce";
    case Kind::Wait: return "waitany";
    case Kind::RegMr: return "reg_mr";
  }
  return "?";
}

const char* kind_layer(Kind k) {
  switch (k) {
    case Kind::Ctor:
    case Kind::Init:
    case Kind::Teardown: return "setup";
    case Kind::Traffic: return "bench";
    case Kind::Send:
    case Kind::Recv:
    case Kind::Msg:
    case Kind::Rtt: return "p2p";
    case Kind::Alltoall:
    case Kind::Iallreduce: return "coll";
    case Kind::Wait: return "mpi";
    case Kind::RegMr: return "dcfa";
  }
  return "?";
}

}  // namespace perfbench

using namespace perfbench;
namespace sim = dcfa::sim;

namespace {

using Clock = std::chrono::steady_clock;

/// Sub-seeds of the set-up pass: each runs one set-up-only iteration, and
/// set-up figures take every one of them once.
constexpr std::size_t kSetupSubseeds = 32;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string revision = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: dcfa_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--revision REV] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (flag == "--revision") {
      a.revision = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.trace < 0 || a.seconds <= 0) {
    usage("--workload, --seconds and --trace are required");
  }
  return a;
}

/// The numbers depend on the build and on the simulator's environment knobs;
/// refuse to time anything but the pinned configuration.
void require_pinned_config() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  bool bad_build = type != "Release";
#ifndef NDEBUG
  bad_build = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  bad_build = true;
#endif
  if (bad_build) {
    std::fprintf(stderr, "perfbench: refusing to time a %s/debug/sanitizer "
                         "build\n", type.c_str());
    std::exit(2);
  }
  auto env_is = [](const char* k, const char* want) {
    const char* v = std::getenv(k);
    return v != nullptr && std::strcmp(v, want) == 0;
  };
  if (!env_is("DCFA_CHECK", "cheap") || !env_is("DCFA_SIM_SCHED", "fiber")) {
    std::fprintf(stderr, "perfbench: needs DCFA_CHECK=cheap and "
                         "DCFA_SIM_SCHED=fiber (run through run.py)\n");
    std::exit(2);
  }
  // Every other knob (DCFA_SIM_THREADS/_STACK_KB/_LOG, DCFA_COLL_*, ...)
  // must be unset.
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("DCFA_", 0) != 0 || kv.rfind("DCFA_CHECK=", 0) == 0 ||
        kv.rfind("DCFA_SIM_SCHED=", 0) == 0) {
      continue;
    }
    std::fprintf(stderr, "perfbench: %s must be unset\n",
                 kv.substr(0, kv.find('=')).c_str());
    std::exit(2);
  }
}

/// Mean of the middle half of `v`: robust to one sub-seed's outlier, and
/// smooth where per-sub-seed values fall into a few modes (the fault run's
/// crash recovery) and a median would flip between them.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - lo;
  return std::accumulate(v.begin() + lo, v.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host figure of a run: each sub-seed's median, averaged over sub-seeds, so
/// every sub-seed weighs the same however many iterations the host's speed
/// fitted into the budget.
double mean_of_medians(const std::vector<std::vector<double>>& by_subseed) {
  std::vector<double> medians;
  for (const std::vector<double>& v : by_subseed) medians.push_back(median(v));
  return mean(medians);
}

/// Nearest-rank percentile of an ascending-sorted sample.
double pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1];
}

/// Host seconds are reported in reference seconds: scaled to the machine
/// speed at which calibrate() takes this long.
constexpr double kCalibrationRefS = 0.035;
/// Keeps calibrate()'s work observable so it cannot be optimised away.
volatile std::uint64_t calibration_sink = 0;

/// Machine-speed probe. Cores, caches and memory bandwidth are shared with
/// other tenants, and the host's speed drifts by 10-20% over tens of seconds
/// (more than any host-time bound could absorb). This fixed kernel, which
/// shares no code with the simulator, mimics its access mix — a dependent
/// walk over 8 MiB and heap operations, like the event queue and the
/// engines' maps — and is timed between iterations; each iteration's host
/// times are scaled by kCalibrationRefS over the mean of the probes on
/// either side. A simulator speed-up leaves the probe unchanged and so
/// shows in full.
double calibrate() {
  static std::vector<std::uint32_t> next;
  constexpr std::uint32_t kWords = 1u << 21;
  if (next.empty()) {
    next.resize(kWords);
    std::iota(next.begin(), next.end(), 0u);
    std::uint64_t x = 7;
    for (std::uint32_t i = kWords - 1; i > 0; --i) {
      x = splitmix(x);
      std::swap(next[i], next[x % (i + 1)]);
    }
  }
  const Clock::time_point t0 = Clock::now();
  std::uint64_t acc = 0;
  std::uint32_t at = 0;
  for (int i = 0; i < 200000; ++i) {
    at = next[at];
    acc += at;
  }
  std::priority_queue<std::uint64_t> heap;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    heap.push(splitmix(i ^ acc));
    if (heap.size() > 1024) heap.pop();
  }
  acc += heap.top();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  calibration_sink = acc;
  return s;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool is_op(Kind k) {
  return k == Kind::Msg || k == Kind::Alltoall || k == Kind::Iallreduce;
}

/// Sorted virtual durations (us) of the spans `keep` selects.
template <class Pred>
std::vector<double> latencies(const IterResult& r, Pred keep) {
  std::vector<double> v;
  for (const Span& s : r.spans) {
    if (keep(s)) v.push_back(sim::to_us(s.v1 - s.v0));
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// Digest of every virtual-time figure an iteration produced: the oracle
/// that same seed => same virtual results.
std::uint64_t virt_digest(const IterResult& r) {
  std::uint64_t h = fold(fold(kFnvBasis, static_cast<std::uint64_t>(r.init_virt)),
                         static_cast<std::uint64_t>(r.makespan));
  for (const Span& s : r.spans) {
    if (!is_op(s.kind) && s.kind != Kind::Rtt) continue;
    h = fold(fold(h, s.flow), static_cast<std::uint64_t>(s.v1 - s.v0));
  }
  return h;
}

/// Outside-in checks of the timing model over one traced iteration.
void check_invariants(IterResult& r, bool faults_armed) {
  for (std::size_t n = 0; n < r.nodes.size(); ++n) {
    const NodeSample& s = r.nodes[n];
    const Time busy[] = {s.dma_read, s.dma_write, s.egress, s.ingress,
                         s.phi_dma};
    for (Time b : busy) {
      if (s.window > 0 && b > s.window) {
        r.violations.push_back("resource utilisation > 1 on node " +
                               std::to_string(n));
        break;
      }
    }
  }
  std::uint64_t egress = 0;
  for (const NodeSample& s : r.nodes) egress += s.egress_bytes;
  if (egress < r.payload_bytes) {
    r.violations.push_back("HCA egress bytes " + std::to_string(egress) +
                           " < delivered payload " +
                           std::to_string(r.payload_bytes));
  }
  if (r.p2p_sent != r.p2p_received && (!faults_armed || r.failed == 0)) {
    r.violations.push_back("p2p sent " + std::to_string(r.p2p_sent) +
                           " != received " + std::to_string(r.p2p_received));
  }
  std::map<int, Time> last;
  for (const Span& s : r.spans) {
    if (s.rank < 0) continue;
    if (s.v1 < s.v0 && s.kind != Kind::Msg) {
      r.violations.push_back("span ends before it starts on rank " +
                             std::to_string(s.rank));
      return;
    }
    Time& prev = last[s.rank];
    if (s.v1 < prev) {
      r.violations.push_back("virtual time went backwards on rank " +
                             std::to_string(s.rank));
      return;
    }
    prev = s.v1;
  }
}

/// Chrome-trace dump of one iteration's spans on the virtual timeline (one
/// track per rank; host times, ids and causes ride along as args).
void write_trace(const std::string& path, const IterResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : r.spans) {
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"flow\":%llu,\"bytes\":%u,\"host_ns\":[%lld,%lld]}}",
        first ? "" : ",\n", kind_name(s.kind), kind_layer(s.kind), s.rank,
        sim::to_us(s.v0), sim::to_us(s.v1 - s.v0),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.flow), s.bytes,
        static_cast<long long>(s.h0), static_cast<long long>(s.h1));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  bool first = true;
  for (const Metric& m : ms) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit);
    first = false;
  }
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Latencies (us) of the spans `keep` selects, pooled over iterations.
template <class Pred>
std::vector<double> pooled(const std::vector<IterResult>& it, Pred keep) {
  std::vector<double> v;
  for (const IterResult& r : it) {
    const std::vector<double> one = latencies(r, keep);
    v.insert(v.end(), one.begin(), one.end());
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// `init` holds init_virt (ms) of every set-up sub-seed.
std::vector<Metric> end_to_end(const std::vector<IterResult>& pass,
                               double setup_s, double wall_s,
                               const std::vector<double>& init) {
  std::vector<double> makespan;
  for (const IterResult& r : pass) makespan.push_back(sim::to_ms(r.makespan));
  const std::vector<double> lat =
      pooled(pass, [](const Span& s) { return is_op(s.kind); });
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"init_virt_ms", mean(init), "ms"},
      {"virt_ms", interquartile_mean(makespan), "ms"},
      {"lat_p50_us", pct(lat, 0.50), "us"},
      {"lat_p99_us", pct(lat, 0.99), "us"},
  };
}

/// Per-layer figures of one traced pass: counters are means per iteration,
/// latencies pooled, utilisations busy time over the traffic window summed
/// over the pass (max over nodes), host times medians over every traced
/// iteration of the run.
std::vector<Metric> per_layer(const std::vector<IterResult>& pass,
                              const std::vector<IterResult*>& all_traced,
                              const dcfa::sim::Platform& platform,
                              double overhead_ratio) {
  std::vector<double> ctor, init, down, ns_event, ns_packet;
  for (const IterResult* r : all_traced) {
    ctor.push_back(r->ctor_s);
    init.push_back(r->setup_s - r->ctor_s);
    down.push_back(r->teardown_s);
    ns_event.push_back(ratio(r->run_s * 1e9, static_cast<double>(r->events)));
    ns_packet.push_back(
        ratio(r->run_s * 1e9, static_cast<double>(r->stats.packets_rx)));
  }
  dcfa::mpi::Engine::Stats st{};
  IterResult sum;  // counters summed over the pass
  std::vector<NodeSample> nodes(pass.front().nodes.size());
  std::uint64_t spans = 0;
  for (const IterResult& r : pass) {
    st = dcfa::mpi::traffic::stats_add(st, r.stats);
    sum.events += r.events;
    sum.payload_bytes += r.payload_bytes;
    sum.mr_hits += r.mr_hits;
    sum.mr_misses += r.mr_misses;
    sum.mr_evictions += r.mr_evictions;
    sum.shadow_misses += r.shadow_misses;
    sum.reg_mr_ns += r.reg_mr_ns;
    sum.faults.wc_dropped += r.faults.wc_dropped;
    sum.faults.wc_errored += r.faults.wc_errored;
    sum.faults.delegate_crashes += r.faults.delegate_crashes;
    spans += r.spans.size();
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const NodeSample& a = r.nodes[n];
      NodeSample& b = nodes[n];
      b.window += a.window;
      b.dma_read += a.dma_read;
      b.dma_write += a.dma_write;
      b.egress += a.egress;
      b.ingress += a.ingress;
      b.phi_dma += a.phi_dma;
      b.egress_bytes += a.egress_bytes;
      b.mrs_total += a.mrs_total;
    }
  }
  const double k = static_cast<double>(pass.size());
  auto u = [k](std::uint64_t v) { return static_cast<double>(v) / k; };
  auto lat = [&pass](auto keep) { return pooled(pass, keep); };
  auto msg_in = [](std::size_t lo, std::size_t hi) {
    return [lo, hi](const Span& s) {
      return s.kind == Kind::Msg && s.bytes >= lo && s.bytes < hi;
    };
  };
  // At and past the offload threshold the shadow's DMA sync dominates the
  // rendezvous on the Phi.
  const std::size_t eager_max = platform.eager_threshold;
  const std::size_t offload_min = platform.mpi_offload_threshold;
  const auto eager = lat(msg_in(0, eager_max));
  const auto rndv = lat(msg_in(eager_max, offload_min));
  const auto offl = lat(msg_in(offload_min, SIZE_MAX));
  const auto rtt = lat([](const Span& s) { return s.kind == Kind::Rtt; });
  const auto a2a = lat([](const Span& s) { return s.kind == Kind::Alltoall; });
  const auto iar =
      lat([](const Span& s) { return s.kind == Kind::Iallreduce; });

  double util[5] = {0, 0, 0, 0, 0};
  std::uint64_t egress = 0, mrs = 0;
  for (const NodeSample& n : nodes) {
    const Time busy[5] = {n.dma_read, n.dma_write, n.egress, n.ingress,
                          n.phi_dma};
    for (int i = 0; i < 5; ++i) {
      util[i] = std::max(util[i], ratio(static_cast<double>(busy[i]),
                                        static_cast<double>(n.window)));
    }
    egress += n.egress_bytes;
    mrs += n.mrs_total;
  }
  const double ranks = static_cast<double>(nodes.size());
  const double endpoint_mrs =
      u(mrs - sum.mr_misses - sum.shadow_misses);
  const std::uint64_t injected = sum.faults.wc_dropped +
                                 sum.faults.wc_errored +
                                 sum.faults.delegate_crashes;

  return {
      {"sim.events", u(sum.events), "count"},
      {"sim.host_ns_per_event", median(ns_event), "ns"},
      {"setup.ctor_s", median(ctor), "s"},
      {"setup.init_s", median(init), "s"},
      {"teardown_s", median(down), "s"},
      {"mpi.packets_rx", u(st.packets_rx), "count"},
      {"mpi.host_ns_per_packet", median(ns_packet), "ns"},
      {"mpi.credits_sent", u(st.credits_sent), "count"},
      {"mpi.tx_stalls", u(st.tx_stalls), "count"},
      {"mpi.eager_sends", u(st.eager_sends), "count"},
      {"mpi.rndv_sends", u(st.rndv_sends), "count"},
      {"mpi.eager_mispredicts", u(st.eager_mispredicts), "count"},
      {"p2p.rtt_4b_us", pct(rtt, 0.50), "us"},
      {"p2p.eager.lat_p50_us", pct(eager, 0.50), "us"},
      {"p2p.eager.lat_p99_us", pct(eager, 0.99), "us"},
      {"p2p.rndv.lat_p50_us", pct(rndv, 0.50), "us"},
      {"p2p.rndv.lat_p99_us", pct(rndv, 0.99), "us"},
      {"p2p.offload.lat_p50_us", pct(offl, 0.50), "us"},
      {"coll.alltoall.lat_p50_us", pct(a2a, 0.50), "us"},
      {"coll.alltoall.lat_p99_us", pct(a2a, 0.99), "us"},
      {"coll.iallreduce.lat_p50_us", pct(iar, 0.50), "us"},
      {"coll.iallreduce.lat_p99_us", pct(iar, 0.99), "us"},
      {"coll.schedules", u(st.coll_schedules), "count"},
      {"coll.segments", u(st.coll_segments), "count"},
      {"mr_cache.hits", u(sum.mr_hits), "count"},
      {"mr_cache.misses", u(sum.mr_misses), "count"},
      {"mr_cache.evictions", u(sum.mr_evictions), "count"},
      {"mr_cache.hit_ratio",
       ratio(u(sum.mr_hits), u(sum.mr_hits + sum.mr_misses)), "ratio"},
      {"offload.syncs", u(st.offload_syncs), "count"},
      {"offload.sync_bytes", u(st.offload_sync_bytes), "bytes"},
      {"pcie.phi_dma.util", util[4], "ratio"},
      {"ib.dma_read.util", util[0], "ratio"},
      {"ib.dma_write.util", util[1], "ratio"},
      {"ib.egress.util", util[2], "ratio"},
      {"ib.ingress.util", util[3], "ratio"},
      {"ib.egress_bytes_per_payload_byte",
       ratio(u(egress), u(sum.payload_bytes)), "ratio"},
      {"ib.mrs_registered", u(mrs), "count"},
      {"ib.mrs_per_endpoint", ratio(endpoint_mrs, ranks * (ranks - 1)),
       "count"},
      {"dcfa.reg_mr_us", sim::to_us(sum.reg_mr_ns) / k, "us"},
      {"dcfa.cmd_retries", u(st.cmd_retries), "count"},
      {"dcfa.cmd_timeouts", u(st.cmd_timeouts), "count"},
      {"dcfa.offload_fallbacks", u(st.offload_fallbacks), "count"},
      {"rel.retransmits", u(st.retransmits), "count"},
      {"rel.wc_errors", u(st.wc_errors), "count"},
      {"rel.data_op_retries", u(st.data_op_retries), "count"},
      {"rel.dup_packets_dropped", u(st.dup_packets_dropped), "count"},
      {"rel.reconnects", u(st.reconnects), "count"},
      {"rel.proxy_failovers", u(st.proxy_failovers), "count"},
      {"rel.retry_exhausted", u(st.retry_exhausted), "count"},
      {"rel.retx_per_injected_fault", ratio(u(st.retransmits), u(injected)),
       "ratio"},
      {"fault.wc_dropped", u(sum.faults.wc_dropped), "count"},
      {"fault.wc_errored", u(sum.faults.wc_errored), "count"},
      {"fault.delegate_crashes", u(sum.faults.delegate_crashes), "count"},
      {"trace.spans", u(spans), "count"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  require_pinned_config();
  // One run covers the workload at `passes` sub-seeds drawn from --seed:
  // pooling independent traffic draws is what keeps the virtual figures
  // steady from one seed to the next.
  auto subseed = [&args](std::size_t j) {
    return splitmix(args.seed * 1000 + j);
  };
  std::vector<Workload> ws;
  try {
    const int passes = make_workload(args.workload, args.seed).passes;
    for (int j = 0; j < passes; ++j) {
      ws.push_back(make_workload(args.workload, subseed(j)));
    }
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const std::size_t K = ws.size();
  const Workload& w = ws.front();
  const bool faults_armed = !w.sc.fault_spec.empty();
  std::uint64_t sched_digest = kFnvBasis;
  for (const Workload& x : ws) {
    sched_digest = fold(sched_digest, dcfa::mpi::traffic::schedule_digest(
                                          dcfa::mpi::traffic::build_schedule(x.sc)));
  }
  std::printf("{\"perfbench_config\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"passes\": %zu, "
              "\"build_type\": \"%s\", \"revision\": \"%s\", \"nproc\": %ld, "
              "\"ranks\": %d, \"mode\": \"%s\", \"fault_spec\": \"%s\", "
              "\"DCFA_CHECK\": \"cheap\", \"DCFA_SIM_SCHED\": \"fiber\"}}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, K, PERFBENCH_BUILD_TYPE,
              args.revision.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              w.cfg.nprocs, dcfa::mpi::mode_name(w.cfg.mode),
              w.sc.fault_spec.c_str());
  std::fflush(stdout);

  // --trace 0 cycles untraced iterations through the sub-seeds until the
  // budget is spent; --trace 1 alternates untraced and traced iterations of
  // the same sub-seed, so the pair's wall times give the tracing overhead.
  // A repeat must reproduce the sub-seed's first run exactly: untraced runs
  // repeat sub-seed 0 at least and the others as the budget allows, traced
  // runs check every sub-seed against its untraced twin. The very first
  // iteration, which warms the process, stays out of the host figures.
  const Clock::time_point t0 = Clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<IterResult> first(K), traced_first(K);
  std::vector<IterResult*> all_traced;
  std::vector<IterResult> traced_rest;
  std::vector<std::vector<double>> wall(K), raw_wall(K);
  std::vector<double> setup, raw_setup, init, overhead;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  auto compare = [&](const IterResult& r, const IterResult& ref, std::size_t j) {
    if (r.virt_digest != ref.virt_digest ||
        r.result_digest != ref.result_digest ||
        r.attempted != ref.attempted || r.failed != ref.failed) {
      problems.push_back("sub-seed " + std::to_string(j) +
                         " did not reproduce its virtual results");
    }
  };
  double cal_prev = calibrate();
  std::vector<double> cal{cal_prev};
  auto to_reference = [&](IterResult& r) {
    const double cal_next = calibrate();
    cal.push_back(cal_next);
    const double scale = kCalibrationRefS / (0.5 * (cal_prev + cal_next));
    cal_prev = cal_next;
    for (double* t : {&r.ctor_s, &r.setup_s, &r.wall_s, &r.run_s,
                      &r.teardown_s}) {
      *t *= scale;
    }
  };
  const std::size_t min_iters = args.trace == 1 ? 2 * K + 2 : K + 1;
  double plain_wall = 0;
  for (std::size_t i = 0; i < min_iters || elapsed() < args.seconds; ++i) {
    const bool is_traced = args.trace == 1 && i % 2 == 1;
    const std::size_t n = args.trace == 1 ? i / 2 : i;
    const std::size_t j = n % K;
    IterResult r = run_iteration(ws[j], is_traced);
    const double raw_w = r.wall_s;
    to_reference(r);
    r.virt_digest = virt_digest(r);
    if (is_traced) check_invariants(r, faults_armed);
    problems.insert(problems.end(), r.violations.begin(), r.violations.end());
    attempted += r.attempted;
    failed += r.failed;
    std::fprintf(stderr, "perfbench: %s iteration %zu sub-seed %zu%s setup "
                 "%.4fs wall %.4fs init %.3fms virt %.3fms\n", w.name.c_str(),
                 i, j, is_traced ? " traced" : "", r.setup_s, r.wall_s,
                 sim::to_ms(r.init_virt), sim::to_ms(r.makespan));
    if (!is_traced) {
      if (i > 0) {
        wall[j].push_back(r.wall_s);
        raw_wall[j].push_back(raw_w);
      }
      plain_wall = r.wall_s;
      if (n < K) {
        if (args.trace == 1) std::vector<Span>().swap(r.spans);
        first[j] = std::move(r);
      } else {
        compare(r, first[j], j);
      }
      continue;
    }
    if (n > 0) overhead.push_back(ratio(r.wall_s, plain_wall));
    // A traced run must see exactly what its untraced twin saw.
    compare(r, first[j], j);
    if (n < K) {
      traced_first[j] = std::move(r);
      all_traced.push_back(&traced_first[j]);
    } else {
      std::vector<Span>().swap(r.spans);
      traced_rest.push_back(std::move(r));
    }
  }
  for (IterResult& r : traced_rest) all_traced.push_back(&r);
  // Set-up is short next to the traffic and varies from sub-seed to
  // sub-seed (phi_faulty's delegate crash lands in endpoint wiring), so it
  // gets a pass of its own: one set-up-only iteration at each of
  // kSetupSubseeds sub-seeds, the first K being the traffic's. setup_s and
  // init_virt_ms are means over the pass: set-up time varies smoothly with
  // the sub-seed, and a median would jump between neighbouring sub-seeds.
  for (std::size_t j = 0; args.trace == 0 && j < kSetupSubseeds; ++j) {
    IterResult r = run_iteration(
        j < K ? ws[j] : make_workload(args.workload, subseed(j)), false, true);
    raw_setup.push_back(r.setup_s);
    to_reference(r);
    setup.push_back(r.setup_s);
    init.push_back(sim::to_ms(r.init_virt));
    problems.insert(problems.end(), r.violations.begin(), r.violations.end());
  }
  if (!faults_armed && failed > 0) {
    problems.push_back(std::to_string(failed) +
                       " operations failed on a fault-free workload");
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", p.c_str());
  }

  std::uint64_t result_digest = kFnvBasis, vdigest = kFnvBasis;
  for (const IterResult& r : first) {
    result_digest = fold(result_digest, r.result_digest);
    vdigest = fold(vdigest, r.virt_digest);
  }
  std::size_t samples = 0;
  for (const IterResult& r : args.trace == 1 ? traced_first : first) {
    for (const Span& s : r.spans) samples += is_op(s.kind) ? 1 : 0;
  }
  std::printf("{\"perfbench_result\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"passes\": %zu, \"setup_samples\": %zu, "
              "\"traced_iterations\": %zu, \"latency_samples\": %zu, "
              "\"schedule_digest\": \"%s\", \"result_digest\": \"%s\", "
              "\"virt_digest\": \"%s\", \"error_rate\": %.17g, "
              "\"faults_armed\": %s, \"calibration_s\": %.6f, "
              "\"raw_setup_s\": %.6f, \"raw_wall_s\": %.6f}}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), K,
              setup.size(), all_traced.size(), samples,
              hex(sched_digest).c_str(), hex(result_digest).c_str(),
              hex(vdigest).c_str(),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              faults_armed ? "true" : "false", median(cal), mean(raw_setup),
              mean_of_medians(raw_wall));
  if (args.trace == 1 && !args.trace_out.empty()) {
    write_trace(args.trace_out, traced_first.back());
  }

  const std::vector<Metric> metrics =
      args.trace == 0
          ? end_to_end(first, mean(setup), mean_of_medians(wall), init)
          : per_layer(traced_first, all_traced, w.cfg.platform,
                      median(overhead));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(metrics);
  std::printf("}}\n");
  return correct ? 0 : 1;
}
