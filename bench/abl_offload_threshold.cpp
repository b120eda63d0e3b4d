// Ablation (Section IV-B4): where should the offloading send buffer kick
// in? The paper: "The message size at the beginning of offloading should be
// tuned in a different server environment. In our environment, an
// offloading send buffer starting from 8Kbytes shows the best performance."
//
// Sweeps the threshold and reports RTT at sizes around the crossover; also
// prints the per-size winner so the 8 KiB choice is visible.

#include "apps/pingpong.hpp"
#include "bench_util.hpp"

using namespace dcfa;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  bench::JsonReport rep("abl_offload_threshold", argc, argv);
  bench::banner("Ablation IV-B4", "offloading send buffer threshold tuning");
  bench::claim("8KB threshold performs best in the paper's environment");

  // The eager threshold is lowered together with the offload threshold so
  // that sub-8K rendezvous traffic exists to offload (with the default 8 KiB
  // eager switch, smaller thresholds would be unreachable dead settings).
  const std::vector<std::uint64_t> thresholds = {
      1024, 4 * 1024, 8 * 1024, 32 * 1024, 128 * 1024,
      std::uint64_t(1) << 40 /* never: offload off */};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4096, 16384, 262144}
            : std::vector<std::size_t>{1024, 2048, 4096, 8192, 16384, 65536,
                                       262144, 1 << 20};

  std::vector<std::string> headers{"msg size"};
  for (auto t : thresholds) {
    headers.push_back(t > (1ull << 30) ? "off" : "thr=" + bench::fmt_size(t));
  }
  bench::Table table(std::move(headers));
  for (std::size_t bytes : sizes) {
    std::vector<std::string> row{bench::fmt_size(bytes)};
    sim::Time best = sim::kNever;
    std::size_t best_col = 0, col = 0;
    std::vector<sim::Time> rtts;
    for (auto thr : thresholds) {
      mpi::RunConfig cfg;
      cfg.mode = mpi::MpiMode::DcfaPhi;
      cfg.platform.offload_send_threshold = thr;
      cfg.platform.eager_threshold =
          std::min<std::uint64_t>(thr, 8 * 1024);
      auto r = apps::pingpong_nonblocking(cfg, bytes, quick ? 5 : 10);
      rtts.push_back(r.round_trip);
      if (r.round_trip < best) {
        best = r.round_trip;
        best_col = col;
      }
      ++col;
    }
    for (std::size_t c = 0; c < rtts.size(); ++c) {
      rep.metric("rtt", bench::fmt_size(bytes) + "/" + table.headers()[c + 1],
                 sim::to_us(rtts[c]), "us");
    }
    for (std::size_t c = 0; c < rtts.size(); ++c) {
      row.push_back(bench::fmt_us(rtts[c]) +
                    (c == best_col ? " *" : ""));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n(RTT in us; * marks the fastest threshold per size. "
              "Low thresholds pay DMA setup on small messages, high ones "
              "leave bandwidth on the slow Phi-read path.)\n");
  return 0;
}
