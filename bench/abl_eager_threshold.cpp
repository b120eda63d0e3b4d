// Ablation (Section IV-B3): the eager/rendezvous switch. "Since the data
// copy operation on the Xeon Phi co-processor spends less than 1
// microsecond for 4Kbytes of data, DCFA-MPI uses a one-copy design for
// small messages. For large messages ... the zero-copy design was chosen."
//
// Sweeps the eager threshold and shows the copy-cost / handshake-cost
// crossover that justifies the default.

#include "apps/pingpong.hpp"
#include "bench_util.hpp"

using namespace dcfa;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  bench::JsonReport rep("abl_eager_threshold", argc, argv);
  bench::banner("Ablation IV-B3", "eager one-copy vs rendezvous zero-copy");
  bench::claim("one-copy wins for small messages (copy < handshake), "
               "zero-copy wins for large ones");

  // Thresholds: force-all-rendezvous (1), default 8K, force-eager-up-to-64K.
  const std::vector<std::uint64_t> thresholds = {1, 2048, 8192, 65537};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{256, 4096, 32768}
            : std::vector<std::size_t>{64, 512, 2048, 4096, 8192, 16384,
                                       32768, 65536};

  std::vector<std::string> headers{"msg size"};
  for (auto t : thresholds) {
    if (t == 1) headers.push_back("all-rndv");
    else headers.push_back("eager<" + bench::fmt_size(t));
  }
  bench::Table table(std::move(headers));
  for (std::size_t bytes : sizes) {
    std::vector<std::string> row{bench::fmt_size(bytes)};
    sim::Time best = sim::kNever;
    std::size_t best_col = 0;
    std::vector<sim::Time> rtts;
    for (std::size_t c = 0; c < thresholds.size(); ++c) {
      mpi::RunConfig cfg;
      cfg.mode = mpi::MpiMode::DcfaPhi;
      cfg.platform.eager_threshold = thresholds[c];
      auto r = apps::pingpong_blocking(cfg, bytes, quick ? 5 : 10);
      rtts.push_back(r.round_trip);
      if (r.round_trip < best) {
        best = r.round_trip;
        best_col = c;
      }
    }
    for (std::size_t c = 0; c < rtts.size(); ++c) {
      rep.metric("rtt", bench::fmt_size(bytes) + "/" + table.headers()[c + 1],
                 sim::to_us(rtts[c]), "us");
    }
    for (std::size_t c = 0; c < rtts.size(); ++c) {
      row.push_back(bench::fmt_us(rtts[c]) + (c == best_col ? " *" : ""));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n(RTT in us; * = fastest policy per size. Small messages pay "
              "a full RTS/RTR handshake under all-rndv; large eager copies "
              "burn Phi memcpy time and ring slots.)\n");
  return 0;
}
