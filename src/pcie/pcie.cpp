#include "pcie/pcie.hpp"

#include <cstring>

namespace dcfa::pcie {

sim::Time PciePort::dma_async(mem::Domain src_domain, mem::SimAddr src,
                              mem::Domain dst_domain, mem::SimAddr dst,
                              std::size_t len, std::function<void()> on_done,
                              double bw_factor) {
  // Validate both windows up front: a bad descriptor faults at submit time.
  std::byte* src_p = memory_.space(src_domain).resolve(src, len);
  std::byte* dst_p = memory_.space(dst_domain).resolve(dst, len);

  const sim::Time cost =
      platform_.phi_dma_setup +
      sim::transfer_time(len, platform_.phi_dma_gbps * bw_factor);
  const sim::Time done_at = phi_dma_.acquire(engine_.now(), cost);
  engine_.telemetry().span({sim::Track::Dma, memory_.node()}, done_at - cost,
                           done_at, "phi-dma %zuB", len);

  engine_.schedule_at(done_at, [this, src_p, dst_p, len,
                                on_done = std::move(on_done)] {
    std::memmove(dst_p, src_p, len);
    engine_.telemetry().log(sim::Verbosity::Trace,
                            {sim::Track::Dma, memory_.node()},
                            "dma complete, %zu bytes", len);
    if (on_done) on_done();
  });
  return done_at;
}

void PciePort::dma(sim::Process& proc, mem::Domain src_domain,
                   mem::SimAddr src, mem::Domain dst_domain, mem::SimAddr dst,
                   std::size_t len) {
  sim::Condition done(engine_, "pcie.dma");
  bool finished = false;
  dma_async(src_domain, src, dst_domain, dst, len, [&] {
    finished = true;
    done.notify_all();
  });
  while (!finished) proc.wait_on(done);
}

}  // namespace dcfa::pcie
