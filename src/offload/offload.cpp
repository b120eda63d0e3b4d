#include "offload/offload.hpp"

namespace dcfa::offload {

mem::Buffer Engine::alloc_card_buffer(std::size_t size, std::size_t align) {
  return memory_.alloc(mem::Domain::PhiGddr, size, align);
}

void Engine::free_card_buffer(const mem::Buffer& buf) {
  memory_.space(buf.domain()).free(buf);
}

sim::Time Engine::transfer_overhead(std::size_t off_a, std::size_t off_b,
                                    std::size_t len) const {
  sim::Time t = platform_.offload_transfer_fixed;
  const std::size_t page = mem::AddressSpace::kPage;
  if (off_a % page != 0 || off_b % page != 0 || len % page != 0) {
    t += platform_.offload_misaligned_extra;
  }
  return t;
}

sim::Time Engine::do_transfer(mem::Domain src_d, mem::SimAddr src,
                              mem::Domain dst_d, mem::SimAddr dst,
                              std::size_t len, std::size_t src_off,
                              std::size_t dst_off,
                              std::function<void()> on_done) {
  ++transfers_;
  const std::size_t page = mem::AddressSpace::kPage;
  const bool aligned =
      src_off % page == 0 && dst_off % page == 0 && len % page == 0;
  const double factor = aligned ? 1.0 : platform_.offload_misaligned_bw_factor;
  return pcie_.dma_async(src_d, src, dst_d, dst, len, std::move(on_done),
                         factor);
}

void Engine::transfer_in(const mem::Buffer& host_src, std::size_t src_off,
                         const mem::Buffer& card_dst, std::size_t dst_off,
                         std::size_t len) {
  proc_.wait(transfer_overhead(src_off, dst_off, len));
  sim::Condition done(proc_.engine(), "offload.in");
  bool fin = false;
  do_transfer(host_src.domain(), host_src.addr() + src_off,
              card_dst.domain(), card_dst.addr() + dst_off, len, src_off,
              dst_off, [&] {
                fin = true;
                done.notify_all();
              });
  while (!fin) proc_.wait_on(done);
}

void Engine::transfer_out(const mem::Buffer& card_src, std::size_t src_off,
                          const mem::Buffer& host_dst, std::size_t dst_off,
                          std::size_t len) {
  proc_.wait(transfer_overhead(src_off, dst_off, len));
  sim::Condition done(proc_.engine(), "offload.out");
  bool fin = false;
  do_transfer(card_src.domain(), card_src.addr() + src_off,
              host_dst.domain(), host_dst.addr() + dst_off, len, src_off,
              dst_off, [&] {
                fin = true;
                done.notify_all();
              });
  while (!fin) proc_.wait_on(done);
}

std::unique_ptr<Signal> Engine::transfer_in_async(const mem::Buffer& host_src,
                                                  std::size_t src_off,
                                                  const mem::Buffer& card_dst,
                                                  std::size_t dst_off,
                                                  std::size_t len) {
  // The host pays only the submit half of the fixed cost; the rest rides
  // with the descriptor on the card side.
  proc_.wait(transfer_overhead(src_off, dst_off, len) / 2);
  auto sig = std::make_unique<Signal>(proc_.engine());
  Signal* s = sig.get();
  proc_.engine().schedule_after(
      transfer_overhead(src_off, dst_off, len) / 2, [this, &host_src, src_off,
                                                     &card_dst, dst_off, len,
                                                     s] {
        do_transfer(host_src.domain(), host_src.addr() + src_off,
                    card_dst.domain(), card_dst.addr() + dst_off, len,
                    src_off, dst_off, [s] {
                      s->done_ = true;
                      s->cond_.notify_all();
                    });
      });
  return sig;
}

std::unique_ptr<Signal> Engine::transfer_out_async(const mem::Buffer& card_src,
                                                   std::size_t src_off,
                                                   const mem::Buffer& host_dst,
                                                   std::size_t dst_off,
                                                   std::size_t len) {
  proc_.wait(transfer_overhead(src_off, dst_off, len) / 2);
  auto sig = std::make_unique<Signal>(proc_.engine());
  Signal* s = sig.get();
  proc_.engine().schedule_after(
      transfer_overhead(src_off, dst_off, len) / 2, [this, &card_src, src_off,
                                                     &host_dst, dst_off, len,
                                                     s] {
        do_transfer(card_src.domain(), card_src.addr() + src_off,
                    host_dst.domain(), host_dst.addr() + dst_off, len,
                    src_off, dst_off, [s] {
                      s->done_ = true;
                      s->cond_.notify_all();
                    });
      });
  return sig;
}

void Engine::wait(Signal& sig) {
  while (!sig.done_) proc_.wait_on(sig.cond_);
}

void Engine::run_region(int threads, sim::Time compute_time,
                        const std::function<void()>& kernel) {
  ++regions_;
  const sim::Time launch =
      platform_.offload_launch_base +
      platform_.offload_launch_per_thread * static_cast<sim::Time>(threads);
  proc_.wait(launch + compute_time);
  if (kernel) kernel();
}

}  // namespace dcfa::offload
