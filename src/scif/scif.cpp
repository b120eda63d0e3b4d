#include "scif/scif.hpp"

namespace dcfa::scif {

void Channel::send(sim::Process& proc, Side from,
                   std::span<const std::byte> msg) {
  const Side to = from == Side::Host ? Side::Phi : Side::Host;
  // Submitting costs one post on the caller's core; the doorbell + ring
  // traversal is the SCIF message latency. Payload bytes ride the ring at a
  // modest rate (control messages are small).
  proc.wait(from == Side::Host ? platform_.host_post_overhead
                               : platform_.phi_post_overhead);
  std::vector<std::byte> copy(msg.begin(), msg.end());
  const sim::Time deliver_at = engine_.now() + platform_.scif_msg_latency +
                               sim::transfer_time(msg.size(), 2.0);
  engine_.schedule_at(deliver_at, [this, to, copy = std::move(copy)]() mutable {
    queue_for(to).push_back(std::move(copy));
    arrival(to).notify_all();
    auto& cb = to == Side::Phi ? on_phi_deliver_ : on_host_deliver_;
    if (cb) cb();
  });
}

std::vector<std::byte> Channel::recv(sim::Process& proc, Side side) {
  auto& q = queue_for(side);
  while (q.empty()) proc.wait_on(arrival(side));
  std::vector<std::byte> msg = std::move(q.front());
  q.pop_front();
  return msg;
}

void Channel::deliver_raw(Side side, std::vector<std::byte> msg) {
  queue_for(side).push_back(std::move(msg));
  arrival(side).notify_all();
  auto& cb = side == Side::Phi ? on_phi_deliver_ : on_host_deliver_;
  if (cb) cb();
}

bool Channel::try_recv(Side side, std::vector<std::byte>& out) {
  auto& q = queue_for(side);
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  return true;
}

std::size_t Channel::pending(Side side) const {
  return queue_for(side).size();
}

}  // namespace dcfa::scif
