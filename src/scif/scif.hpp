#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "pcie/pcie.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace dcfa::scif {

/// A SCIF-like bidirectional message channel between the host processor and
/// the Xeon Phi card of one node (Intel's Symmetric Communication
/// Interface). Used as the transport of the DCFA command protocol, the
/// offload runtime's control plane, and the 'Intel MPI on Xeon Phi' IB-proxy
/// path.
///
/// Message semantics mirror scif_send/scif_recv: reliable, ordered, message
/// oriented. Bulk data moves with dma() (scif_vwriteto-style), which rides
/// the Phi DMA engine of the node's PCIe port.
class Channel {
 public:
  enum class Side { Host, Phi };

  Channel(sim::Engine& engine, pcie::PciePort& pcie,
          const sim::Platform& platform)
      : engine_(engine),
        pcie_(pcie),
        platform_(platform),
        to_phi_(engine, "scif.to_phi"),
        to_host_(engine, "scif.to_host") {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Send a message from `from` to the opposite side. The calling process
  /// pays the submit cost; delivery happens one SCIF latency later.
  void send(sim::Process& proc, Side from, std::span<const std::byte> msg);

  /// Blocking receive on `side`; returns the next message in order.
  std::vector<std::byte> recv(sim::Process& proc, Side side);

  /// Non-blocking receive; returns false when no message is pending.
  bool try_recv(Side side, std::vector<std::byte>& out);

  /// Immediate in-queue delivery to `side`, bypassing submit cost and
  /// latency. Used by event-driven kernel components (the DCFA delegation
  /// reply path) that model their timing explicitly before injecting.
  void deliver_raw(Side side, std::vector<std::byte> msg);

  /// Number of delivered-but-unread messages on `side`.
  std::size_t pending(Side side) const;

  /// Condition notified whenever a message is delivered to `side` (for
  /// servers multiplexing several channels).
  sim::Condition& arrival(Side side) {
    return side == Side::Phi ? to_phi_ : to_host_;
  }

  /// Event-driven receivers (the DCFA host delegation process) register a
  /// callback instead of blocking a process; it fires on each delivery.
  void set_on_deliver(Side side, std::function<void()> cb) {
    (side == Side::Phi ? on_phi_deliver_ : on_host_deliver_) = std::move(cb);
  }

  /// Bulk DMA between the two memory domains of this node, blocking the
  /// calling process (scif_vwriteto / scif_vreadfrom equivalent).
  void dma(sim::Process& proc, mem::Domain src_domain, mem::SimAddr src,
           mem::Domain dst_domain, mem::SimAddr dst, std::size_t len) {
    pcie_.dma(proc, src_domain, src, dst_domain, dst, len);
  }

  pcie::PciePort& pcie() { return pcie_; }
  const sim::Platform& platform() const { return platform_; }
  sim::Engine& engine() { return engine_; }

 private:
  std::deque<std::vector<std::byte>>& queue_for(Side side) {
    return side == Side::Phi ? phi_inbox_ : host_inbox_;
  }
  const std::deque<std::vector<std::byte>>& queue_for(Side side) const {
    return side == Side::Phi ? phi_inbox_ : host_inbox_;
  }

  sim::Engine& engine_;
  pcie::PciePort& pcie_;
  const sim::Platform& platform_;
  std::deque<std::vector<std::byte>> phi_inbox_;
  std::deque<std::vector<std::byte>> host_inbox_;
  sim::Condition to_phi_;
  sim::Condition to_host_;
  std::function<void()> on_phi_deliver_;
  std::function<void()> on_host_deliver_;
};

/// Little-endian POD serialiser for the command protocol. Keeps message
/// encoding explicit and testable without pulling in a real wire format.
class Writer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Writer& put(const T& v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
    return *this;
  }
  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    if (pos_ + sizeof(T) > buf_.size()) {
      throw std::runtime_error("scif::Reader: message truncated");
    }
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace dcfa::scif
