#pragma once

// Vector clocks for the DcfaRace happens-before engine (docs/checking.md).
//
// The checker keeps one VClock per rank and one per live synchronization
// object (message seq, lock handoff, doorbell arrival, agreement round).
// Components are indexed by rank id and grow on demand; a component that
// was never ticked reads as 0, so clocks over sparse rank sets stay small.

#include <cstdint>
#include <vector>

namespace dcfa::sim {

class VClock {
 public:
  /// Component for `rank` (0 if never ticked).
  std::uint64_t get(int rank) const {
    const auto i = static_cast<std::size_t>(rank);
    return rank >= 0 && i < c_.size() ? c_[i] : 0;
  }

  /// Advance this clock's own component: the owner performed a new event.
  void tick(int rank) {
    if (rank < 0) return;
    grow(rank);
    ++c_[static_cast<std::size_t>(rank)];
  }

  /// Component-wise maximum (acquire: learn everything `o` knew).
  void merge(const VClock& o) {
    if (o.c_.size() > c_.size()) c_.resize(o.c_.size(), 0);
    for (std::size_t i = 0; i < o.c_.size(); ++i) {
      if (o.c_[i] > c_[i]) c_[i] = o.c_[i];
    }
  }

  /// True when *this happened-before-or-equals `o` (every component <=).
  bool le(const VClock& o) const {
    for (std::size_t i = 0; i < c_.size(); ++i) {
      if (c_[i] > o.get(static_cast<int>(i))) return false;
    }
    return true;
  }

  bool empty() const { return c_.empty(); }

 private:
  void grow(int rank) {
    const auto need = static_cast<std::size_t>(rank) + 1;
    if (c_.size() < need) c_.resize(need, 0);
  }

  std::vector<std::uint64_t> c_;
};

/// The stateless splitmix64 finalizer (same constants as sim::Rng): maps a
/// (seed, event-seq) pair onto an explore-scheduler priority. Shared by the
/// engine's randomized event ordering and by anything that needs a strong,
/// platform-independent 64-bit mix.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace dcfa::sim
