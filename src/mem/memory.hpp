#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dcfa::mem {

/// Which physical memory a buffer lives in. The whole paper is about the
/// difference between these two: HCA-initiated reads from PhiGddr are the
/// bottleneck that the offloading send buffer works around.
enum class Domain { HostDram, PhiGddr };

const char* domain_name(Domain d);

using NodeId = int;
using SimAddr = std::uint64_t;

class AddressSpace;

/// A chunk of simulated device memory. Real bytes live on the test-host heap
/// so protocols can be verified end-to-end; the simulated address is what
/// travels in RTS/RTR packets and what DMA engines resolve.
class Buffer {
 public:
  Buffer() = default;

  /// Buffer is a value handle to shared storage (like std::span): the
  /// pointer is writable even through a const handle.
  std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  SimAddr addr() const { return addr_; }
  Domain domain() const { return domain_; }
  NodeId node() const { return node_; }
  bool valid() const { return data_ != nullptr; }

  /// Simulated address one past the end.
  SimAddr end() const { return addr_ + size_; }

 private:
  friend class AddressSpace;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  SimAddr addr_ = 0;
  Domain domain_ = Domain::HostDram;
  NodeId node_ = -1;
};

struct OutOfMemory : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct BadAddress : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One node's memory in one domain. Hands out page-aligned regions at
/// monotonically increasing simulated addresses and resolves
/// (SimAddr, length) windows back to real storage for DMA.
class AddressSpace {
 public:
  static constexpr std::size_t kPage = 4096;

  AddressSpace(NodeId node, Domain domain, std::size_t capacity_bytes);

  /// Allocate `size` zero-filled bytes aligned to `align` (power of two,
  /// >= 1). The returned Buffer stays valid until free() or destruction.
  Buffer alloc(std::size_t size, std::size_t align = 64);

  /// Release a buffer's simulated address at once: resolve() inside it
  /// throws BadAddress from now on, pin() returns null and bytes_in_use()
  /// drops. Its storage lives on only while an earlier pin() holds it.
  void free(const Buffer& buf);

  /// Resolve a simulated window to real bytes. Throws BadAddress when the
  /// window is not fully inside one live allocation — the simulated
  /// equivalent of a DMA engine faulting on an unmapped page. The pointer
  /// is valid until the allocation is freed.
  std::byte* resolve(SimAddr addr, std::size_t len);

  /// True when [addr, addr+len) is fully inside one live allocation.
  bool contains(SimAddr addr, std::size_t len) const;

  /// The real bytes of [addr, addr+len), sharing ownership of the
  /// allocation's storage so that they outlive free() — registration
  /// pinning, as on real verbs. Null when the window is not fully inside
  /// one live allocation.
  std::shared_ptr<std::byte> pin(SimAddr addr, std::size_t len) const;

  NodeId node() const { return node_; }
  Domain domain() const { return domain_; }
  std::size_t bytes_in_use() const { return in_use_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t live_allocations() const { return regions_.size(); }

 private:
  struct Region {
    std::shared_ptr<std::byte[]> storage;
    std::size_t size;
  };
  using RegionMap = std::map<SimAddr, Region>;

  /// The live allocation holding all of [addr, addr+len), or end().
  RegionMap::const_iterator containing(SimAddr addr, std::size_t len) const;

  NodeId node_;
  Domain domain_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  SimAddr next_addr_;
  RegionMap regions_;  // keyed by start address
};

/// All memory of one node: a host DRAM space and a Phi GDDR space. The Phi
/// capacity default reflects the paper's note that "the memory consumption of
/// the test application is strictly limited" (no demand paging on the
/// micro-kernel).
class NodeMemory {
 public:
  explicit NodeMemory(NodeId node,
                      std::size_t host_bytes = 32ull << 30,
                      std::size_t phi_bytes = 6ull << 30);

  AddressSpace& space(Domain d);
  const AddressSpace& space(Domain d) const;

  Buffer alloc(Domain d, std::size_t size, std::size_t align = 64) {
    return space(d).alloc(size, align);
  }

  NodeId node() const { return node_; }

 private:
  NodeId node_;
  AddressSpace host_;
  AddressSpace phi_;
};

}  // namespace dcfa::mem
