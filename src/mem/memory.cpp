#include "mem/memory.hpp"

#include <cstdlib>
#include <new>

namespace dcfa::mem {

const char* domain_name(Domain d) {
  return d == Domain::HostDram ? "host" : "phi";
}

namespace {
std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}
// Distinct simulated address bases per (node, domain) so that a stray
// address from the wrong space can never resolve by accident.
SimAddr base_for(NodeId node, Domain d) {
  return (static_cast<SimAddr>(node + 1) << 40) |
         (d == Domain::PhiGddr ? (1ull << 39) : 0);
}
}  // namespace

AddressSpace::AddressSpace(NodeId node, Domain domain,
                           std::size_t capacity_bytes)
    : node_(node),
      domain_(domain),
      capacity_(capacity_bytes),
      next_addr_(base_for(node, domain) + kPage) {}

Buffer AddressSpace::alloc(std::size_t size, std::size_t align) {
  if (size == 0) throw std::invalid_argument("AddressSpace::alloc: size 0");
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("AddressSpace::alloc: bad alignment");
  }
  if (in_use_ + size > capacity_) {
    throw OutOfMemory(std::string(domain_name(domain_)) +
                      " memory exhausted on node " + std::to_string(node_) +
                      " (" + std::to_string(in_use_) + " in use, " +
                      std::to_string(size) + " requested)");
  }
  SimAddr addr = round_up(next_addr_, align);
  // Leave a guard gap so off-by-one windows never touch a neighbour.
  next_addr_ = round_up(addr + size + kPage, kPage);

  // calloc zeroes each allocation exactly once, and not at all on pages
  // fresh from the kernel, so untouched simulated memory costs nothing.
  auto* bytes = static_cast<std::byte*>(std::calloc(size, 1));
  if (!bytes) throw std::bad_alloc();
  Region region;
  region.storage = std::shared_ptr<std::byte[]>(
      bytes, [](std::byte* p) { std::free(p); });
  region.size = size;

  Buffer buf;
  buf.data_ = region.storage.get();
  buf.size_ = size;
  buf.addr_ = addr;
  buf.domain_ = domain_;
  buf.node_ = node_;

  regions_.emplace(addr, std::move(region));
  in_use_ += size;
  return buf;
}

void AddressSpace::free(const Buffer& buf) {
  auto it = regions_.find(buf.addr());
  if (it == regions_.end()) {
    throw BadAddress("AddressSpace::free: unknown buffer");
  }
  in_use_ -= it->second.size;
  regions_.erase(it);
}

std::byte* AddressSpace::resolve(SimAddr addr, std::size_t len) {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    throw BadAddress("DMA fault: address " + std::to_string(addr) +
                     " not mapped in " + domain_name(domain_) + " of node " +
                     std::to_string(node_));
  }
  --it;
  const SimAddr start = it->first;
  const Region& region = it->second;
  if (addr < start || addr + len > start + region.size) {
    throw BadAddress("DMA fault: window [" + std::to_string(addr) + ", +" +
                     std::to_string(len) + ") escapes allocation in " +
                     domain_name(domain_) + " of node " +
                     std::to_string(node_));
  }
  return region.storage.get() + (addr - start);
}

AddressSpace::RegionMap::const_iterator AddressSpace::containing(
    SimAddr addr, std::size_t len) const {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return regions_.end();
  --it;
  const bool inside =
      addr >= it->first && addr + len <= it->first + it->second.size;
  return inside ? it : regions_.end();
}

bool AddressSpace::contains(SimAddr addr, std::size_t len) const {
  return containing(addr, len) != regions_.end();
}

std::shared_ptr<std::byte> AddressSpace::pin(SimAddr addr,
                                             std::size_t len) const {
  auto it = containing(addr, len);
  if (it == regions_.end()) return nullptr;
  const std::shared_ptr<std::byte[]>& storage = it->second.storage;
  return {storage, storage.get() + (addr - it->first)};
}

NodeMemory::NodeMemory(NodeId node, std::size_t host_bytes,
                       std::size_t phi_bytes)
    : node_(node),
      host_(node, Domain::HostDram, host_bytes),
      phi_(node, Domain::PhiGddr, phi_bytes) {}

AddressSpace& NodeMemory::space(Domain d) {
  return d == Domain::HostDram ? host_ : phi_;
}

const AddressSpace& NodeMemory::space(Domain d) const {
  return d == Domain::HostDram ? host_ : phi_;
}

}  // namespace dcfa::mem
