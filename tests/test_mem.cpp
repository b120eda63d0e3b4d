// Unit tests for the simulated memory: allocation, alignment, address
// resolution, domain isolation, capacity accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/memory.hpp"

using namespace dcfa::mem;

TEST(AddressSpace, AllocatesAlignedDistinctRegions) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer a = space.alloc(100, 64);
  Buffer b = space.alloc(100, 4096);
  EXPECT_NE(a.addr(), b.addr());
  EXPECT_EQ(a.addr() % 64, 0u);
  EXPECT_EQ(b.addr() % 4096, 0u);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.domain(), Domain::HostDram);
  EXPECT_EQ(a.node(), 0);
}

TEST(AddressSpace, ZeroInitialised) {
  // Zero-filling is part of the determinism contract, for fresh pages and
  // for storage the host allocator recycles from a freed buffer alike:
  // each round dirties its buffers, so the next round's allocations see
  // those bytes wherever the allocator hands the same chunks back.
  const std::vector<std::size_t> sizes = {8, 4096, 64 << 10, 512 << 10,
                                          4 << 20};
  AddressSpace space(0, Domain::PhiGddr, 64 << 20);
  for (int round = 0; round < 4; ++round) {
    std::vector<Buffer> bufs;
    for (std::size_t size : sizes) {
      Buffer b = space.alloc(size);
      std::byte* end = b.data() + b.size();
      EXPECT_EQ(std::find_if(b.data(), end,
                             [](std::byte v) { return v != std::byte{0}; }),
                end)
          << size << " bytes, round " << round;
      std::memset(b.data(), 0xA5, b.size());
      bufs.push_back(b);
    }
    for (const Buffer& b : bufs) space.free(b);
  }
}

TEST(AddressSpace, ResolveReturnsBackingStorage) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(256);
  b.data()[17] = std::byte{0xAB};
  std::byte* p = space.resolve(b.addr() + 17, 1);
  EXPECT_EQ(*p, std::byte{0xAB});
}

TEST(AddressSpace, ResolveRejectsOutOfBoundsWindows) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(256);
  EXPECT_NO_THROW(space.resolve(b.addr(), 256));
  EXPECT_THROW(space.resolve(b.addr(), 257), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() + 200, 100), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() - 1, 1), BadAddress);
  EXPECT_THROW(space.resolve(0xdeadbeef, 1), BadAddress);
}

TEST(AddressSpace, ContainsMatchesResolve) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(128);
  EXPECT_TRUE(space.contains(b.addr(), 128));
  EXPECT_TRUE(space.contains(b.addr() + 64, 64));
  EXPECT_FALSE(space.contains(b.addr(), 129));
  EXPECT_FALSE(space.contains(b.addr() + 120, 16));
}

TEST(AddressSpace, FreeInvalidatesResolution) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(128);
  space.free(b);
  EXPECT_THROW(space.resolve(b.addr(), 1), BadAddress);
  EXPECT_THROW(space.free(b), BadAddress);
  EXPECT_EQ(space.bytes_in_use(), 0u);
}

TEST(AddressSpace, CapacityEnforced) {
  // The Phi has no demand paging: exhausting GDDR must fail loudly.
  AddressSpace space(0, Domain::PhiGddr, 1000);
  Buffer a = space.alloc(600);
  EXPECT_THROW(space.alloc(600), OutOfMemory);
  space.free(a);
  EXPECT_NO_THROW(space.alloc(600));
}

TEST(AddressSpace, RejectsBadArguments) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  EXPECT_THROW(space.alloc(0), std::invalid_argument);
  EXPECT_THROW(space.alloc(16, 3), std::invalid_argument);  // not power of 2
  EXPECT_THROW(space.alloc(16, 0), std::invalid_argument);
}

TEST(AddressSpace, GuardGapsBetweenAllocations) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer a = space.alloc(64);
  Buffer b = space.alloc(64);
  // A window running off the end of `a` must fault rather than bleed into
  // `b` (catches off-by-one DMA descriptors).
  EXPECT_GT(b.addr(), a.end());
  EXPECT_THROW(space.resolve(a.addr() + 32, 64), BadAddress);
}

TEST(Buffer, SliceIsAViewOfItsParent) {
  AddressSpace space(0, Domain::PhiGddr, 1 << 20);
  Buffer chunk = space.alloc(512, 4096);
  Buffer s = chunk.slice(128, 64);
  EXPECT_EQ(s.addr(), chunk.addr() + 128);
  EXPECT_EQ(s.data(), chunk.data() + 128);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_EQ(s.domain(), Domain::PhiGddr);
  EXPECT_EQ(s.node(), 0);
  // The view shares storage: bytes written through it resolve in the parent.
  s.data()[0] = std::byte{0x5A};
  EXPECT_EQ(space.resolve(chunk.addr() + 128, 1)[0], std::byte{0x5A});
  EXPECT_EQ(chunk.slice(448, 64).end(), chunk.end());
  EXPECT_THROW((void)chunk.slice(449, 64), std::out_of_range);
  EXPECT_THROW((void)chunk.slice(513, 0), std::out_of_range);
  EXPECT_THROW((void)s.slice(0, 65), std::out_of_range);
}

TEST(NodeMemory, DomainsAreIsolated) {
  NodeMemory node(3);
  Buffer h = node.alloc(Domain::HostDram, 128);
  Buffer p = node.alloc(Domain::PhiGddr, 128);
  EXPECT_NE(h.addr(), p.addr());
  // A host address never resolves in the GDDR space and vice versa.
  EXPECT_THROW(node.space(Domain::PhiGddr).resolve(h.addr(), 1), BadAddress);
  EXPECT_THROW(node.space(Domain::HostDram).resolve(p.addr(), 1), BadAddress);
}

TEST(NodeMemory, DistinctNodesHaveDistinctAddressBases) {
  NodeMemory n0(0), n1(1);
  Buffer a = n0.alloc(Domain::HostDram, 64);
  // Node 0's address must not resolve on node 1 even accidentally.
  EXPECT_THROW(n1.space(Domain::HostDram).resolve(a.addr(), 1), BadAddress);
}

TEST(NodeMemory, ManyAllocationsStayDisjoint) {
  NodeMemory node(0);
  std::vector<Buffer> bufs;
  for (int i = 0; i < 200; ++i) {
    bufs.push_back(node.alloc(Domain::HostDram, 1 + (i * 37) % 5000));
  }
  for (std::size_t i = 1; i < bufs.size(); ++i) {
    EXPECT_GE(bufs[i].addr(), bufs[i - 1].end());
  }
  EXPECT_EQ(node.space(Domain::HostDram).live_allocations(), 200u);
}
