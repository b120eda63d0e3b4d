#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

#include "mem/memory.hpp"
#include "sim/check.hpp"

/// Bounds-checked copies between wire-format structs and registered memory.
///
/// Every eager-ring / credit-cell / pulse copy in the engine goes through
/// these helpers instead of naked memcpy so that (a) an offset bug raises a
/// structured DcfaCheck wire-bounds diagnostic instead of corrupting the
/// neighbouring slot, and (b) `scripts/dcfa_lint.py` can forbid raw memcpy
/// into registered MRs everywhere else. The checks are unconditional — they
/// cost two compares against values already in cache, and an overrun is
/// memory corruption regardless of DCFA_CHECK level.
namespace dcfa::mpi::wire {

namespace detail {
[[noreturn]] inline void overrun(const char* what, std::size_t off,
                                 std::size_t len, std::size_t size) {
  sim::Checker::wire_bounds_violation(
      std::string(what) + ": copy of " + std::to_string(len) +
      " bytes at offset " + std::to_string(off) + " overruns " +
      std::to_string(size) + "-byte buffer");
}

inline void check(const char* what, const mem::Buffer& buf, std::size_t off,
                  std::size_t len) {
  if (off > buf.size() || len > buf.size() - off)
    overrun(what, off, len, buf.size());
}
}  // namespace detail

/// Copy a trivially-copyable wire struct into `buf` at `off`.
template <typename T>
inline void put(const mem::Buffer& buf, std::size_t off, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire structs must be trivially copyable");
  detail::check("wire::put", buf, off, sizeof(T));
  std::memcpy(buf.data() + off, &value, sizeof(T));
}

/// Read a trivially-copyable wire struct out of `buf` at `off`.
template <typename T>
inline T get(const mem::Buffer& buf, std::size_t off) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire structs must be trivially copyable");
  detail::check("wire::get", buf, off, sizeof(T));
  T value;
  std::memcpy(&value, buf.data() + off, sizeof(T));
  return value;
}

/// Copy `len` raw payload bytes into `buf` at `off`.
inline void put_bytes(const mem::Buffer& buf, std::size_t off,
                      const void* src, std::size_t len) {
  detail::check("wire::put_bytes", buf, off, len);
  if (len > 0) std::memcpy(buf.data() + off, src, len);
}

/// Copy `len` raw payload bytes out of `buf` at `off`.
inline void get_bytes(void* dst, const mem::Buffer& buf, std::size_t off,
                      std::size_t len) {
  detail::check("wire::get_bytes", buf, off, len);
  if (len > 0) std::memcpy(dst, buf.data() + off, len);
}

}  // namespace dcfa::mpi::wire
