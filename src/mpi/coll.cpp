#include "mpi/coll.hpp"

#include <string>

#include "mpi/types.hpp"
#include "sim/platform.hpp"

namespace dcfa::mpi {

const char* coll_algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::Auto: return "auto";
    case CollAlgo::Binomial: return "binomial";
    case CollAlgo::RecursiveDoubling: return "rd";
    case CollAlgo::Ring: return "ring";
    case CollAlgo::Rabenseifner: return "rab";
    case CollAlgo::ScatterAllgather: return "scatter_ag";
  }
  return "?";
}

CollAlgo select_allreduce(const sim::Platform& p, CollAlgo forced,
                          std::uint64_t bytes, int comm_size) {
  (void)comm_size;
  if (forced != CollAlgo::Auto) {
    if (forced == CollAlgo::ScatterAllgather) {
      throw MpiError("allreduce: cannot force algorithm 'scatter_ag'");
    }
    return forced;
  }
  if (bytes < p.coll_allreduce_small_max) return CollAlgo::RecursiveDoubling;
  if (bytes >= p.coll_allreduce_ring_min) return CollAlgo::Ring;
  return CollAlgo::Rabenseifner;
}

CollAlgo select_bcast(const sim::Platform& p, CollAlgo forced,
                      std::uint64_t bytes, int comm_size) {
  if (forced != CollAlgo::Auto) {
    if (forced != CollAlgo::Binomial && forced != CollAlgo::ScatterAllgather) {
      throw MpiError(std::string("bcast: cannot force algorithm '") +
                     coll_algo_name(forced) + "'");
    }
    return forced;
  }
  // The scatter phase costs an extra log2(P) latency term; with fewer than
  // four ranks the binomial tree already moves <= 2 full copies per rank.
  if (comm_size >= 4 && bytes >= p.coll_bcast_large_min) {
    return CollAlgo::ScatterAllgather;
  }
  return CollAlgo::Binomial;
}

CollAlgo select_allgather(const sim::Platform& p, CollAlgo forced,
                          std::uint64_t block_bytes, int comm_size) {
  const bool pow2 = (comm_size & (comm_size - 1)) == 0;
  CollAlgo a = forced;
  if (a != CollAlgo::Auto && a != CollAlgo::Ring &&
      a != CollAlgo::RecursiveDoubling) {
    throw MpiError(std::string("allgather: cannot force algorithm '") +
                   coll_algo_name(a) + "'");
  }
  if (a == CollAlgo::Auto) {
    a = (pow2 && block_bytes < p.coll_allreduce_small_max)
            ? CollAlgo::RecursiveDoubling
            : CollAlgo::Ring;
  }
  // Recursive doubling needs a power-of-two comm; fall back to ring.
  if (a == CollAlgo::RecursiveDoubling && !pow2) a = CollAlgo::Ring;
  return a;
}

}  // namespace dcfa::mpi
