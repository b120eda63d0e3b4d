#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace dcfa::sim {

/// Calibrated hardware model of the paper's evaluation platform (Table I):
/// 8 nodes, each Intel Xeon E5-2670 (16 cores) + one pre-production Intel
/// Xeon Phi (KNC, 56 usable cores for OpenMP) + Mellanox ConnectX-3 FDR
/// InfiniBand, all on PCI Express.
///
/// Every constant is tied to a paper observation; the comments say which.
/// Benches can tweak individual fields for sensitivity/ablation studies.
struct Platform {
  // --- Cluster shape -------------------------------------------------------
  int nodes = 8;              ///< Paper: "8 node cluster".
  int host_cores = 16;        ///< Xeon E5-2670 x2 sockets.
  int phi_cores = 56;         ///< Paper runs up to 56 OpenMP threads/card.
  /// Memory capacities. The card is small and has no demand paging — the
  /// paper's stencil is sized to fit ("the memory consumption of the test
  /// application is strictly limited").
  std::uint64_t host_dram_bytes = 32ull << 30;
  std::uint64_t phi_gddr_bytes = 6ull << 30;

  // --- InfiniBand wire (ConnectX-3 FDR, through one switch) ---------------
  /// Effective wire bandwidth. Host<->host IB delivers ~6 GB/s on FDR, the
  /// ceiling the paper's Figure 5 host-to-host curve approaches.
  double ib_wire_gbps = 6.0;
  /// Per-hop propagation + switching latency; two hops via the switch give
  /// the ~1.4us wire component of small-message latency.
  Time ib_hop_latency = nanoseconds(700);
  int ib_hops = 2;
  /// WQE fetch/doorbell processing inside the HCA per work request.
  Time hca_wqe_overhead = nanoseconds(300);
  /// Pipelining granularity for large transfers (source DMA / wire /
  /// destination DMA stages overlap at this chunk size).
  std::uint64_t ib_chunk_bytes = 64 * 1024;
  /// Receiver-not-ready NAK/retry delay for Send arriving before a Recv.
  Time rnr_retry_delay = microseconds(5);

  // --- HCA-initiated PCIe DMA (the Figure 5 asymmetry) ---------------------
  /// HCA reading a send buffer in host DRAM: full PCIe gen2 x16 rate.
  double hca_read_host_gbps = 6.5;
  Time hca_read_host_latency = nanoseconds(300);
  /// HCA reading a send buffer in Phi GDDR across PCIe peer-to-peer: the
  /// pre-production KNC bottleneck. Paper: "Xeon Phi to Xeon Phi InfiniBand
  /// data transfer is always slower than host to host, by more than 4
  /// times"; Figure 9 caps the un-offloaded path near 1 GB/s.
  double hca_read_phi_gbps = 1.25;
  Time hca_read_phi_latency = nanoseconds(1200);
  /// HCA writing a receive buffer in host DRAM.
  double hca_write_host_gbps = 6.5;
  Time hca_write_host_latency = nanoseconds(300);
  /// HCA writing into Phi GDDR: fast. Paper Figure 5: "data transfer from a
  /// host buffer to a remote Xeon Phi co-processor buffer delivers the same
  /// bandwidth as host to host".
  double hca_write_phi_gbps = 6.0;
  Time hca_write_phi_latency = nanoseconds(500);

  // --- Phi DMA engine (used by sync_offload_mr and SCIF/offload copies) ----
  /// The co-processor's own DMA engine pushes/pulls host memory at full PCIe
  /// rate in both directions; this is why staging sends through a host
  /// shadow buffer (the offloading send buffer design) wins.
  double phi_dma_gbps = 6.2;
  Time phi_dma_setup = nanoseconds(5000);

  // --- CPU-side software overheads ----------------------------------------
  /// Posting a verb / touching a doorbell from a host core.
  Time host_post_overhead = nanoseconds(300);
  /// Same from a Phi core: ~1GHz in-order core, several times slower.
  Time phi_post_overhead = nanoseconds(2200);
  /// Completion-queue poll cost (per poll that finds something).
  Time host_poll_overhead = nanoseconds(200);
  Time phi_poll_overhead = nanoseconds(1200);
  /// memcpy bandwidth of one core (eager-protocol copies). Paper IV-B3:
  /// "the data copy operation on the Xeon Phi co-processor spends less than
  /// 1 microsecond for 4Kbytes" => >4 GB/s single-core.
  double host_memcpy_gbps = 12.0;
  double phi_memcpy_gbps = 5.0;
  /// Strided pack/unpack throughput (derived datatypes). Scattered small
  /// blocks defeat the in-order Phi core's prefetchers far more than they
  /// hurt the host's — the gap behind the future-work datatype offloading.
  double host_pack_gbps = 6.0;
  double phi_pack_gbps = 1.2;
  /// Element-wise reduction throughput of one core (collective combines).
  /// The host's wide SIMD units vs a 1 GHz in-order Phi core — the gap the
  /// future-work collective offloading exploits.
  double host_reduce_gbps = 8.0;
  double phi_reduce_gbps = 1.0;
  /// Minimum vector size (bytes) for which delegating a reduction or a
  /// datatype pack to the host pays for the extra PCIe traffic.
  std::uint64_t mpi_offload_threshold = 64 * 1024;

  // --- Memory-region registration (motivates the MR cache pool) -----------
  /// Host ibv_reg_mr: syscall + pinning.
  Time host_reg_mr_base = microseconds(12);
  Time host_reg_mr_per_page = nanoseconds(150);
  /// Phi registration goes through the DCFA CMD offload path: syscall into
  /// the micro-kernel (virtual->physical translation of the user buffer),
  /// SCIF hop to the host delegation process, host-side pinning, reply.
  /// Paper IV-B3: "much more expensive than that on the host".
  Time dcfa_cmd_client_overhead = microseconds(4);
  Time phi_reg_mr_per_page = nanoseconds(450);

  // --- SCIF / 'Intel MPI on Xeon Phi' proxy path ---------------------------
  /// Small-message latency of one SCIF hop (ring doorbell + host wakeup).
  Time scif_msg_latency = microseconds(2.5);
  /// Extra per-message latency of the IB-proxy daemon path each way. With
  /// the DCFA small-message one-way time of ~7.5us, this yields the paper's
  /// 28us (proxy) vs 15us (DCFA) 4-byte round trips (Figure 9).
  Time proxy_hop_latency = microseconds(5.8);
  /// Large-message ceiling of the proxy path. Paper: "'Intel MPI on Xeon Phi
  /// co-processors' mode cannot get bandwidth greater than 1 Gbytes/s".
  double proxy_bw_gbps = 0.95;

  // --- Offload runtime ('Intel MPI on Xeon + offload' baseline) ------------
  /// Fixed cost of one optimised asynchronous offload_transfer (pre-pinned,
  /// 4 KiB-aligned buffers). Figure 10: at <128B the offload mode is ~12x
  /// slower than DCFA-MPI's ~15us exchange => ~180us per iteration, split
  /// between copy-in, copy-out and the host MPI exchange.
  Time offload_transfer_fixed = microseconds(68);
  /// Per-offload-region launch cost: signal the card, wake the OpenMP team.
  Time offload_launch_base = microseconds(95);
  Time offload_launch_per_thread = microseconds(1.6);
  /// Penalty multiplier applied to unaligned / non-4KiB-multiple transfers
  /// (paper lists 4 KiB alignment as one of its offload optimisations).
  double offload_misaligned_bw_factor = 0.5;
  Time offload_misaligned_extra = microseconds(0);

  // --- Compute model (five-point stencil, Section V third experiment) ------
  /// Per-point update cost of the serial stencil on one Phi core.
  Time phi_point_time = nanoseconds(55);
  /// Host core is ~6x faster per scalar point than a 1GHz in-order KNC core.
  Time host_point_time = nanoseconds(9);
  /// OpenMP efficiency curve e(T) = 1 / (1 + alpha * (T - 1)): shared GDDR
  /// bandwidth limits scaling. Calibrated so that 8 procs x 56 threads gives
  /// the paper's 117x (DCFA-MPI) overall speed-up.
  double phi_thread_alpha = 0.0442;
  double host_thread_alpha = 0.015;
  /// OpenMP fork/join per parallel region.
  Time omp_fork_base = microseconds(3);
  Time omp_fork_per_thread = nanoseconds(300);

  // --- DCFA-MPI tunables (paper defaults) ----------------------------------
  /// Eager/rendezvous switch: messages of size < eager_threshold use the
  /// one-copy eager path; larger ones are zero-copy rendezvous. IV-B3.
  std::uint64_t eager_threshold = 8 * 1024;
  /// Offloading send buffer kicks in at 8 KiB: "an offloading send buffer
  /// starting from 8Kbytes shows the best performance" (IV-B4). Applies to
  /// sends of size >= the threshold.
  std::uint64_t offload_send_threshold = 8 * 1024;
  /// Eager ring: slots per peer and max payload bytes per slot.
  int eager_slots = 16;
  std::uint64_t eager_max_payload = 8 * 1024;
  /// MR cache pool capacity (entries / bytes).
  int mr_cache_entries = 64;
  std::uint64_t mr_cache_bytes = 256ull * 1024 * 1024;

  // --- Collectives engine (src/mpi/coll.hpp, docs/collectives.md) ----------
  /// Allreduce: below this message size latency dominates and recursive
  /// doubling's ceil(log2 P) full-vector rounds win over the
  /// bandwidth-optimal algorithms.
  std::uint64_t coll_allreduce_small_max = 4096;
  /// Allreduce: between small_max and ring_min, Rabenseifner (recursive-
  /// halving reduce-scatter + recursive-doubling allgather) moves the same
  /// (P-1)/P*n bytes per phase as the ring but in log2(P) instead of P-1
  /// steps, so it wins the whole mid range. At and above ring_min the
  /// per-step latency is fully amortised and the pipelined ring's
  /// send/recv/combine overlap takes over (abl_collectives: the two are
  /// within ~2% at 8 MiB and the ring leads beyond).
  std::uint64_t coll_allreduce_ring_min = 8ull << 20;
  /// Bcast: at and above this size the scatter + ring-allgather algorithm
  /// (van de Geijn, ~2n/P per link) replaces the binomial tree, which moves
  /// the full message log2(P) times down the critical path.
  std::uint64_t coll_bcast_large_min = 2ull << 20;
  /// Segment size for pipelined collective phases: >= eager_threshold so
  /// segments take the zero-copy rendezvous path, small enough that the
  /// combine of segment k overlaps the transfer of segment k+1. The
  /// abl_collectives segment sweep puts the elbow here.
  std::uint64_t coll_segment_bytes = 256 * 1024;

  // --- Fault recovery (active only when a fault spec arms the injector) ----
  /// Base retransmit timeout for eager packets and rendezvous control
  /// messages; doubles on every retry (bounded exponential backoff). Sized
  /// well above the worst-case wire round trip so the happy path never
  /// triggers it spuriously.
  Time mpi_retry_timeout = microseconds(60);
  /// Retransmit budget per operation; exceeding it raises MpiError.
  int mpi_max_retries = 6;
  /// CMD-channel delegation: reply timeout, retry backoff step, and budget.
  Time dcfa_cmd_timeout = microseconds(100);
  Time dcfa_cmd_retry_backoff = microseconds(10);
  int dcfa_cmd_max_retries = 4;

  // --- Connection recovery (active only when *fatal* faults are armed) -----
  /// Peer liveness: while a rank's traffic depends on a peer and none of its
  /// WRs toward that peer is in flight, it RDMA-reads the peer's credit
  /// cell once per period. A dead peer's HCA does not answer, and the read
  /// fails after the transport deadline (ib::kTransportDeadline).
  Time mpi_heartbeat_period = microseconds(50);
  /// Cumulative reconnect budget per endpoint: after this many epoch bumps
  /// the endpoint stops re-establishing and the operation fails cleanly
  /// (MpiError), so an unbounded error storm still terminates.
  int mpi_max_reconnects = 3;
  /// Delegate-death budget: how many times one reconnect may retry its
  /// resource re-creation through a dead CMD channel (each attempt already
  /// pays the full CMD retry budget) before the endpoint degrades to the
  /// host-proxy path instead of aborting.
  int dcfa_delegate_death_budget = 1;

  /// Default platform as used by the paper's evaluation.
  static Platform defaults() { return Platform{}; }
};

}  // namespace dcfa::sim
