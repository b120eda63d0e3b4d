#include "mpi/runtime.hpp"

#include "baselines/proxy_verbs.hpp"

namespace dcfa::mpi {

const char* mode_name(MpiMode mode) {
  switch (mode) {
    case MpiMode::DcfaPhi: return "DCFA-MPI";
    case MpiMode::DcfaPhiNoOffload: return "DCFA-MPI (no offload buffer)";
    case MpiMode::IntelPhi: return "Intel MPI on Xeon Phi";
    case MpiMode::HostMpi: return "host MPI";
  }
  return "?";
}

Runtime::Node::Node(sim::Engine& engine, int id,
                    const sim::Platform& platform)
    : memory(id, platform.host_dram_bytes, platform.phi_gddr_bytes),
      pcie(engine, memory, platform) {
  (void)engine;
}

Runtime::RankSlot::RankSlot(sim::Engine& engine, Node& node,
                            const sim::Platform& platform)
    : node(node), channel(engine, node.pcie, platform) {}

Runtime::Runtime(RunConfig config)
    : config_(std::move(config)),
      platform_(config_.mode == MpiMode::IntelPhi
                    ? baseline::proxy_mode_platform(config_.platform)
                    : config_.platform) {
  if (config_.nprocs <= 0) throw MpiError("Runtime: nprocs <= 0");
  if (config_.mode == MpiMode::IntelPhi ||
      config_.mode == MpiMode::DcfaPhiNoOffload) {
    config_.engine_options.offload_send_buffer = false;
  }
  sim_ = std::make_unique<sim::Engine>();
  // Force the lazy DcfaCheck creation here so a malformed DCFA_CHECK value
  // throws std::invalid_argument at construction (like a malformed
  // fault_spec) instead of surfacing mid-run from whichever rank or host
  // delegate happens to touch the checker first.
  sim_->checker();
  fabric_ = std::make_unique<ib::Fabric>(*sim_, platform_);
  if (!config_.fault_spec.empty()) {
    // One injector for the whole cluster: every HCA, delegation process and
    // MPI engine draws from the same deterministic fault stream.
    faults_ = std::make_unique<sim::FaultInjector>(
        sim::FaultInjector::Spec::parse(config_.fault_spec),
        config_.fault_seed);
    fabric_->set_faults(faults_.get());
  }
  bootstrap_ = std::make_unique<Bootstrap>();
  const bool on_phi = config_.mode != MpiMode::HostMpi;
  // One node per rank up to the cluster size; beyond that, ranks share
  // nodes round-robin (co-located ranks talk over the loopback path, as in
  // the intra-MIC related work of Section III-C).
  const int node_count = std::min(config_.nprocs, platform_.nodes);
  for (int n = 0; n < node_count; ++n) {
    auto node = std::make_unique<Node>(*sim_, n, platform_);
    fabric_->add_hca(node->memory, node->pcie);
    nodes_.push_back(std::move(node));
  }
  for (int r = 0; r < config_.nprocs; ++r) {
    Node& node = *nodes_[r % nodes_.size()];
    auto slot = std::make_unique<RankSlot>(*sim_, node, platform_);
    if (on_phi) {
      // The delegation process (mcexec + DCFA CMD server) comes up with
      // each executable loaded onto the card: one per rank.
      slot->delegate.emplace(slot->channel,
                             fabric_->hca_for_node(node.memory.node()),
                             node.memory);
      if (faults_) slot->delegate->set_faults(faults_.get());
    }
    slots_.push_back(std::move(slot));
  }
  stats_.resize(config_.nprocs);
}

Runtime::~Runtime() {
  // Rank threads stranded by a peer's exception are still parked inside
  // their bodies; they unwind (running mpi::Engine's destructor, which
  // detaches its CQ wake callback) only when joined. That must happen
  // before the fabric and nodes those destructors touch are freed —
  // members destroy in reverse declaration order, which would tear down
  // fabric_ first.
  if (sim_) sim_->join_all();
}

std::unique_ptr<verbs::Ib> Runtime::make_endpoint(sim::Process& proc,
                                                  RankSlot& slot) {
  std::unique_ptr<verbs::Ib> ep;
  switch (config_.mode) {
    case MpiMode::DcfaPhi:
    case MpiMode::DcfaPhiNoOffload:
      ep = std::make_unique<core::PhiVerbs>(proc, *fabric_, slot.node.memory,
                                            slot.channel);
      break;
    case MpiMode::IntelPhi:
      ep = std::make_unique<baseline::ProxyPhiVerbs>(
          proc, *fabric_, slot.node.memory, slot.channel);
      break;
    case MpiMode::HostMpi:
      ep = std::make_unique<verbs::HostVerbs>(proc, *fabric_,
                                              slot.node.memory);
      break;
  }
  if (!ep) throw MpiError("Runtime: unknown mode");
  if (faults_) ep->set_faults(faults_.get());
  return ep;
}

void Runtime::run(const std::function<void(RankCtx&)>& body) {
  if (ran_) throw MpiError("Runtime::run called twice");
  ran_ = true;

  sim::Tracer* tracer = config_.trace_path.empty()
                            ? nullptr
                            : &sim_->telemetry().enable_tracing();

  for (int r = 0; r < config_.nprocs; ++r) {
    RankSlot& slot = *slots_[r];
    sim_->spawn("rank" + std::to_string(r), [this, r, &slot,
                                             &body](sim::Process& proc) {
      Engine engine(r, config_.nprocs, make_endpoint(proc, slot), *bootstrap_,
                    config_.engine_options);
      engine.setup();

      std::vector<int> world(config_.nprocs);
      for (int i = 0; i < config_.nprocs; ++i) world[i] = i;
      Communicator comm(engine, /*id=*/0, std::move(world), r);

      std::optional<offload::Engine> off;
      if (config_.mode == MpiMode::HostMpi) {
        off.emplace(proc, slot.node.memory, slot.node.pcie, platform_);
      }

      RankCtx ctx{comm,      proc,
                  slot.node.memory, slot.node.pcie,
                  off ? &*off : nullptr, platform_,
                  r,         config_.nprocs};
      try {
        body(ctx);
      } catch (const RankKilled&) {
        // A rank_kill fate fired for this rank: park it without finalizing.
        // Its MRs stay registered so in-flight RDMA from survivors still
        // lands in valid (ignored) memory, mirroring how a crashed host's
        // HCA keeps DMA-ing until the fabric notices.
        stats_[r] = engine.stats();
        return;
      }

      engine.finalize();
      stats_[r] = engine.stats();
    });
  }
  try {
    sim_->run();
  } catch (...) {
    // A failed run's trace is the one most worth reading. The run's own
    // error is the one to report, so a failed write does not replace it.
    try {
      if (tracer) tracer->write(config_.trace_path);
    } catch (const std::runtime_error&) {
    }
    throw;
  }
  if (tracer) tracer->write(config_.trace_path);
}

sim::Time Runtime::elapsed() const { return sim_->now(); }

sim::Time run_mpi(RunConfig config, const std::function<void(RankCtx&)>& body) {
  Runtime rt(std::move(config));
  rt.run(body);
  return rt.elapsed();
}

}  // namespace dcfa::mpi
