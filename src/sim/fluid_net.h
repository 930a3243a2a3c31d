// FluidNet: the one way to start a flow and the one owner of fluid state.
// It owns a set of domains (topology shards, each an independently-solved
// FluidScheduler on the shared clock, settled by the net's SolvePool) and
// routes every FlowSpec to the domain owning its resources — fabrics,
// hosts, storage and nodes all start their flows here.
//
// A flow's resources must all belong to one domain: a spec spanning two is
// rejected with LogicError. Domains therefore only split topologies that
// share no flow (disjoint pods, shards built from parallel threads), and
// anything coupled — a federation's sites, WAN links and shared store —
// lives in one domain, where one solve computes the exact max-min rates.
// The SolvePool parallelizes over dirty components whatever their domain,
// and commits in canonical (domain id, component id) order, so timelines
// stay bit-identical at every worker count (DESIGN.md §5/§6).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fluid.h"
#include "sim/solve_pool.h"
#include "sim/task.h"

namespace nm::sim {

class FluidNet final {
 public:
  /// A net over `sim` whose SolvePool runs `workers` compute threads (0:
  /// the simulation thread solves every batch itself). Every domain settles
  /// through that pool, whatever the domain and worker counts.
  explicit FluidNet(Simulation& sim, int workers = 0);
  FluidNet(const FluidNet&) = delete;
  FluidNet& operator=(const FluidNet&) = delete;

  /// Adds a topology shard: the only way to create a FluidScheduler. The
  /// domain attaches to this net's pool at once; its id is the add order.
  FluidScheduler& add_domain(std::string name);
  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] FluidScheduler& domain(std::size_t index);
  /// The domain owning `res`, or nullptr when the resource's domain is
  /// gone or belongs to another net.
  [[nodiscard]] FluidScheduler* domain_of(const FluidResource& res);

  [[nodiscard]] Simulation& simulation() { return *sim_; }

  /// Routes `spec` to the domain owning its resources. Every resource must
  /// be owned by one and the same domain of this net (LogicError
  /// otherwise). A zero-work flow completes at once. Every resource must
  /// outlive the flow.
  FlowPtr start(FlowSpec spec);
  /// Coroutine helper: start the flow and wait for its completion.
  [[nodiscard]] Task run(FlowSpec spec);

  /// The pool driving every settle and parallel solve. Never null.
  [[nodiscard]] SolvePool* pool() { return pool_.get(); }

  /// Always 0: there is no boundary exchange any more. Kept only for
  /// perfbench's sim.exchange.skips; the next perfbench change removes it.
  [[nodiscard]] std::size_t exchange_skip_count() const { return 0; }

 private:
  Simulation* sim_;
  /// Declared before the domains: the pool outlives every scheduler
  /// attached to it.
  std::unique_ptr<SolvePool> pool_;
  std::vector<std::unique_ptr<FluidScheduler>> domains_;
};

}  // namespace nm::sim
