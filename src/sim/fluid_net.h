// FluidNet: the one way to start a flow and the one owner of fluid state.
// It owns a set of domains (topology shards, each an independently-solved
// FluidScheduler on the shared clock, settled by the net's SolvePool) and
// routes every FlowSpec to the domain owning its resources — fabrics,
// hosts, storage and nodes all start their flows here. A spec whose
// resources span domains becomes a *boundary flow*: the flow itself lives
// in its home domain, and each foreign domain hosts a ghost flow mirroring
// the boundary flow's demand onto the foreign resources it crosses.
//
// The coupling runs at settle points, driven by the SolvePool (see
// solve_pool.h), which calls exchange() directly: after each parallel
// compute round the net publishes every boundary flow's freshly-solved
// home rate into its ghosts' rate caps, and folds the ghosts' *capacity
// offers* — the rate each foreign resource could grant the ghost, read off
// the last solve's binding level and free capacity — back into the home
// flow's boundary cap. Components whose inputs moved are re-solved, and
// the loop repeats until a fixed point (at which the cross-domain rates
// equal the merged single-domain max-min solution; see DESIGN.md §6). The
// exchange is serial and the commit order canonical, so timelines stay
// bit-identical at every worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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

  /// Routes `spec` to the domain owning its resources; every resource must
  /// be owned by a domain of this net. A spec spanning domains starts a
  /// boundary flow: the returned handle is the home flow — its
  /// rate/remaining/completion behave exactly like a local flow's, while
  /// ghost flows mirror its consumption into the foreign domains. A
  /// zero-work flow completes at once. Every resource must outlive the
  /// flow.
  FlowPtr start(FlowSpec spec);
  /// Coroutine helper: start the flow and wait for its completion.
  [[nodiscard]] Task run(FlowSpec spec);

  /// The pool driving every settle, parallel solves and the boundary
  /// exchange. Never null.
  [[nodiscard]] SolvePool* pool() { return pool_.get(); }

  [[nodiscard]] std::size_t boundary_flow_count() const { return boundary_.size(); }
  [[nodiscard]] std::size_t exchange_round_count() const {
    return pool_->exchange_round_count();
  }
  [[nodiscard]] std::size_t unconverged_exchange_count() const {
    return pool_->unconverged_exchange_count();
  }
  /// Exchange rounds the most recent coupled settle needed, and the worst
  /// any settle has needed — the regression gate for the round-cap safety
  /// valve (a healthy scenario stays far below SolvePool's cap).
  [[nodiscard]] std::size_t last_settle_exchange_rounds() const {
    return pool_->last_settle_exchange_rounds();
  }
  [[nodiscard]] std::size_t max_exchange_rounds_per_settle() const {
    return pool_->max_exchange_rounds_per_settle();
  }
  /// Cap publishes the exchange stored but did not re-solve for, because
  /// the cap stayed slack (non-binding) on both sides of the move. Each
  /// skip is a component re-solve (and possibly a whole extra exchange
  /// round) avoided; deep domain chains rely on this to keep settles from
  /// rippling caps across domains the change cannot affect.
  [[nodiscard]] std::size_t exchange_skip_count() const { return exchange_skips_; }

 private:
  /// One registered boundary flow: the home flow plus one ghost per
  /// foreign domain it crosses.
  struct GhostLink {
    FluidScheduler* sched = nullptr;
    FlowPtr ghost;
  };
  struct BoundaryFlow {
    FluidScheduler* home_sched = nullptr;
    FlowPtr home;
    std::vector<GhostLink> ghosts;
  };

  friend class SolvePool;

  /// Runs one Jacobi exchange over the boundary registry: publish each
  /// freshly-solved home rate into its ghosts' caps and fold the ghosts'
  /// capacity offers back into the home flow's boundary cap. Appends every
  /// (scheduler, component id) whose inputs moved to `dirtied`. Called by
  /// the pool, serially on the simulation thread between compute rounds.
  void exchange(std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied);

  /// Serially removes a finished boundary flow's ghost from its foreign
  /// component (preserving flow order) and retires it without firing its
  /// completion event.
  void retire_ghost(FluidScheduler& sched, Flow& ghost,
                    std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied);
  static void mark(FluidScheduler* sched, const Flow& flow,
                   std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied);

  Simulation* sim_;
  /// Declared before the domains: the pool outlives every scheduler
  /// attached to it.
  std::unique_ptr<SolvePool> pool_;
  std::vector<std::unique_ptr<FluidScheduler>> domains_;
  /// Registration order is the exchange's iteration order (deterministic,
  /// independent of worker count).
  std::vector<BoundaryFlow> boundary_;
  std::size_t exchange_skips_ = 0;
};

}  // namespace nm::sim
