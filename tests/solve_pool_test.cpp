// SolvePool settle batches: every dirty component is computed exactly once
// per settle, whatever the mark order and the worker count.
#include <gtest/gtest.h>

#include <cstddef>

#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "sim/solve_pool.h"

namespace nm::sim {
namespace {

struct MergeReuseRun {
  std::size_t solved = 0;  // components the instant's settle computed
  std::size_t live_dirty = 0;
  double bridge_rate = 0.0;
  double fresh_rate = 0.0;
};

// Builds the merge-then-reuse instant: two single-flow components are
// dirtied, a flow bridges them (the second component merges away and
// frees its id), and a flow on a fresh resource opens a component that
// reuses that id — so the domain's dirty list names the id twice.
MergeReuseRun run_merge_then_reuse(int workers) {
  struct Scene {
    Simulation sim;
    FluidNet net;
    FluidScheduler& dom;
    FluidResource r1;
    FluidResource r2;
    FluidResource r3;
    FlowPtr f1, f2, bridge, fresh;
    std::size_t live_dirty = 0;

    explicit Scene(int workers)
        : net(sim, workers),
          dom(net.add_domain("d")),
          r1(dom, "r1", 10.0),
          r2(dom, "r2", 10.0),
          r3(dom, "r3", 10.0) {}
  } sc(workers);
  sc.f1 = sc.net.start(FlowSpec{.work = 1e6}.over(sc.r1));
  sc.f2 = sc.net.start(FlowSpec{.work = 1e6}.over(sc.r2));
  sc.sim.run_for(Duration::seconds(1));
  EXPECT_EQ(sc.dom.component_count(), 2u);

  const std::size_t before = sc.net.pool()->solved_component_count();
  sc.sim.post(Duration::zero(), [s = &sc] {
    s->f1->set_max_rate(4.0);
    s->f2->set_max_rate(4.0);
    s->bridge = s->net.start(FlowSpec{.work = 1e6}.over(s->r1).over(s->r2));
    s->fresh = s->net.start(FlowSpec{.work = 1e6}.over(s->r3));
    s->live_dirty = s->dom.component_count();
  });
  sc.sim.run_for(Duration::seconds(1));
  MergeReuseRun out;
  out.solved = sc.net.pool()->solved_component_count() - before;
  out.live_dirty = sc.live_dirty;
  out.bridge_rate = sc.bridge->current_rate();
  out.fresh_rate = sc.fresh->current_rate();
  return out;
}

TEST(SolvePool, MergedAwayIdReusedInOneInstantIsSolvedOnce) {
  for (const int workers : {0, 2}) {
    const MergeReuseRun run = run_merge_then_reuse(workers);
    EXPECT_EQ(run.live_dirty, 2u) << "workers=" << workers;
    EXPECT_EQ(run.solved, run.live_dirty) << "workers=" << workers;
    // r1 and r2 each carry a 4-capped flow plus the bridge: it takes the
    // remaining 6; the fresh flow has r3 to itself.
    EXPECT_DOUBLE_EQ(run.bridge_rate, 6.0) << "workers=" << workers;
    EXPECT_DOUBLE_EQ(run.fresh_rate, 10.0) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace nm::sim
