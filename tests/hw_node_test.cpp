// Tests for the physical node/cluster model: compute fair-sharing,
// over-commit behaviour, and memory-write cost accounting.
#include <gtest/gtest.h>

#include <vector>

#include "hw/cluster.h"
#include "hw/node.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"

namespace nm::hw {
namespace {

NodeSpec agc_blade(const std::string& name) {
  NodeSpec spec;
  spec.name = name;
  spec.cores = 8.0;
  spec.memory = Bytes::gib(48);
  return spec;
}

TEST(Node, SingleComputeJobRunsAtOneCore) {
  sim::Simulation sim;
  sim::FluidNet net(sim);
  sim::FluidScheduler& sched = net.add_domain("d");
  Node node(sched, agc_blade("n0"));
  double done_at = -1;
  sim.spawn([](sim::Simulation& s, Node& n, double& t) -> sim::Task {
    co_await n.compute(3.0);
    t = s.now().to_seconds();
  }(sim, node, done_at));
  sim.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(Node, EightJobsFillEightCores) {
  sim::Simulation sim;
  sim::FluidNet net(sim);
  sim::FluidScheduler& sched = net.add_domain("d");
  Node node(sched, agc_blade("n0"));
  std::vector<double> done(8, -1);
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](sim::Simulation& s, Node& n, double& t) -> sim::Task {
      co_await n.compute(5.0);
      t = s.now().to_seconds();
    }(sim, node, done[i]));
  }
  sim.run();
  for (const double t : done) {
    EXPECT_NEAR(t, 5.0, 1e-6);  // no contention: 8 jobs, 8 cores
  }
}

TEST(Node, OvercommitHalvesThroughput) {
  // 16 vCPU-bound jobs on an 8-core blade (the paper's "2 hosts (TCP)"
  // consolidation case): each takes twice as long.
  sim::Simulation sim;
  sim::FluidNet net(sim);
  sim::FluidScheduler& sched = net.add_domain("d");
  Node node(sched, agc_blade("n0"));
  std::vector<double> done(16, -1);
  for (int i = 0; i < 16; ++i) {
    sim.spawn([](sim::Simulation& s, Node& n, double& t) -> sim::Task {
      co_await n.compute(5.0);
      t = s.now().to_seconds();
    }(sim, node, done[i]));
  }
  sim.run();
  for (const double t : done) {
    EXPECT_NEAR(t, 10.0, 1e-6);
  }
}

TEST(Node, MemWriteCostMatchesBandwidth) {
  sim::Simulation sim;
  sim::FluidNet net(sim);
  sim::FluidScheduler& sched = net.add_domain("d");
  NodeSpec spec = agc_blade("n0");
  spec.mem_write_bw = Bandwidth::gib_per_sec(2.0);
  Node node(sched, spec);
  EXPECT_NEAR(node.mem_write_cost(Bytes::gib(4)), 2.0, 1e-12);
}

TEST(Cluster, AddAndFindNodes) {
  sim::Simulation sim;
  sim::FluidNet net(sim);
  sim::FluidScheduler& sched = net.add_domain("d");
  Cluster cluster("ib-cluster");
  for (int i = 0; i < 8; ++i) {
    cluster.add_node(sched, agc_blade("ib" + std::to_string(i)));
  }
  EXPECT_EQ(cluster.size(), 8u);
  EXPECT_EQ(cluster.node(3).name(), "ib3");
  ASSERT_NE(cluster.find("ib7"), nullptr);
  EXPECT_EQ(cluster.find("ib7")->name(), "ib7");
  EXPECT_EQ(cluster.find("nope"), nullptr);
  EXPECT_THROW((void)cluster.node(8), LogicError);
}

}  // namespace
}  // namespace nm::hw
