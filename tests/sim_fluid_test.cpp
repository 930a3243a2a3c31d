// Tests for the max-min fair fluid scheduler: single flows, contention,
// per-flow caps, capacity changes, pause/resume, conservation properties
// under randomized loads, and the one-domain-per-flow admission rule.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "util/error.h"
#include "util/rng.h"

namespace nm::sim {
namespace {

/// One domain of a 0-worker FluidNet: the settle path every workload runs.
class Fluid : public ::testing::Test {
 protected:
  Simulation sim;
  FluidNet net{sim};
  FluidScheduler& sched = net.add_domain("d");
};

TEST_F(Fluid, SingleFlowUsesFullCapacity) {
  FluidResource nic(sched, "nic", 100.0);  // 100 units/s
  double done_at = -1;
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 500.0}.over(r));
    t = s.now().to_seconds();
  }(sim, net, nic, done_at));
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}

TEST_F(Fluid, ZeroWorkCompletesImmediately) {
  FluidResource r(sched, "r", 10.0);
  auto flow = net.start(FlowSpec{.work = 0.0}.over(r));
  EXPECT_TRUE(flow->finished());
  EXPECT_EQ(r.active_flows(), 0u);
}

TEST_F(Fluid, FinishedIsAPureReadUntilTheSettleCommits) {
  // The flow's completion timer fires at t = 1 s and only marks its
  // component dirty; a same-instant reader that runs after the timer must
  // not solve the component itself: the flow finishes when the
  // end-of-instant settle commits it.
  FluidResource r(sched, "r", 100.0);
  auto flow = net.start(FlowSpec{.work = 100.0}.over(r));
  bool read_before_settle = true;
  sim.post(Duration::nanos(1), [&] {
    // Posted after the first settle armed the timer, so it runs after it.
    sim.post(Duration::seconds(1.0) - Duration::nanos(1),
             [&] { read_before_settle = flow->finished(); });
  });
  sim.run();
  EXPECT_FALSE(read_before_settle);
  EXPECT_TRUE(flow->finished());
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 1e-12);
}

TEST_F(Fluid, TwoFlowsShareEqually) {
  FluidResource nic(sched, "nic", 100.0);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
      co_await sc.run(FlowSpec{.work = 500.0}.over(r));
      t = s.now().to_seconds();
    }(sim, net, nic, done[i]));
  }
  sim.run();
  // Both run at 50 until both finish at t=10.
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST_F(Fluid, ShorterFlowFreesCapacityForLonger) {
  FluidResource nic(sched, "nic", 100.0);
  double short_done = -1;
  double long_done = -1;
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 100.0}.over(r));
    t = s.now().to_seconds();
  }(sim, net, nic, short_done));
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 500.0}.over(r));
    t = s.now().to_seconds();
  }(sim, net, nic, long_done));
  sim.run();
  // Shared at 50 each until the short one finishes at t=2 (100/50); the
  // long one then has 400 left at rate 100 -> finishes at t=6.
  EXPECT_NEAR(short_done, 2.0, 1e-6);
  EXPECT_NEAR(long_done, 6.0, 1e-6);
}

TEST_F(Fluid, PerFlowCapLimitsRate) {
  FluidResource cpu(sched, "cpu", 8.0);  // 8 cores
  double done_at = -1;
  // One vCPU task: capped at 1 core even though 8 are free.
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 4.0, .max_rate = 1.0}.over(r));
    t = s.now().to_seconds();
  }(sim, net, cpu, done_at));
  sim.run();
  EXPECT_NEAR(done_at, 4.0, 1e-9);
}

TEST_F(Fluid, OvercommitSharesFairly) {
  // 16 single-core-capped jobs on an 8-core node: each runs at 0.5 cores.
  FluidResource cpu(sched, "cpu", 8.0);
  std::vector<double> done(16, -1);
  for (int i = 0; i < 16; ++i) {
    sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
      co_await sc.run(FlowSpec{.work = 2.0, .max_rate = 1.0}.over(r));
      t = s.now().to_seconds();
    }(sim, net, cpu, done[i]));
  }
  sim.run();
  for (const double t : done) {
    EXPECT_NEAR(t, 4.0, 1e-6);  // 2 core-seconds at 0.5 cores
  }
}

TEST_F(Fluid, MultiResourceFlowBottleneckedByTightest) {
  FluidResource tx(sched, "tx", 100.0);
  FluidResource rx(sched, "rx", 40.0);
  double done_at = -1;
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& a, FluidResource& b,
               double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 200.0}.over(a).over(b));
    t = s.now().to_seconds();
  }(sim, net, tx, rx, done_at));
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);  // bound by rx at 40
}

TEST_F(Fluid, CrossTrafficOnSharedResource) {
  // Flow A crosses tx(100) and rx1(100); flow B crosses tx and rx2(30).
  // Max-min: B is capped at 30 by rx2; A then gets 70 on tx.
  FluidResource tx(sched, "tx", 100.0);
  FluidResource rx1(sched, "rx1", 100.0);
  FluidResource rx2(sched, "rx2", 30.0);
  auto a = net.start(FlowSpec{.work = 700.0}.over(tx).over(rx1));
  auto b = net.start(FlowSpec{.work = 300.0}.over(tx).over(rx2));
  EXPECT_NEAR(a->current_rate(), 70.0, 1e-9);
  EXPECT_NEAR(b->current_rate(), 30.0, 1e-9);
  sim.run();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
}

TEST_F(Fluid, CapacityChangeRebalances) {
  FluidResource nic(sched, "nic", 100.0);
  double done_at = -1;
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    co_await sc.run(FlowSpec{.work = 400.0}.over(r));
    t = s.now().to_seconds();
  }(sim, net, nic, done_at));
  sim.post(Duration::seconds(2.0), [&] { nic.set_capacity(50.0); });
  sim.run();
  // 200 units in first 2 s at 100, remaining 200 at 50 -> 4 more seconds.
  EXPECT_NEAR(done_at, 6.0, 1e-6);
}

TEST_F(Fluid, PauseAndResumeViaMaxRate) {
  FluidResource nic(sched, "nic", 100.0);
  auto flow = net.start(FlowSpec{.work = 400.0}.over(nic));
  double done_at = -1;
  sim.spawn([](Simulation& s, FlowPtr f, double& t) -> Task {
    co_await f->completion().wait();
    t = s.now().to_seconds();
  }(sim, flow, done_at));
  sim.post(Duration::seconds(1.0), [&] { flow->set_max_rate(0.0); });   // pause (VM paused)
  sim.post(Duration::seconds(11.0), [&] { flow->set_max_rate(kUncappedRate); });
  sim.run();
  // 100 done in 1 s, 10 s paused, 300 remaining at 100 -> t=14.
  EXPECT_NEAR(done_at, 14.0, 1e-6);
}

// Property: with arbitrary random flows, the assigned rates never exceed any
// resource capacity, never exceed flow caps, and are max-min fair (any flow
// below its cap is bottlenecked by some saturated resource).
class FluidProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidProperty, RatesAreFeasibleAndMaxMinFair) {
  Simulation sim;
  FluidNet net(sim);
  FluidScheduler& sched = net.add_domain("d");
  Rng rng(GetParam());

  constexpr int kResources = 6;
  constexpr int kFlows = 24;
  std::vector<std::unique_ptr<FluidResource>> resources;
  resources.reserve(kResources);
  for (int i = 0; i < kResources; ++i) {
    // Named string sidesteps a GCC 12 -Wrestrict false positive on the
    // "literal + to_string" temporary under heavy inlining.
    std::string name = "r";
    name += std::to_string(i);
    resources.push_back(
        std::make_unique<FluidResource>(sched, std::move(name), rng.uniform(10.0, 200.0)));
  }
  std::vector<FlowPtr> flows;
  for (int i = 0; i < kFlows; ++i) {
    std::vector<FluidResource*> rs;
    const auto n = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < n; ++k) {
      auto* r = resources[rng.next_below(kResources)].get();
      if (std::find(rs.begin(), rs.end(), r) == rs.end()) {
        rs.push_back(r);
      }
    }
    const double cap = rng.bernoulli(0.3) ? rng.uniform(1.0, 50.0) : kUncappedRate;
    FlowSpec spec{.work = rng.uniform(100.0, 1000.0), .max_rate = cap};
    for (auto* r : rs) {
      spec.over(*r);
    }
    flows.push_back(net.start(std::move(spec)));
  }

  // Feasibility: per-resource usage never exceeds capacity; per-flow rate
  // never exceeds its cap.
  for (const auto& r : resources) {
    double usage = 0.0;
    for (const auto& f : flows) {
      if (!f->finished() &&
          std::find_if(f->shares().begin(), f->shares().end(),
                       [&](const ResourceShare& sh) { return sh.resource == r.get(); }) !=
              f->shares().end()) {
        usage += f->current_rate();
      }
    }
    EXPECT_LE(usage, r->capacity() * (1.0 + 1e-9)) << r->name();
  }
  for (const auto& f : flows) {
    if (!f->finished()) {
      EXPECT_LE(f->current_rate(), f->max_rate() * (1.0 + 1e-9));
    }
  }
  // Max-min fairness: a flow strictly below its cap must cross a resource
  // that is (numerically) saturated.
  for (const auto& f : flows) {
    if (f->finished() || f->current_rate() >= f->max_rate() * (1.0 - 1e-9)) {
      continue;
    }
    bool bottlenecked = false;
    for (const auto& fshare : f->shares()) {
      const auto* fr = fshare.resource;
      double usage = 0.0;
      for (const auto& g : flows) {
        if (!g->finished() &&
            std::find_if(g->shares().begin(), g->shares().end(),
                         [&](const ResourceShare& sh) { return sh.resource == fr; }) !=
                g->shares().end()) {
          usage += g->current_rate();
        }
      }
      if (usage >= fr->capacity() * (1.0 - 1e-6)) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow below cap with no saturated resource";
  }
  // Run to completion; every flow must finish (no starvation/livelock).
  sim.run();
  for (const auto& f : flows) {
    EXPECT_TRUE(f->finished());
    EXPECT_NEAR(f->remaining(), 0.0, 1e-3);
  }
  for (const auto& r : resources) {
    EXPECT_EQ(r->active_flows(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidProperty, ::testing::Values(1, 7, 42, 1234, 99991));

TEST_F(Fluid, WeightedFlowChargesCpuPerByte) {
  // A "TCP" flow moving bytes across a 1.25e3 B/s NIC with a CPU weight of
  // 1e-3 core-sec/byte on a 1-core CPU: CPU limits the rate to 1e3 B/s.
  FluidResource nic(sched, "nic", 1250.0);
  FluidResource cpu(sched, "cpu", 1.0);
  auto flow = net.start(FlowSpec{.work = 2000.0}.over(nic).over(cpu, 1e-3));
  EXPECT_NEAR(flow->current_rate(), 1000.0, 1e-9);
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 2.0, 1e-6);
}

TEST_F(Fluid, WeightedFlowsCompeteForCpuWithComputeJob) {
  // A compute job (1 core cap) and a TCP flow (1e-3 core-sec/byte) share a
  // single core: max-min gives the compute job ~its share and slows the
  // transfer accordingly.
  FluidResource nic(sched, "nic", 1e9);
  FluidResource cpu(sched, "cpu", 1.0);
  auto xfer = net.start(FlowSpec{.work = 10000.0}.over(nic).over(cpu, 1e-3));
  auto job = net.start(FlowSpec{.work = 10.0, .max_rate = 1.0}.over(cpu));
  // Equal-rate max-min would give both the same *rate*, which the transfer
  // cannot reach CPU-wise; the bound is cpu residual split by weights:
  // 1.0 / (1e-3 + 1.0) ~= 0.999 for the job, transfer gets the same rate.
  EXPECT_GT(job->current_rate(), 0.9);
  EXPECT_GT(xfer->current_rate(), 0.9);
  EXPECT_LE(job->current_rate() * 1.0 + xfer->current_rate() * 1e-3, 1.0 + 1e-9);
  sim.run();
  EXPECT_TRUE(xfer->finished());
  EXPECT_TRUE(job->finished());
}

TEST_F(Fluid, SuspendResumePreservesCap) {
  FluidResource nic(sched, "nic", 100.0);
  auto flow = net.start(FlowSpec{.work = 400.0, .max_rate = 40.0}.over(nic));
  EXPECT_NEAR(flow->current_rate(), 40.0, 1e-12);
  flow->suspend();
  EXPECT_TRUE(flow->suspended());
  EXPECT_NEAR(flow->current_rate(), 0.0, 1e-12);
  flow->suspend();  // idempotent
  flow->resume();
  EXPECT_FALSE(flow->suspended());
  EXPECT_NEAR(flow->current_rate(), 40.0, 1e-12);
  flow->resume();  // idempotent
  EXPECT_NEAR(flow->max_rate(), 40.0, 1e-12);
  sim.run();
  EXPECT_TRUE(flow->finished());
  EXPECT_NEAR(sim.now().to_seconds(), 10.0, 1e-6);
}

TEST_F(Fluid, SetMaxRateWhileSuspendedAppliesOnResume) {
  // A cap set during suspension must neither un-suspend the flow nor be
  // clobbered by the pre-suspend cap on resume().
  FluidResource nic(sched, "nic", 100.0);
  auto flow = net.start(FlowSpec{.work = 400.0, .max_rate = 40.0}.over(nic));
  EXPECT_NEAR(flow->current_rate(), 40.0, 1e-12);
  flow->suspend();
  flow->set_max_rate(10.0);
  EXPECT_TRUE(flow->suspended());  // still paused
  EXPECT_NEAR(flow->current_rate(), 0.0, 1e-12);
  flow->resume();
  EXPECT_FALSE(flow->suspended());
  EXPECT_NEAR(flow->max_rate(), 10.0, 1e-12);  // the new cap, not the stale one
  EXPECT_NEAR(flow->current_rate(), 10.0, 1e-12);
  sim.run();
  EXPECT_TRUE(flow->finished());
  EXPECT_NEAR(sim.now().to_seconds(), 40.0, 1e-6);
}

TEST_F(Fluid, ComponentsTrackConnectivity) {
  // Disjoint resources host independent components; a bridging flow merges
  // them; completions dissolve emptied components.
  FluidResource a(sched, "a", 10.0);
  FluidResource b(sched, "b", 10.0);
  EXPECT_EQ(sched.component_count(), 0u);
  auto fa = net.start(FlowSpec{.work = 10.0}.over(a));
  auto fb = net.start(FlowSpec{.work = 20.0}.over(b));
  EXPECT_EQ(sched.component_count(), 2u);
  auto fab = net.start(FlowSpec{.work = 5.0}.over(a).over(b));
  EXPECT_EQ(sched.component_count(), 1u);
  sim.run();
  EXPECT_TRUE(fa->finished() && fb->finished() && fab->finished());
  EXPECT_EQ(sched.component_count(), 0u);
  // Fresh flows after dissolution get fresh components.
  auto fa2 = net.start(FlowSpec{.work = 10.0}.over(a));
  auto fb2 = net.start(FlowSpec{.work = 10.0}.over(b));
  EXPECT_EQ(sched.component_count(), 2u);
  sim.run();
  EXPECT_TRUE(fa2->finished() && fb2->finished());
}

TEST_F(Fluid, ManySequentialFlowsKeepClockExact) {
  // Chained transfers must not accumulate drift: 1000 x 1-second flows.
  FluidResource nic(sched, "nic", 10.0);
  double done_at = -1;
  sim.spawn([](Simulation& s, FluidNet& sc, FluidResource& r, double& t) -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await sc.run(FlowSpec{.work = 10.0}.over(r));
    }
    t = s.now().to_seconds();
  }(sim, net, nic, done_at));
  sim.run();
  EXPECT_NEAR(done_at, 1000.0, 1e-3);
}

TEST_F(Fluid, KvShapedCpuTiesCapsThroughEveryCapOrderMutation) {
  // The shape of a KV server's component: 8 vCPU worker flows capped at 1
  // core on an 8-core CPU, plus virtio transfers charging 1.9e-9
  // core-s/byte to the same CPU. The CPU holds 8 cores plus exactly the two
  // transfers' 1-byte/s charge, so once both transfers run, its water level
  // (1.0) ties the vCPU caps inside the 1e-12 band and caps and CPU freeze
  // in one mixed round. The exact rates are pinned through admission,
  // merge, epoch rebuild, suspend/resume and set_max_rate, and the solver's
  // cap order is audited at every step.
  constexpr double kVirtio = 1.9e-9;
  FluidResource cpu(sched, "cpu", 8.0 + 2 * kVirtio);
  FluidResource tx(sched, "tx", 1.25e9);
  FluidResource rx(sched, "rx", 1.25e9);
  FluidResource disk(sched, "disk", 1e6);
  std::vector<FlowPtr> vcpu;
  for (int i = 0; i < 8; ++i) {
    vcpu.push_back(net.start(FlowSpec{.work = 1e12, .max_rate = 1.0}.over(cpu)));
  }
  auto a = net.start(FlowSpec{.work = 1e12, .max_rate = 525e6}.over(tx).over(cpu, kVirtio));
  auto bg = net.start(FlowSpec{.work = 1e12, .max_rate = 2e8}.over(rx));
  const auto rates = [&] {
    std::vector<double> r;
    for (const auto& f : vcpu) {
      r.push_back(f->current_rate());
    }
    r.push_back(a->current_rate());
    r.push_back(bg->current_rate());
    return r;
  };
  const auto step = [&](Duration d) {
    EXPECT_EQ(sched.audit_cap_orders(), "");
    sim.run_for(d);
    EXPECT_EQ(sched.audit_cap_orders(), "");
  };
  // Admission: the caps bind first (CPU level above 1), then the transfer
  // takes the CPU's 2 spare byte/s.
  EXPECT_EQ(sched.component_count(), 2u);
  step(Duration::millis(1));
  EXPECT_EQ(rates(), (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1, 2, 2e8}));

  // Merge: transfer b bridges rx's component into the CPU's. The CPU level
  // is now exactly 1, tied with the vCPU caps.
  auto b = net.start(FlowSpec{.work = 2e-3}.over(rx).over(cpu, kVirtio));
  EXPECT_EQ(sched.component_count(), 1u);
  step(Duration::nanos(1));
  EXPECT_EQ(rates(), (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1, 1, 2e8}));
  EXPECT_EQ(b->current_rate(), 1.0);

  // Epoch rebuild: b retires (after 2 ms at 1 byte/s), then 70 short disk
  // flows; their retirement rebuilds the partition, and rx's flow splits
  // off again.
  step(Duration::millis(10));
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(sched.component_count(), 1u);
  std::vector<FlowPtr> shorts;
  for (int i = 0; i < 70; ++i) {
    shorts.push_back(net.start(FlowSpec{.work = 1.0}.over(disk)));
  }
  step(Duration::millis(1));
  EXPECT_TRUE(shorts.back()->finished());
  EXPECT_EQ(sched.component_count(), 2u);
  cpu.set_capacity(cpu.capacity());  // solve the rebuilt (re-sorted) order
  step(Duration::nanos(1));
  EXPECT_EQ(rates(), (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1, 2, 2e8}));

  // Suspend two vCPUs: the transfer climbs to its own cap. Then resume.
  vcpu[2]->suspend();
  vcpu[5]->suspend();
  step(Duration::nanos(1));
  EXPECT_EQ(rates(), (std::vector<double>{1, 1, 0, 1, 1, 0, 1, 1, 525e6, 2e8}));
  vcpu[2]->resume();
  vcpu[5]->resume();
  step(Duration::nanos(1));
  EXPECT_EQ(rates(), (std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1, 2, 2e8}));

  // set_max_rate: halve one vCPU's cap and uncap another, which then shares
  // the CPU level with the transfer.
  vcpu[0]->set_max_rate(0.5);
  vcpu[7]->set_max_rate(kUncappedRate);
  step(Duration::nanos(1));
  EXPECT_EQ(rates(), (std::vector<double>{0.5, 1, 1, 1, 1, 1, 1, 1.5000000009500001,
                                          1.5000000009500001, 2e8}));
}

// --- Domain ownership -------------------------------------------------------

TEST(CrossDomain, ResourceOfAnotherNetRejected) {
  // Two nets on one clock: each admits only resources its own domains own,
  // whether the spec is local to the foreign domain or would bridge into it.
  Simulation sim;
  FluidNet net(sim, 0);
  FluidNet other(sim, 0);
  auto& a = net.add_domain("a");
  auto& b = other.add_domain("b");
  FluidResource ra(a, "ra", 10.0);
  FluidResource rb(b, "rb", 1.0);
  EXPECT_EQ(net.domain_of(ra), &a);
  EXPECT_EQ(net.domain_of(rb), nullptr);
  EXPECT_THROW((void)net.start(FlowSpec{.work = 1.0}.over(rb)), LogicError);
  EXPECT_THROW((void)net.start(FlowSpec{.work = 1.0}.over(ra).over(rb)), LogicError);
  EXPECT_EQ(a.active_flow_count(), 0u);
  // The owning net still admits it.
  auto flow = other.start(FlowSpec{.work = 1.0}.over(rb));
  sim.run();
  EXPECT_TRUE(flow->finished());
}

TEST(CrossDomain, SpecSpanningTwoDomainsOfOneNetRejected) {
  // Domains only split topologies that share no flow: a spec bridging two
  // domains of one net is refused whole, in either share order, and leaves
  // both domains untouched.
  Simulation sim;
  FluidNet net(sim, 0);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  FluidResource ra(a, "ra", 10.0);
  FluidResource rb(b, "rb", 1.0);
  EXPECT_THROW((void)net.start(FlowSpec{.work = 1.0}.over(ra).over(rb)), LogicError);
  EXPECT_THROW((void)net.start(FlowSpec{.work = 1.0}.over(rb).over(ra)), LogicError);
  EXPECT_EQ(a.active_flow_count(), 0u);
  EXPECT_EQ(b.active_flow_count(), 0u);
  EXPECT_EQ(ra.active_flows(), 0u);
  EXPECT_EQ(rb.active_flows(), 0u);
  // Each domain still admits flows over its own resources.
  auto fa = net.start(FlowSpec{.work = 10.0}.over(ra));
  auto fb = net.start(FlowSpec{.work = 1.0}.over(rb));
  sim.run();
  EXPECT_TRUE(fa->finished());
  EXPECT_TRUE(fb->finished());
  EXPECT_EQ(sim.now().count_nanos(), 1'000'000'000);
}

}  // namespace
}  // namespace nm::sim
