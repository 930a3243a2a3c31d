// Randomized property test: the incremental, component-partitioned
// scheduler must produce the same max-min fair rates as the brute-force
// reference solver (maxmin_reference.h), which recomputes the global
// allocation from scratch, within 1e-9 on 1250 random topologies and across
// suspend/resume/cap/capacity mutations. The reference itself is pinned to
// a hand-computed weighted max-min answer.
// The same harness cross-checks the O(1) rate-tracked consumption read:
// every resource's consumed() must match a brute-force integral of
// (reference rate × weight) over every constant-rate window within 1e-9.
// After every admission and mutation, and again once it has settled, each
// component's solver cap order must hold exactly its finite-cap flows in
// (cap, admission seq) order (FluidScheduler::audit_cap_orders).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "maxmin_reference.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"

namespace nm::sim {
namespace {

// The reference on a problem small enough to solve by hand. r0 (capacity 10)
// carries a (weight 1) and b (weight 2); r1 (capacity 12) carries b
// (weight 1) and c (weight 1, capped at 3). Round 1: the tightest constraint
// is c's cap 3 (r0 offers 10/3, r1 offers 12/2 = 6), so c freezes at 3 and
// r1 keeps 9 for b alone. Round 2: r0 binds at 10/3 < 9, freezing a and b.
// r0 ends saturated (10/3 + 2·10/3 = 10) and r1 slack (10/3 + 3 < 12).
TEST(FluidReference, BruteForceMatchesHandComputedWeightedMaxMin) {
  const std::vector<double> capacity{10.0, 12.0};
  const std::vector<RefFlow> flows{
      RefFlow{{0}, {1.0}, kUncappedRate},
      RefFlow{{0, 1}, {2.0, 1.0}, kUncappedRate},
      RefFlow{{1}, {1.0}, 3.0},
  };
  const auto rates = reference_rates(capacity, flows);
  ASSERT_EQ(rates.size(), 3U);
  EXPECT_NEAR(rates[0], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(rates[1], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(rates[2], 3.0, 1e-12);
}

// --- Random topology + mutation driver --------------------------------------

struct Topology {
  Simulation sim;
  FluidNet net{sim};
  FluidScheduler& sched = net.add_domain("d");
  std::vector<std::unique_ptr<FluidResource>> resources;
  std::vector<FlowPtr> flows;
  /// Brute-force consumption integral per resource: Σ over constant-rate
  /// windows of (reference rate × weight × window). The production
  /// scheduler instead tracks an aggregate rate at solve time and reads
  /// consumed() in O(1); the two must agree within 1e-9.
  std::vector<double> consumed_ref;
};

/// The reference solver's view of the topology's current state.
struct RefProblem {
  std::vector<double> capacity;
  std::vector<RefFlow> flows;
};

RefProblem build_ref(Topology& topo) {
  RefProblem prob;
  prob.capacity.reserve(topo.resources.size());
  for (const auto& r : topo.resources) {
    prob.capacity.push_back(r->capacity());
  }
  prob.flows.reserve(topo.flows.size());
  for (const auto& flow : topo.flows) {
    RefFlow rf;
    rf.cap = flow->max_rate();  // 0 while suspended
    for (const auto& share : flow->shares()) {
      for (std::size_t r = 0; r < topo.resources.size(); ++r) {
        if (topo.resources[r].get() == share.resource) {
          rf.res.push_back(r);
          rf.weight.push_back(share.weight);
        }
      }
    }
    prob.flows.push_back(std::move(rf));
  }
  return prob;
}

/// Integrates the brute-force consumption reference over a window during
/// which no rate changes: consumed_ref[r] += rate × weight × dt.
void integrate_reference(Topology& topo, Duration dt) {
  const RefProblem prob = build_ref(topo);
  const auto rates = reference_rates(prob.capacity, prob.flows);
  for (std::size_t f = 0; f < prob.flows.size(); ++f) {
    for (std::size_t s = 0; s < prob.flows[f].res.size(); ++s) {
      topo.consumed_ref[prob.flows[f].res[s]] +=
          rates[f] * prob.flows[f].weight[s] * dt.to_seconds();
    }
  }
}

void check_against_reference(Topology& topo, std::uint32_t seed, int step) {
  const RefProblem prob = build_ref(topo);
  const auto& capacity = prob.capacity;
  const auto& ref = prob.flows;
  const auto expected = reference_rates(capacity, ref);
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    const double got = topo.flows[f]->current_rate();
    const double want = expected[f];
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(got), std::abs(want)));
    EXPECT_NEAR(got, want, tol) << "seed=" << seed << " step=" << step << " flow=" << f;
  }
  // Feasibility: no resource is over-committed.
  std::vector<double> used(capacity.size(), 0.0);
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    for (std::size_t s = 0; s < ref[f].res.size(); ++s) {
      used[ref[f].res[s]] += topo.flows[f]->current_rate() * ref[f].weight[s];
    }
  }
  for (std::size_t r = 0; r < capacity.size(); ++r) {
    EXPECT_LE(used[r], capacity[r] * (1.0 + 1e-9)) << "seed=" << seed << " res=" << r;
  }
  // O(1) rate-tracked consumption vs the brute-force integral. consumed()
  // is a pure read (extrapolation over the constant-rate window since the
  // last solve), so sampling it here must not perturb anything the later
  // steps observe.
  for (std::size_t r = 0; r < topo.resources.size(); ++r) {
    const double got = topo.resources[r]->consumed();
    const double want = topo.consumed_ref[r];
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(got), std::abs(want)));
    EXPECT_NEAR(got, want, tol)
        << "consumed() diverged from integral: seed=" << seed << " step=" << step
        << " res=" << r;
  }
}

void run_one_topology(std::uint32_t seed) {
  std::mt19937 rng(seed);
  Topology topo;
  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  const std::size_t r_count = 1 + rng() % 8;
  for (std::size_t r = 0; r < r_count; ++r) {
    // Named string sidesteps a GCC 12 -Wrestrict false positive on the
    // "literal + to_string" temporary under heavy inlining.
    std::string name = "r";
    name += std::to_string(r);
    topo.resources.push_back(std::make_unique<FluidResource>(
        topo.sched, std::move(name), cap_dist(rng)));
  }
  topo.consumed_ref.assign(r_count, 0.0);
  std::uniform_real_distribution<double> weight_dist(0.01, 2.0);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t f_count = 1 + rng() % 40;
  for (std::size_t f = 0; f < f_count; ++f) {
    const std::size_t cross = 1 + rng() % std::min<std::size_t>(4, r_count);
    std::vector<std::size_t> picks;
    while (picks.size() < cross) {
      const std::size_t r = rng() % r_count;
      if (std::find(picks.begin(), picks.end(), r) == picks.end()) {
        picks.push_back(r);
      }
    }
    // Weights stay within two decades: mixing ~1e-9 weights (the CPU
    // core-seconds-per-byte scale) with ~1 weights makes progressive
    // filling ill-conditioned, and incremental-vs-scratch residuals then
    // differ by more than bookkeeping noise. The tiny-weight regime is
    // covered by the calibrated integration tests instead.
    std::vector<ResourceShare> shares;
    for (const auto r : picks) {
      shares.push_back(ResourceShare{topo.resources[r].get(), weight_dist(rng)});
    }
    const double cap = unit(rng) < 0.4 ? flow_cap_dist(rng) : kUncappedRate;
    // Work far beyond what the mutation window can drain: no completions.
    topo.flows.push_back(topo.net.start(FlowSpec{1e15, std::move(shares), cap, {}}));
    EXPECT_EQ(topo.sched.audit_cap_orders(), "") << "seed=" << seed << " admission=" << f;
  }
  check_against_reference(topo, seed, /*step=*/-1);
  EXPECT_EQ(topo.sched.audit_cap_orders(), "") << "seed=" << seed << " settled";

  const int steps = static_cast<int>(rng() % 7);
  for (int step = 0; step < steps; ++step) {
    auto& flow = topo.flows[rng() % topo.flows.size()];
    switch (rng() % 5) {
      case 0: {
        // Rates are constant across the window (mutations settle before
        // time advances, work is inexhaustible): integrate the reference
        // first, then advance the clock.
        const Duration window = Duration::millis(1 + rng() % 100);
        integrate_reference(topo, window);
        topo.sim.run_for(window);
        break;
      }
      case 1:
        flow->set_max_rate(unit(rng) < 0.3 ? kUncappedRate : flow_cap_dist(rng));
        break;
      case 2:
        flow->suspend();
        break;
      case 3:
        flow->resume();
        break;
      case 4:
        topo.resources[rng() % r_count]->set_capacity(cap_dist(rng));
        break;
    }
    EXPECT_EQ(topo.sched.audit_cap_orders(), "") << "seed=" << seed << " step=" << step;
    check_against_reference(topo, seed, step);
    EXPECT_EQ(topo.sched.audit_cap_orders(), "") << "seed=" << seed << " step=" << step
                                                 << " settled";
  }
}

TEST(FluidReference, IncrementalMatchesBruteForceOn1000RandomTopologies) {
  for (std::uint32_t seed = 1; seed <= 1000; ++seed) {
    run_one_topology(seed);
    if (::testing::Test::HasFailure()) {
      break;  // first failing seed is enough to debug
    }
  }
}

// A second band of seeds exercising the same machinery keeps the total
// comfortably above the 1000-topology floor even if bands are split later.
TEST(FluidReference, IncrementalMatchesBruteForceOnHighSeeds) {
  for (std::uint32_t seed = 100000; seed < 100250; ++seed) {
    run_one_topology(seed);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace nm::sim
