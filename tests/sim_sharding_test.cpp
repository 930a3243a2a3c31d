// Sharding invariance: a testbed built over N fluid domain shards must
// produce a timeline *bit-identical* to the 1-shard build. Domains solve
// independently and their timers merge through the one deterministic
// (time, sequence) event queue, so any topology-valid partitioning — one
// where no flow ever crosses domains — is exact, not approximate. These
// tests pin that invariant for (a) the full fallback+recovery Ninja
// episode at shard counts 1/2/4 (the ninja_integration_test invariants
// re-checked per count) and (b) hand-built disjoint zones split across
// two domains vs merged onto one scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "hw/cluster.h"
#include "net/port.h"
#include "sim/fluid_net.h"

namespace nm::core {
namespace {

/// Everything observable about one fallback+recovery run, recorded exactly
/// (raw doubles / nanosecond counts — compared with EXPECT_EQ, not NEAR).
struct EpisodeTrace {
  std::vector<double> iter_seconds;
  std::int64_t fallback_detach_ns = 0;
  std::int64_t fallback_migration_ns = 0;
  std::int64_t fallback_total_ns = 0;
  std::int64_t recovery_attach_ns = 0;
  std::int64_t recovery_linkup_ns = 0;
  std::int64_t recovery_total_ns = 0;
  std::int64_t final_time_ns = 0;
  double ib_cpu_consumed = 0.0;
  std::string transport;
  bool back_on_ib = false;
  bool hca_in_use = false;
};

EpisodeTrace run_fallback_recovery(int fluid_shards, int solve_workers = 0) {
  TestbedConfig tcfg;
  tcfg.fluid_shards = fluid_shards;
  tcfg.solve_workers = solve_workers;
  Testbed tb(tcfg);
  JobConfig cfg;
  cfg.vm_count = 2;
  cfg.ranks_per_vm = 1;
  cfg.vm_template.memory = Bytes::gib(8);
  cfg.vm_template.base_os_footprint = Bytes::gib(1);
  MpiJob job(tb, cfg);
  job.init();

  EpisodeTrace trace;
  auto& sim = tb.sim();
  job.launch([&](mpi::RankId me) -> sim::Task {
    for (int i = 0; i < 16; ++i) {
      const TimePoint t0 = sim.now();
      co_await job.world().bcast(me, 0, Bytes::mib(128));
      co_await job.world().reduce(me, 0, Bytes::mib(128), 2e-10);
      co_await job.world().barrier(me);
      if (me == 0) {
        trace.iter_seconds.push_back((sim.now() - t0).to_seconds());
      }
    }
  });

  NinjaStats fallback;
  NinjaStats recovery;
  sim.spawn([](Testbed& t, MpiJob& j, NinjaStats& fb, NinjaStats& rc) -> sim::Task {
    co_await t.sim().delay(Duration::seconds(2.0));
    co_await j.fallback_migration(2, &fb);
    co_await t.sim().delay(Duration::seconds(2.0));
    co_await j.recovery_migration(2, &rc);
  }(tb, job, fallback, recovery));
  sim.run();

  trace.fallback_detach_ns = fallback.detach.count_nanos();
  trace.fallback_migration_ns = fallback.migration.count_nanos();
  trace.fallback_total_ns = fallback.total.count_nanos();
  trace.recovery_attach_ns = recovery.attach.count_nanos();
  trace.recovery_linkup_ns = recovery.linkup.count_nanos();
  trace.recovery_total_ns = recovery.total.count_nanos();
  trace.final_time_ns = (sim.now() - TimePoint::origin()).count_nanos();
  trace.ib_cpu_consumed = tb.ib_host(0).node().cpu().consumed();
  trace.transport = job.current_transport();
  trace.back_on_ib = tb.ib_host(0).resident(*job.vms()[0]) &&
                     tb.ib_host(1).resident(*job.vms()[1]);
  trace.hca_in_use = !tb.ib_host(0).hca_available(Testbed::kHcaPciAddr);
  return trace;
}

TEST(Sharding, FallbackRecoveryTimelineBitIdenticalAcrossShardCounts) {
  const EpisodeTrace base = run_fallback_recovery(1);

  // The 1-shard run itself must satisfy the integration invariants.
  ASSERT_EQ(base.iter_seconds.size(), 16u);
  EXPECT_EQ(base.transport, "openib");
  EXPECT_TRUE(base.back_on_ib);
  EXPECT_TRUE(base.hca_in_use);

  for (const int shards : {2, 4}) {
    const EpisodeTrace t = run_fallback_recovery(shards);
    // Integration invariants re-hold at this shard count...
    EXPECT_EQ(t.transport, "openib") << "shards=" << shards;
    EXPECT_TRUE(t.back_on_ib) << "shards=" << shards;
    EXPECT_TRUE(t.hca_in_use) << "shards=" << shards;
    // ...and the timeline is bit-identical to the 1-shard build: exact
    // integer nanoseconds and exact doubles, no tolerance.
    ASSERT_EQ(t.iter_seconds.size(), base.iter_seconds.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < base.iter_seconds.size(); ++i) {
      EXPECT_EQ(t.iter_seconds[i], base.iter_seconds[i])
          << "shards=" << shards << " iteration=" << i;
    }
    EXPECT_EQ(t.fallback_detach_ns, base.fallback_detach_ns) << "shards=" << shards;
    EXPECT_EQ(t.fallback_migration_ns, base.fallback_migration_ns) << "shards=" << shards;
    EXPECT_EQ(t.fallback_total_ns, base.fallback_total_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_attach_ns, base.recovery_attach_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_linkup_ns, base.recovery_linkup_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_total_ns, base.recovery_total_ns) << "shards=" << shards;
    EXPECT_EQ(t.final_time_ns, base.final_time_ns) << "shards=" << shards;
    EXPECT_EQ(t.ib_cpu_consumed, base.ib_cpu_consumed) << "shards=" << shards;
  }
}

// --- Parallel solving: worker count must be unobservable ---------------------

void expect_traces_identical(const EpisodeTrace& t, const EpisodeTrace& base,
                             const std::string& label) {
  ASSERT_EQ(t.iter_seconds.size(), base.iter_seconds.size()) << label;
  for (std::size_t i = 0; i < base.iter_seconds.size(); ++i) {
    EXPECT_EQ(t.iter_seconds[i], base.iter_seconds[i]) << label << " iteration=" << i;
  }
  EXPECT_EQ(t.fallback_detach_ns, base.fallback_detach_ns) << label;
  EXPECT_EQ(t.fallback_migration_ns, base.fallback_migration_ns) << label;
  EXPECT_EQ(t.fallback_total_ns, base.fallback_total_ns) << label;
  EXPECT_EQ(t.recovery_attach_ns, base.recovery_attach_ns) << label;
  EXPECT_EQ(t.recovery_linkup_ns, base.recovery_linkup_ns) << label;
  EXPECT_EQ(t.recovery_total_ns, base.recovery_total_ns) << label;
  EXPECT_EQ(t.final_time_ns, base.final_time_ns) << label;
  EXPECT_EQ(t.ib_cpu_consumed, base.ib_cpu_consumed) << label;
  EXPECT_EQ(t.transport, base.transport) << label;
  EXPECT_EQ(t.back_on_ib, base.back_on_ib) << label;
  EXPECT_EQ(t.hca_in_use, base.hca_in_use) << label;
}

TEST(Sharding, ParallelSolveMatrixBitIdenticalToSingleThread) {
  // The 0-worker single-domain run is the ground truth; every
  // (workers, domains) combination must replay it exactly — the SolvePool
  // batches each instant's dirty components, computes them on however many
  // threads, and commits in canonical (domain, component) order, so the
  // worker count can never be observed in the timeline.
  const EpisodeTrace base = run_fallback_recovery(1);
  ASSERT_EQ(base.iter_seconds.size(), 16u);
  EXPECT_EQ(base.transport, "openib");
  EXPECT_TRUE(base.back_on_ib);

  for (const int workers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      const EpisodeTrace t = run_fallback_recovery(shards, workers);
      expect_traces_identical(
          t, base, "workers=" + std::to_string(workers) + " shards=" + std::to_string(shards));
    }
  }
}

// --- Disjoint zones genuinely split across domains ---------------------------

struct Zone {
  std::unique_ptr<hw::Cluster> cluster;
  std::vector<std::unique_ptr<net::NicPort>> ports;
};

constexpr int kZoneNodes = 6;

/// Builds one isolated zone (nodes + NIC ports) on `sched`.
Zone build_zone(sim::FluidScheduler& sched, int z) {
  Zone zone;
  zone.cluster = std::make_unique<hw::Cluster>("zone" + std::to_string(z));
  zone.ports.reserve(kZoneNodes);
  for (int n = 0; n < kZoneNodes; ++n) {
    hw::NodeSpec spec;
    spec.name = "z" + std::to_string(z) + ":n" + std::to_string(n);
    auto& node = zone.cluster->add_node(sched, spec);
    zone.ports.push_back(
        std::make_unique<net::NicPort>(node, spec.name + ":eth", Bandwidth::gib_per_sec(10.0)));
  }
  return zone;
}

/// What one two-zone run observed.
struct ZoneRun {
  std::vector<std::int64_t> stamps;  // every flow's completion instant
  double consumed_z0 = 0.0;          // zone 0, node 0's CPU
  std::size_t settles = 0;
  std::size_t parallel_settles = 0;
};

/// Builds two isolated zones in a FluidNet with `workers` solve threads —
/// both on one domain, or (`split`) each on its own — then starts an
/// intra-zone flow program (CPU flows + a NIC ring) and drains the merged
/// timeline, recording every flow's completion stamp.
ZoneRun run_zones(bool split, int workers) {
  sim::Simulation sim;
  sim::FluidNet net(sim, workers);
  std::vector<Zone> zones;
  std::vector<sim::FluidScheduler*> zone_sched;
  for (int z = 0; z < 2; ++z) {
    if (split || z == 0) {
      net.add_domain(split ? "zone" + std::to_string(z) : "all-zones");
    }
    zone_sched.push_back(&net.domain(net.domain_count() - 1));
    zones.push_back(build_zone(*zone_sched.back(), z));
  }
  std::vector<sim::FlowPtr> flows;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    for (int n = 0; n < kZoneNodes; ++n) {
      auto& node = zones[z].cluster->node(static_cast<std::size_t>(n));
      flows.push_back(
          net.start(sim::FlowSpec{.work = (n + 1) * 0.25, .max_rate = 1.0}.over(node.cpu())));
      flows.push_back(net.start(
          sim::FlowSpec{.work = 1e9 * (n + 1)}
              .over(zones[z].ports[static_cast<std::size_t>(n)]->tx())
              .over(zones[z].ports[static_cast<std::size_t>((n + 1) % kZoneNodes)]->rx())));
    }
  }
  ZoneRun run;
  run.stamps.assign(flows.size(), -1);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    sim.spawn([](sim::Simulation& s, sim::FlowPtr flow, std::int64_t& out) -> sim::Task {
      co_await flow->completion().wait();
      out = (s.now() - TimePoint::origin()).count_nanos();
    }(sim, flows[f], run.stamps[f]));
  }
  sim.run();
  for (const auto& flow : flows) {
    EXPECT_TRUE(flow->finished());
  }
  run.consumed_z0 = zones[0].cluster->node(0).cpu().consumed();
  run.settles = net.pool()->settle_count();
  run.parallel_settles = net.pool()->parallel_settle_count();
  return run;
}

TEST(Sharding, DisjointZonesOnSeparateDomainsMatchSingleScheduler) {
  // Merged build (both zones on one domain) vs sharded build (each zone on
  // its own domain over one shared clock).
  const std::vector<std::int64_t> merged = run_zones(/*split=*/false, /*workers=*/0).stamps;
  const ZoneRun sharded_run = run_zones(/*split=*/true, /*workers=*/0);
  const std::vector<std::int64_t>& sharded = sharded_run.stamps;

  // Every flow completes at the identical instant, bit for bit.
  ASSERT_EQ(merged.size(), sharded.size());
  for (std::size_t f = 0; f < merged.size(); ++f) {
    EXPECT_EQ(merged[f], sharded[f]) << "flow " << f;
  }
  // Node 0 ran one 0.25 core-second flow at rate 1: consumption accounting
  // holds across the domain split.
  EXPECT_NEAR(sharded_run.consumed_z0, 0.25, 1e-9);
}

TEST(Sharding, ParallelSolvePoolMatchesSerialOnDisjointZones) {
  // Reference: the two zones on separate domains of a 0-worker FluidNet,
  // whose pool computes every batch serially on the simulation thread.
  const std::vector<std::int64_t> serial = run_zones(/*split=*/true, /*workers=*/0).stamps;

  // Same topology settled through a 2-worker SolvePool. The zones admit
  // flows at the same instant, so the pool genuinely computes cross-domain
  // batches — and the timeline must still replay the serial run exactly.
  const ZoneRun pooled_run = run_zones(/*split=*/true, /*workers=*/2);
  const std::vector<std::int64_t>& pooled = pooled_run.stamps;
  EXPECT_GT(pooled_run.settles, 0u);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t f = 0; f < serial.size(); ++f) {
    EXPECT_EQ(serial[f], pooled[f]) << "flow " << f;
  }
  // The admission instant dirties both domains at once, so at least one
  // settle must actually have run a multi-component batch (otherwise this
  // test would be vacuous).
  EXPECT_GT(pooled_run.parallel_settles, 0u);
}

TEST(Sharding, TestbedExposesRequestedDomains) {
  TestbedConfig tcfg;
  tcfg.fluid_shards = 3;
  Testbed tb(tcfg);
  sim::FluidNet& net = tb.net();
  EXPECT_EQ(net.domain_count(), 3u);
  // The whole enclosure — shared resources and blades — lives on domain
  // 0; the routing façade agrees.
  EXPECT_EQ(net.domain_of(tb.storage().throughput()), &net.domain(0));
  EXPECT_EQ(net.domain_of(tb.ib_host(0).node().cpu()), &net.domain(0));
  // Spare shards are real, independently usable schedulers on the same clock.
  EXPECT_EQ(&net.domain(1).simulation(), &tb.sim());
  EXPECT_NE(&net.domain(1), &net.domain(0));
}

}  // namespace
}  // namespace nm::core
