// mesh_evacuation: the examples/mass_evacuation planned drain of 1000
// dirtying VMs from dc0 over the 5-site metro mesh (dc4 two hops out).
// Almost no per-request flow churn: long-lived pinned flows coupled
// across fluid domains (WAN boundary exchange), 1000 coroutines on 10 s
// timers, guest-memory writes and the planner. It is the workload that
// bypasses fluid-solver request-path changes and the main one for kernel,
// exchange, guest-memory and plan changes.
//
// From the seed: each VM's live-data size and the phase of its dirtying
// loop.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "plan/evacuation_planner.h"

namespace perfbench {

using namespace nm;

namespace {

constexpr int kVmsPerHost = 20;  // 50 source hosts -> 1000 VMs

core::FederationConfig mesh_config(std::uint64_t seed) {
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 50;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 16;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge},
                {"dc3", refuge}, {"dc4", refuge}};
  sim::WanLinkConfig metro;
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro}, {1, 4, metro}, {2, 4, metro}};
  fcfg.solve_workers = 0;
  fcfg.seed = seed;
  return fcfg;
}

/// The planner's view of the fleet, built the way MassEvacuation::run()
/// collects it, so plan.plan_s times the same planning problem.
std::vector<plan::VmToMove> fleet_moves(core::Testbed& source) {
  std::vector<plan::VmToMove> moves;
  std::vector<vmm::Host*> hosts = source.all_hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const bool compress = hosts[h]->migration_engine().config().compress_dup_pages;
    for (const auto& vm : hosts[h]->vms()) {
      const vmm::GuestMemory& mem = vm->memory();
      plan::VmToMove move;
      move.name = vm->name();
      const vmm::GuestMemory::PageRange all{0, mem.page_count()};
      move.bytes = static_cast<double>(mem.wire_size(all, compress).count());
      move.scan_bytes = static_cast<double>(mem.size().count());
      move.src_host = h;
      moves.push_back(std::move(move));
    }
  }
  return moves;
}

}  // namespace

std::vector<std::string> gate_mesh(const MeshFacts& f) {
  std::vector<std::string> out;
  if (f.fleet == 0 || f.evacuated != f.fleet) {
    out.push_back("mesh: evacuated " + std::to_string(f.evacuated) + " of " +
                  std::to_string(f.fleet) + " VMs");
  }
  if (!(f.downtime_p99_ms >= 0.0 && f.downtime_p99_ms <= f.max_downtime_ms)) {
    out.push_back("mesh: p99 downtime " + std::to_string(f.downtime_p99_ms) +
                  " ms outside [0, max_downtime " + std::to_string(f.max_downtime_ms) +
                  " ms]");
  }
  if (f.unconverged_exchanges != 0) {
    out.push_back("mesh: " + std::to_string(f.unconverged_exchanges) +
                  " boundary exchanges hit the round cap");
  }
  return out;
}

Drive drive_mesh_evacuation(std::uint64_t seed, bool trace, bool setup_only) {
  Drive d;
  const Clock::time_point setup_t0 = Clock::now();
  std::unique_ptr<core::Federation> fed;
  d.time("core.build_s", [&] { fed = std::make_unique<core::Federation>(mesh_config(seed)); });

  Rng sizes = Rng::stream(seed, "perfbench/mesh/live-data");
  Rng phases = Rng::stream(seed, "perfbench/mesh/dirty-phase");
  std::vector<std::shared_ptr<vmm::Vm>> vms;
  std::vector<std::int64_t> phase_ms;
  core::Testbed& source = fed->site(0);
  d.time("vmm.boot_s", [&] {
    for (int h = 0; h < source.eth_host_count(); ++h) {
      for (int v = 0; v < kVmsPerHost; ++v) {
        vmm::VmSpec spec;
        spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
        spec.memory = Bytes::gib(2);
        spec.base_os_footprint = Bytes::mib(256);
        auto vm = source.boot_vm(source.eth_host(h), spec, /*with_hca=*/false);
        // 192-320 MiB of live (incompressible) data; the example's fixed
        // 256 MiB is the mean.
        vm->memory().write_data(Bytes::mib(256), Bytes::mib(192 + sizes.next_below(129)));
        vms.push_back(std::move(vm));
        phase_ms.push_back(static_cast<std::int64_t>(phases.next_below(10000)));
      }
    }
  });
  fed->settle();
  d.set("setup_s", seconds_since(setup_t0));
  if (setup_only) {
    return d;
  }

  // Light guest activity: each VM re-dirties one of eight 32 MiB hot
  // regions every 10 s from its own phase, so pre-copy has iterative work
  // and the downtime bound is earned.
  bool evacuation_done = false;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    fed->sim().spawn([](sim::Simulation& sim, std::shared_ptr<vmm::Vm> vm, std::int64_t phase,
                        std::size_t slot, const bool& done) -> sim::Task {
      co_await sim.delay(Duration::millis(phase));
      while (!done) {
        vm->memory().write_data(Bytes::mib(256 + 32 * static_cast<std::uint64_t>(slot % 8)),
                                Bytes::mib(32));
        slot += 1;
        co_await sim.delay(Duration::seconds(10));
      }
    }(fed->sim(), vms[i], phase_ms[i], i, evacuation_done));
  }

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  core::MassEvacuation evac(*fed, ecfg);
  if (trace) {
    // The planner alone, on the problem run() is about to plan.
    const std::vector<plan::VmToMove> moves = fleet_moves(source);
    plan::EvacuationPlanner planner(evac.current_graph(), ecfg.planner);
    d.time("plan.plan_s", [&] { (void)planner.plan(ecfg.source_site, moves); });
  }

  core::EvacuationReport report;
  fed->sim().spawn([](core::MassEvacuation& e, core::EvacuationReport& out,
                      bool& done) -> sim::Task {
    co_await e.run(&out);
    done = true;
  }(evac, report, evacuation_done));

  const double cpu0 = process_cpu_seconds();
  const Clock::time_point run_t0 = Clock::now();
  fed->sim().run();
  const double wall = seconds_since(run_t0);
  d.set("wall_s", wall);
  d.set("host.cpu_s", process_cpu_seconds() - cpu0);

  MeshFacts facts;
  facts.fleet = vms.size();
  facts.evacuated = report.evacuated;
  facts.downtime_p99_ms = report.downtime_percentile(0.99).to_millis();
  facts.max_downtime_ms =
      source.eth_host(0).migration_engine().config().max_downtime.to_millis();
  facts.unconverged_exchanges = fed->unconverged_exchange_count();
  d.failures = gate_mesh(facts);

  const auto fleet = static_cast<double>(facts.fleet);
  d.set("sim_makespan_s", report.makespan().to_seconds());
  d.set("vmm.migration.sim_downtime_p99_ms", facts.downtime_p99_ms, facts.fleet);
  d.set("plan.waves", report.waves);
  d.set("plan.replans", report.replans);
  d.set("core.evac.host_ms_per_vm", wall * 1e3 / fleet, facts.fleet);

  record_fluid_counters(d, fed->net());
  d.set("sim.exchange.rounds_per_vm",
        static_cast<double>(fed->exchange_round_count()) / fleet, facts.fleet);

  std::uint64_t h = mix(0, static_cast<std::uint64_t>(report.makespan().count_nanos()));
  for (const core::VmOutcome& vm : report.vms) {
    h = mix(h, fnv1a(vm.vm));
    h = mix(h, fnv1a(vm.dst_host));
    h = mix(h, static_cast<std::uint64_t>(vm.start_ns));
    h = mix(h, static_cast<std::uint64_t>(vm.done_ns));
    h = mix(h, static_cast<std::uint64_t>(vm.downtime.count_nanos()));
  }
  d.digest = h;
  return d;
}

}  // namespace perfbench
