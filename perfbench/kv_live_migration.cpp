// kv_live_migration: the examples/live_service scenario, run once with
// the static policy. Four KV servers on the Ethernet cluster serve
// 10,400 req/s of open-loop zipf-0.7 traffic (40 % writes) while kv0 is
// live-migrated off its host at t = 2 s. The request path dominates host
// time (several component solves per request on the SolvePool settle
// path, fluid_shards = 2), so this is the workload where per-request
// solver work shows.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/service_episode.h"
#include "core/testbed.h"
#include "workloads/kv_service.h"

namespace perfbench {

using namespace nm;

namespace {

constexpr int kServers = 4;
constexpr int kFleets = 4;
constexpr double kRatePerFleet = 2600.0;  // 10,400 req/s offered
constexpr Duration kWindow = Duration::seconds(10);
constexpr Duration kMigrateAt = Duration::seconds(2);

}  // namespace

std::vector<std::string> gate_kv(const KvFacts& f) {
  std::vector<std::string> out;
  if (f.generated == 0 || f.completed != f.generated) {
    out.push_back("kv: completed " + std::to_string(f.completed) + " of " +
                  std::to_string(f.generated) + " generated requests");
  }
  if (!f.episode_done) {
    out.push_back("kv: migration episode did not complete");
  }
  if (!(f.blackout_ms > 0.0 && f.blackout_ms <= f.max_blackout_ms)) {
    out.push_back("kv: blackout " + std::to_string(f.blackout_ms) + " ms outside (0, " +
                  std::to_string(f.max_blackout_ms) + " ms]");
  }
  return out;
}

Drive drive_kv_live_migration(std::uint64_t seed, bool /*trace*/, bool setup_only) {
  Drive d;
  const Clock::time_point setup_t0 = Clock::now();

  core::TestbedConfig config;
  config.solve_workers = 0;
  // A second (empty) shard puts the SolvePool's end-of-instant settle
  // schedule on at 0 workers, as in examples/live_service.
  config.fluid_shards = 2;
  config.seed = seed;  // drives the fleets' arrival, key and write streams
  std::unique_ptr<core::Testbed> testbed;
  d.time("core.build_s", [&] { testbed = std::make_unique<core::Testbed>(config); });

  // Service and VM sizing as in examples/live_service, which gives the
  // reasons for each value.
  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.service_core_seconds = 1.38e-3;
  svc.worker_threads = 8;
  svc.zipf_s = 0.7;
  svc.deadline = Duration::millis(20);
  svc.write_fraction = 0.4;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(*testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  d.time("vmm.boot_s", [&] {
    for (int i = 0; i < kServers; ++i) {
      vmm::VmSpec spec;
      spec.name = "kv" + std::to_string(i);
      spec.memory = Bytes::mib(256);
      spec.base_os_footprint = Bytes::mib(96);
      vms.push_back(testbed->boot_vm(testbed->eth_host(i), spec, /*with_hca=*/false));
      service.add_server(vms.back());
    }
  });
  for (int i = 0; i < kFleets; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = kRatePerFleet;
    fleet.window = kWindow;
    service.add_fleet(testbed->ib_host(i), fleet);
  }
  testbed->settle();
  d.set("setup_s", seconds_since(setup_t0));
  if (setup_only) {
    return d;
  }

  core::ServiceEpisode episode(testbed->sim());
  service.observe_migration(&episode.live());
  service.start();
  core::EpisodeSpec spec(vms[0], testbed->eth_host(kServers));
  spec.after(kMigrateAt).observe(service.observation_source());
  (void)episode.start(std::move(spec));

  const double cpu0 = process_cpu_seconds();
  const Clock::time_point run_t0 = Clock::now();
  testbed->sim().run_for(kWindow + Duration::seconds(30));
  const double wall = seconds_since(run_t0);
  d.set("wall_s", wall);
  d.set("host.cpu_s", process_cpu_seconds() - cpu0);

  // The engine pauses once the remaining dirty bytes would cross the wire
  // within max_downtime at the send rate, but its single thread also
  // walks each dirty page at scan_rate before sending it, so the blackout
  // may reach max_downtime * (1 + send rate / scan rate). Past that bound
  // the engine is broken; between the target and the bound it behaves as
  // modelled, and the drive notes the overshoot.
  const vmm::MigrationConfig& engine = testbed->eth_host(0).migration_engine().config();
  const double max_downtime_ms = engine.max_downtime.to_millis();
  KvFacts facts;
  facts.generated = service.generated();
  facts.completed = service.completed();
  facts.episode_done = episode.done();
  facts.max_blackout_ms =
      max_downtime_ms * (1.0 + engine.thread_send_rate / engine.scan_rate.bytes_per_second());
  core::ServiceEpisodeReport report;
  if (facts.episode_done) {
    report = episode.report();
    facts.blackout_ms = report.blackout.to_millis();
  }
  d.failures = gate_kv(facts);
  if (facts.blackout_ms > max_downtime_ms) {
    d.notes.push_back("kv: blackout " + std::to_string(facts.blackout_ms) +
                      " ms is over the " + std::to_string(max_downtime_ms) +
                      " ms max_downtime target (page walk not in the estimate)");
  }

  const auto& precopy = service.phase(vmm::MigrationPhase::kPreCopy);
  const std::uint64_t precopy_n = precopy.latency.count();
  const vmm::MigrationStats& live = episode.live();
  d.set("sim_makespan_s", report.total.to_seconds());
  d.set("vmm.migration.sim_downtime_p99_ms", report.blackout.to_millis());
  if (precopy_n > 0) {
    d.set("workloads.kv.sim_precopy_p50_ms", precopy.latency.percentile(0.5).to_millis(),
          precopy_n);
    d.set("workloads.kv.sim_precopy_p999_ms", precopy.latency.percentile(0.999).to_millis(),
          precopy_n);
  }
  d.set("workloads.kv.sim_deadline_miss_ratio",
        facts.generated > 0 ? static_cast<double>(service.deadline_misses()) /
                                  static_cast<double>(facts.generated)
                            : 0.0,
        facts.generated);
  d.set("workloads.kv.host_us_per_request",
        facts.completed > 0 ? wall * 1e6 / static_cast<double>(facts.completed) : 0.0,
        facts.completed);

  d.set("vmm.migration.rounds", live.rounds);
  d.set("vmm.migration.wire_mb", static_cast<double>(live.wire_bytes.count()) / 1e6);
  d.set("vmm.migration.scanned_mb", static_cast<double>(live.scanned.count()) / 1e6);
  d.set("vmm.migration.dup_saved_mb", static_cast<double>(live.dup_pages_saved.count()) / 1e6);
  d.set("vmm.migration.sim_precopy_s", report.precopy.to_seconds());
  d.set("vmm.migration.sim_s", live.total.to_seconds());

  record_fluid_counters(d, testbed->net());
  if (facts.completed > 0 && d.values.count("sim.pool.solved_components") != 0) {
    d.set("sim.pool.solves_per_request",
          d.values["sim.pool.solved_components"].value / static_cast<double>(facts.completed),
          facts.completed);
  }

  std::uint64_t h = service.digest();
  h = mix(h, static_cast<std::uint64_t>(report.start_at.count_nanos()));
  h = mix(h, static_cast<std::uint64_t>(report.pause_at.count_nanos()));
  h = mix(h, static_cast<std::uint64_t>(report.end_at.count_nanos()));
  h = mix(h, live.wire_bytes.count());
  h = mix(h, static_cast<std::uint64_t>(live.rounds));
  d.digest = h;
  return d;
}

}  // namespace perfbench
