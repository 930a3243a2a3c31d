// Ablation benches for the design choices DESIGN.md calls out and the
// optimizations discussed in the paper's §V:
//   A. dup-page compression on/off (why memtest migrations are cheap);
//   B. TCP vs RDMA-based migration (the §V CPU-bottleneck discussion:
//      "the network throughput of migration is less than 1.3 Gbps ...
//      RDMA-based migration can reduce CPU utilization and improve the
//      throughput");
//   C. ompi_cr_continue_like_restart on/off (whether a recovery migration
//      re-acquires InfiniBand, §III-C);
//   D. InfiniBand link-up time sweep (what fixing the ~30 s port training
//      — an open issue in §V — would buy per episode);
//   F. migration-decision policies under live service load (`--policies`
//      runs only this study and emits BENCH_ablation_policies.json for the
//      CI key pin; exits non-zero unless SloThrottlePolicy improves the
//      pre-copy p99 over StaticPolicy with the blackout still <= 30 ms).
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/service_episode.h"
#include "core/testbed.h"
#include "policy/policies.h"
#include "util/table.h"
#include "workloads/bcast_reduce.h"
#include "workloads/kv_service.h"
#include "workloads/memtest.h"

// Forward declaration for study E (defined below main's helpers).

namespace {

using namespace nm;

double migrate_20gib_memtest(bool compress, bool rdma) {
  core::TestbedConfig tcfg;
  tcfg.migration.compress_dup_pages = compress;
  tcfg.migration.use_rdma = rdma;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 1;
  cfg.ranks_per_vm = 1;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::MemtestConfig mcfg;
  mcfg.array_size = Bytes::gib(8);
  mcfg.passes = 500;
  job.launch([&job, mcfg](mpi::RankId me) -> sim::Task {
    co_await workloads::run_memtest_rank(job, me, mcfg, nullptr);
  });
  core::NinjaStats stats;
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j, core::NinjaStats& st) -> sim::Task {
    co_await t.sim().delay(Duration::seconds(5.0));
    co_await j.fallback_migration(1, &st);
  }(tb, job, stats));
  tb.sim().run_for(Duration::minutes(20));
  return stats.migration.to_seconds();
}

double recovery_iteration_time(bool continue_like_restart) {
  core::Testbed tb;
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  cfg.on_ib_cluster = false;
  cfg.with_hca = false;
  cfg.mpi.continue_like_restart = continue_like_restart;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 20;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  tb.sim().spawn([](core::MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b)
                     -> sim::Task {
    co_await b->wait_step(5);
    co_await j.recovery_migration(4);
  }(job, bench));
  tb.sim().run();
  // Mean of the post-recovery steady iterations.
  const auto& t = bench->iteration_seconds();
  double sum = 0;
  int n = 0;
  for (std::size_t i = 14; i < t.size(); ++i) {
    sum += t[i];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double episode_total_with_linkup(double linkup_seconds) {
  core::TestbedConfig tcfg;
  tcfg.ib.linkup_time = Duration::seconds(linkup_seconds);
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 30;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  core::NinjaStats stats;
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j,
                    std::shared_ptr<workloads::BcastReduceBench> b,
                    core::NinjaStats& st) -> sim::Task {
    co_await b->wait_step(3);
    // IB -> IB rotation keeps the link-up on the critical path.
    core::MigrationPlan plan;
    plan.vms = j.vms();
    for (int i = 0; i < 4; ++i) {
      plan.destinations.push_back(t.ib_host((i + 1) % 4).name());
    }
    plan.attach_host_pci = core::Testbed::kHcaPciAddr;
    plan.ranks_per_vm = 1;
    co_await j.ninja().execute(std::move(plan), &st);
  }(tb, job, bench, stats));
  tb.sim().run();
  return stats.total.to_seconds();
}

double consolidated_iteration_time(bool sriov) {
  // 4 VMs consolidated on 2 InfiniBand blades. With plain passthrough
  // (vf=1) only one VM per blade can hold the HCA, so the job must run
  // TCP; with SR-IOV (vf>=2) every VM keeps a virtual function and the
  // consolidated job stays on InfiniBand — a configuration the paper's
  // testbed could not express.
  core::TestbedConfig tcfg;
  tcfg.hca_vfs = sriov ? 4 : 1;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  cfg.on_ib_cluster = true;
  cfg.with_hca = false;  // start without; episode decides the transport
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 24;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j,
                    std::shared_ptr<workloads::BcastReduceBench> b, bool vf) -> sim::Task {
    co_await b->wait_step(3);
    core::MigrationPlan plan;
    plan.vms = j.vms();
    plan.destinations = {t.ib_host(4).name(), t.ib_host(5).name()};  // 2 blades
    plan.ranks_per_vm = 1;
    if (vf) {
      plan.attach_host_pci = core::Testbed::kHcaPciAddr;  // a VF for every VM
    }
    co_await j.ninja().execute(std::move(plan));
  }(tb, job, bench, sriov));
  tb.sim().run();
  const auto& t = bench->iteration_seconds();
  double sum = 0;
  int n = 0;
  for (std::size_t i = 14; i < t.size(); ++i) {
    sum += t[i];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

// --- Study F: decision policies under live service load ---------------------

struct PolicyRunMetrics {
  std::string key;  // JSON key prefix
  std::uint64_t digest = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  bool episode_done = false;
  std::int64_t precopy_p99_ns = 0;
  std::uint64_t precopy_misses = 0;
  std::int64_t blackout_ns = 0;
  std::int64_t total_ns = 0;
};

enum class PolicyVariant { kStatic, kSloThrottle, kQuietPause };

// The examples/live_service scenario: 4 loaded KV servers (per-server
// utilisation ~0.9), kv0 migrated off its draining host at t=2 s while 4
// fleets keep an open loop of 10,400 req/s on the service.
PolicyRunMetrics run_policy_episode(PolicyVariant variant) {
  core::TestbedConfig config;
  core::Testbed testbed(config);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.service_core_seconds = 1.38e-3;
  svc.worker_threads = 8;
  svc.zipf_s = 0.7;
  svc.deadline = Duration::millis(20);
  svc.write_fraction = 0.4;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 4; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(256);
    spec.base_os_footprint = Bytes::mib(96);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 4; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = 2600.0;
    fleet.window = Duration::seconds(10);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();
  core::EpisodeSpec spec(vms[0], testbed.eth_host(4));
  spec.after(Duration::seconds(2)).observe(service.observation_source());
  policy::PolicySet policies;
  PolicyRunMetrics m;
  switch (variant) {
    case PolicyVariant::kStatic:
      m.key = "static";
      break;
    case PolicyVariant::kSloThrottle:
      m.key = "slo_throttle";
      policies.use(policy::Hook::kPreCopyRound,
                   std::make_shared<policy::SloThrottlePolicy>());
      break;
    case PolicyVariant::kQuietPause:
      m.key = "quiet_pause";
      policies.use(policy::Hook::kPauseDecision,
                   std::make_shared<policy::QuietPausePolicy>());
      break;
  }
  spec.with(std::move(policies), config.seed);
  (void)episode.start(std::move(spec));
  testbed.sim().run_for(Duration::seconds(40));

  m.digest = service.digest();
  m.generated = service.generated();
  m.completed = service.completed();
  m.episode_done = episode.done();
  const auto& precopy = service.phase(vmm::MigrationPhase::kPreCopy);
  m.precopy_misses = precopy.deadline_misses;
  if (precopy.latency.count() > 0) {
    m.precopy_p99_ns = precopy.latency.percentile(0.99).count_nanos();
  }
  if (m.episode_done) {
    m.blackout_ns = episode.report().blackout.count_nanos();
    m.total_ns = episode.report().total.count_nanos();
  }
  return m;
}

int run_policies(bool json_only) {
  // The SLO loop must actually close: throttling has to buy pre-copy tail
  // latency, and it must never buy it from the blackout (round caps do not
  // apply to the stop-and-copy drain).
  constexpr std::int64_t kBlackoutCeilingNs = 30'000'000;
  if (!json_only) {
    std::cout << "\nF. Decision policies under live service load (the\n"
                 "   examples/live_service scenario: 10,400 req/s open-loop, kv0\n"
                 "   migrated off its draining host at t=2 s):\n";
  }
  std::vector<PolicyRunMetrics> runs;
  runs.push_back(run_policy_episode(PolicyVariant::kStatic));
  runs.push_back(run_policy_episode(PolicyVariant::kSloThrottle));
  runs.push_back(run_policy_episode(PolicyVariant::kQuietPause));

  TextTable table({"policy", "pre-copy p99 [ms]", "pre-copy misses", "blackout [ms]",
                   "episode total [ms]"});
  bool ok = true;
  for (const auto& m : runs) {
    ok = ok && m.episode_done && m.completed == m.generated && m.precopy_p99_ns > 0;
    table.add_row({m.key, TextTable::num(static_cast<double>(m.precopy_p99_ns) / 1e6, 2),
                   std::to_string(m.precopy_misses),
                   TextTable::num(static_cast<double>(m.blackout_ns) / 1e6, 2),
                   TextTable::num(static_cast<double>(m.total_ns) / 1e6, 2)});
  }
  const PolicyRunMetrics& st = runs[0];
  const PolicyRunMetrics& throttle = runs[1];
  if (throttle.precopy_p99_ns >= st.precopy_p99_ns) {
    std::cout << "FAIL: slo-throttle did not improve the pre-copy p99 ("
              << throttle.precopy_p99_ns << " vs static " << st.precopy_p99_ns << " ns)\n";
    ok = false;
  }
  if (throttle.blackout_ns > kBlackoutCeilingNs) {
    std::cout << "FAIL: slo-throttle blackout " << throttle.blackout_ns
              << " ns exceeds the " << kBlackoutCeilingNs << " ns ceiling\n";
    ok = false;
  }
  if (!json_only) {
    table.render(std::cout);
    std::cout << "SloThrottlePolicy trades episode length for user tail latency;\n"
                 "QuietPausePolicy re-times the pause into an arrival gap. Neither\n"
                 "touches the stop-and-copy drain, so max_downtime holds for all.\n";
  } else {
    table.render(std::cout);
  }

  std::ofstream out("BENCH_ablation_policies.json");
  out << "{\n  \"requests\": " << st.generated << ",\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& m = runs[i];
    out << "  \"" << m.key << "_digest\": " << m.digest << ",\n"
        << "  \"" << m.key << "_precopy_p99_ns\": " << m.precopy_p99_ns << ",\n"
        << "  \"" << m.key << "_precopy_misses\": " << m.precopy_misses << ",\n"
        << "  \"" << m.key << "_blackout_ns\": " << m.blackout_ns << ",\n"
        << "  \"" << m.key << "_total_ns\": " << m.total_ns
        << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--policies` runs only study F and emits BENCH_ablation_policies.json;
  // CI pins its key set with tools/check_bench_keys.sh and the run itself
  // gates the SLO-loop win (see run_policies).
  if (argc > 1 && std::strcmp(argv[1], "--policies") == 0) {
    return run_policies(/*json_only=*/true);
  }
  bench::print_header("Ablations", "design-choice and §V-optimization studies");

  std::cout << "\nA/B. Migration of a 20 GiB memtest VM (8 GiB uniform array):\n";
  TextTable ab({"configuration", "migration time [s]"});
  const double tcp_comp = migrate_20gib_memtest(true, false);
  const double tcp_raw = migrate_20gib_memtest(false, false);
  const double rdma_comp = migrate_20gib_memtest(true, true);
  const double rdma_raw = migrate_20gib_memtest(false, true);
  ab.add_row({"TCP + dup-page compression (QEMU default)", TextTable::num(tcp_comp)});
  ab.add_row({"TCP, no compression", TextTable::num(tcp_raw)});
  ab.add_row({"RDMA + compression (paper SS V optimization)", TextTable::num(rdma_comp)});
  ab.add_row({"RDMA, no compression", TextTable::num(rdma_raw)});
  ab.render(std::cout);
  std::cout << "Compression hides the uniform array; RDMA removes the 1.3 Gb/s\n"
               "single-thread TCP cap (biggest win when pages do not compress).\n";

  std::cout << "\nC. ompi_cr_continue_like_restart (recovery migration Eth -> IB):\n";
  TextTable c({"flag", "post-recovery iteration [s]", "transport"});
  const double with_flag = recovery_iteration_time(true);
  const double without_flag = recovery_iteration_time(false);
  c.add_row({"set (paper's configuration)", TextTable::num(with_flag), "openib"});
  c.add_row({"unset", TextTable::num(without_flag), "tcp (never upgrades)"});
  c.render(std::cout);

  std::cout << "\nD. InfiniBand link-up time sweep (SS V open issue):\n";
  TextTable d({"linkup_time [s]", "ninja episode total [s]"});
  for (const double linkup : {29.9, 10.0, 1.0, 0.0}) {
    d.add_row({TextTable::num(linkup), TextTable::num(episode_total_with_linkup(linkup))});
  }
  d.render(std::cout);
  std::cout << "Eliminating the ~30 s port training is worth about that much per\n"
               "episode — the single biggest optimization opportunity the paper\n"
               "identifies.\n";

  std::cout << "\nE. SR-IOV extension: consolidating 4 VMs onto 2 IB blades:\n";
  TextTable e({"HCA mode", "post-consolidation iteration [s]", "transport"});
  const double tcp_iter = consolidated_iteration_time(false);
  const double vf_iter = consolidated_iteration_time(true);
  e.add_row({"PCI passthrough (paper's hardware)", TextTable::num(tcp_iter),
             "tcp (HCA cannot be shared)"});
  e.add_row({"SR-IOV, 4 VFs", TextTable::num(vf_iter), "openib (one VF per VM)"});
  e.render(std::cout);
  std::cout << "SR-IOV removes the only reason consolidated placements had to fall\n"
               "back to TCP — an extension experiment beyond the paper's testbed.\n";
  return run_policies(/*json_only=*/false);
}
