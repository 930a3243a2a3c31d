// ninja_npb_fallback: the paper's mechanism. NPB BT, CG, FT and LU class
// D run with 64 ranks on 8 InfiniBand VMs; about 3 minutes in, each job
// falls back onto 4 Ethernet hosts (2:1 CPU over-commit, openib -> tcp),
// and 3 minutes after that it recovers onto the 8 InfiniBand hosts (HCA
// re-attach, IB link-up, tcp -> openib). It is the only workload that
// exercises symvirt, guest hotplug, BTL reconstruction and IB link-up,
// and it runs large 64-rank collective components on the Testbed-default
// legacy zero-delay settle path.
//
// From the seed: the instant of each kernel's fallback, 180-210 s after
// launch, which moves where in an iteration the coordination lands.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "workloads/npb.h"

namespace perfbench {

using namespace nm;

namespace {

constexpr int kVms = 8;
constexpr std::size_t kRanksPerVm = 8;
constexpr int kFallbackHosts = 4;

// Table II, paper values [s].
constexpr double kPaperHotplugIbToEth = 2.80;
constexpr double kPaperHotplugEthToIb = 1.15;
constexpr double kPaperLinkupEthToIb = 29.79;

double rel_err_pct(double measured, double paper) {
  return std::abs(measured - paper) / paper * 100.0;
}

}  // namespace

std::vector<std::string> gate_npb(const NpbFacts& f) {
  std::vector<std::string> out;
  if (f.iterations <= 0 || f.min_iterations_done != f.iterations) {
    out.push_back("npb " + f.kernel + ": a rank finished " +
                  std::to_string(f.min_iterations_done) + " of " +
                  std::to_string(f.iterations) + " iterations");
  }
  if (!f.episodes_done) {
    out.push_back("npb " + f.kernel + ": a Ninja episode did not complete");
  }
  if (f.transport_after_fallback != "tcp") {
    out.push_back("npb " + f.kernel + ": transport after fallback is '" +
                  f.transport_after_fallback + "', expected tcp");
  }
  if (f.transport_after_recovery != "openib") {
    out.push_back("npb " + f.kernel + ": transport after recovery is '" +
                  f.transport_after_recovery + "', expected openib");
  }
  return out;
}

Drive drive_ninja_npb_fallback(std::uint64_t seed, bool /*trace*/, bool setup_only) {
  Drive d;
  Rng jitter = Rng::stream(seed, "perfbench/npb/fallback-at");
  const Duration confirm = symvirt::CoordinatorTiming{}.confirm;

  double setup = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  double makespan = 0.0;
  double job_s = 0.0;
  double migration_s = 0.0;
  double coordination_s = 0.0;
  double hotplug_s = 0.0;
  double linkup_s = 0.0;
  double table2_err = 0.0;
  int episodes = 0;
  int recoveries = 0;
  std::uint64_t iterations = 0;
  double rounds = 0.0;
  double wire = 0.0;
  double scanned = 0.0;
  double dup_saved = 0.0;
  std::vector<double> downtimes_ms;
  std::uint64_t h = 0;

  for (const workloads::NpbSpec& spec : workloads::npb_class_d_suite()) {
    const Duration fallback_at =
        Duration::minutes(3) +
        Duration::millis(static_cast<std::int64_t>(jitter.next_below(30000)));
    const Clock::time_point setup_t0 = Clock::now();
    core::TestbedConfig tcfg;
    tcfg.seed = seed;
    std::unique_ptr<core::Testbed> tb;
    d.time("core.build_s", [&] { tb = std::make_unique<core::Testbed>(tcfg); });
    core::JobConfig cfg;
    cfg.name = spec.name;
    cfg.vm_count = kVms;
    cfg.ranks_per_vm = kRanksPerVm;
    std::unique_ptr<core::MpiJob> job;
    d.time("vmm.boot_s", [&] { job = std::make_unique<core::MpiJob>(*tb, cfg); });
    d.time("mpi.job_init_s", [&] { job->init(); });
    setup += seconds_since(setup_t0);
    if (setup_only) {
      continue;
    }

    std::vector<workloads::NpbResult> results(job->rank_count());
    job->launch([&job, &results, spec](mpi::RankId me) -> sim::Task {
      co_await workloads::run_npb_rank(*job, me, spec, &results[me]);
    });
    core::NinjaStats fallback;
    core::NinjaStats recovery;
    std::string after_fallback;
    std::string after_recovery;
    tb->sim().spawn([](core::Testbed& t, core::MpiJob& j, Duration at, core::NinjaStats& fb,
                       core::NinjaStats& rc, std::string& tr_fb,
                       std::string& tr_rc) -> sim::Task {
      co_await t.sim().delay(at);
      co_await j.fallback_migration(kFallbackHosts, &fb);
      tr_fb = j.current_transport();
      co_await t.sim().delay(Duration::minutes(3));
      co_await j.recovery_migration(kVms, &rc);
      tr_rc = j.current_transport();
    }(*tb, *job, fallback_at, fallback, recovery, after_fallback, after_recovery));

    const double cpu0 = process_cpu_seconds();
    const Clock::time_point run_t0 = Clock::now();
    tb->sim().run();
    const double run_s = seconds_since(run_t0);
    cpu += process_cpu_seconds() - cpu0;
    wall += run_s;
    d.set("workloads.npb." + spec.name + ".run_s", run_s);

    NpbFacts facts;
    facts.kernel = spec.name;
    facts.iterations = spec.iterations;
    facts.min_iterations_done = spec.iterations;
    for (const workloads::NpbResult& r : results) {
      facts.min_iterations_done = std::min(facts.min_iterations_done, r.iterations_done);
    }
    facts.transport_after_fallback = after_fallback;
    facts.transport_after_recovery = after_recovery;
    facts.episodes_done = fallback.total > Duration::zero() && recovery.total > Duration::zero();
    for (std::string& line : gate_npb(facts)) {
      d.failures.push_back(std::move(line));
    }

    job_s += results[0].elapsed.to_seconds();
    iterations += static_cast<std::uint64_t>(spec.iterations);
    table2_err = std::max(
        {table2_err,
         rel_err_pct(fallback.hotplug(confirm).to_seconds(), kPaperHotplugIbToEth),
         rel_err_pct(recovery.hotplug(confirm).to_seconds(), kPaperHotplugEthToIb),
         rel_err_pct(recovery.linkup_excl_confirm(confirm).to_seconds(), kPaperLinkupEthToIb)});
    linkup_s += recovery.linkup_excl_confirm(confirm).to_seconds();
    ++recoveries;
    h = mix(h, fnv1a(spec.name));
    h = mix(h, static_cast<std::uint64_t>(results[0].elapsed.count_nanos()));
    h = mix(h, fnv1a(after_fallback));
    h = mix(h, fnv1a(after_recovery));
    for (const core::NinjaStats* st : {&fallback, &recovery}) {
      makespan += st->total.to_seconds();
      migration_s += st->migration.to_seconds();
      coordination_s += st->coordination.to_seconds();
      hotplug_s += st->hotplug(confirm).to_seconds();
      ++episodes;
      for (const Duration part : {st->coordination, st->detach, st->migration, st->attach,
                                  st->linkup, st->total}) {
        h = mix(h, static_cast<std::uint64_t>(part.count_nanos()));
      }
      for (const vmm::MigrationStats& vm : st->per_vm) {
        rounds += vm.rounds;
        wire += static_cast<double>(vm.wire_bytes.count()) / 1e6;
        scanned += static_cast<double>(vm.scanned.count()) / 1e6;
        dup_saved += static_cast<double>(vm.dup_pages_saved.count()) / 1e6;
        downtimes_ms.push_back(vm.downtime.to_millis());
        h = mix(h, static_cast<std::uint64_t>(vm.downtime.count_nanos()));
      }
    }
  }
  d.set("setup_s", setup);
  if (setup_only) {
    return d;
  }

  d.set("wall_s", wall);
  d.set("host.cpu_s", cpu);
  d.set("sim_makespan_s", makespan, static_cast<std::uint64_t>(episodes));
  d.set("vmm.migration.sim_downtime_p99_ms", percentile(downtimes_ms, 0.99),
        downtimes_ms.size());
  d.set("workloads.npb.sim_job_s", job_s, 4);
  d.set("workloads.npb.host_ms_per_iteration", wall * 1e3 / static_cast<double>(iterations),
        iterations);
  d.set("core.ninja.sim_table2_err_pct", table2_err, static_cast<std::uint64_t>(episodes));
  d.set("vmm.migration.sim_s", migration_s, static_cast<std::uint64_t>(episodes));
  d.set("vmm.migration.rounds", rounds, downtimes_ms.size());
  d.set("vmm.migration.wire_mb", wire, downtimes_ms.size());
  d.set("vmm.migration.scanned_mb", scanned, downtimes_ms.size());
  d.set("vmm.migration.dup_saved_mb", dup_saved, downtimes_ms.size());
  d.set("symvirt.sim_coordination_s", coordination_s / episodes,
        static_cast<std::uint64_t>(episodes));
  d.set("guestos.sim_hotplug_s", hotplug_s / episodes, static_cast<std::uint64_t>(episodes));
  d.set("net.ib.sim_linkup_s", linkup_s / recoveries, static_cast<std::uint64_t>(recoveries));
  d.digest = h;
  return d;
}

}  // namespace perfbench
