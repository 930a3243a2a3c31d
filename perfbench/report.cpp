// Metric table, per-run aggregation and the result line.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void record_fluid_counters(Drive& d, nm::sim::FluidNet& net) {
  const nm::sim::SolvePool* pool = net.pool();
  if (pool == nullptr) {
    return;
  }
  d.set("sim.pool.settles", static_cast<double>(pool->settle_count()));
  d.set("sim.pool.solved_components", static_cast<double>(pool->solved_component_count()));
  d.set("sim.pool.max_batch", static_cast<double>(pool->max_batch_size()));
  d.set("sim.exchange.rounds", static_cast<double>(pool->exchange_round_count()));
  d.set("sim.exchange.skips", static_cast<double>(net.exchange_skip_count()));
  d.set("sim.exchange.max_rounds_per_settle",
        static_cast<double>(pool->max_exchange_rounds_per_settle()));
  d.set("sim.exchange.unconverged", static_cast<double>(pool->unconverged_exchange_count()));
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t sub_seed(std::uint64_t seed, int slot) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(slot);
  return nm::splitmix64(state);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

const std::vector<Workload>& workloads() {
  // About 50 set-up samples per run at the workloads' drive rates.
  static const std::vector<Workload> all = {
      {"kv_live_migration", 5, 10, &drive_kv_live_migration},
      {"mesh_evacuation", 5, 1, &drive_mesh_evacuation},
      {"ninja_npb_fallback", 3, 4, &drive_ninja_npb_fallback},
  };
  return all;
}

const std::vector<MetricSpec>& metric_specs() {
  constexpr Layer E = Layer::kEndToEnd;
  constexpr Layer L = Layer::kPerLayer;
  constexpr Combine H = Combine::kHost;
  constexpr Combine U = Combine::kSetup;
  constexpr Combine S = Combine::kSim;
  constexpr Combine P = Combine::kProcess;
  static const std::vector<MetricSpec> specs = {
      {"wall_s", "s", "lower", E, H},
      {"setup_s", "s", "lower", E, U},
      {"peak_rss_mb", "MB", "lower", E, P},
      {"sim_makespan_s", "s", "lower", E, S},

      {"sim.run_s", "s", "lower", L, H},
      {"host.cpu_s", "s", "lower", L, H},
      {"host.calib_mevents_per_s", "Mevents/s", "higher", L, P},
      {"trace.overhead_pct", "%", "lower", L, P},
      {"core.build_s", "s", "lower", L, U},
      {"vmm.boot_s", "s", "lower", L, U},
      {"mpi.job_init_s", "s", "lower", L, U},
      {"sim.pool.settles", "count", "lower", L, S},
      {"sim.pool.solved_components", "count", "lower", L, S},
      {"sim.pool.max_batch", "count", "higher", L, S},
      {"sim.pool.solves_per_request", "count", "lower", L, S},
      {"sim.exchange.rounds", "count", "lower", L, S},
      {"sim.exchange.skips", "count", "higher", L, S},
      {"sim.exchange.max_rounds_per_settle", "count", "lower", L, S},
      {"sim.exchange.unconverged", "count", "lower", L, S},
      {"sim.exchange.rounds_per_vm", "count", "lower", L, S},
      {"plan.plan_s", "s", "lower", L, H},
      {"plan.waves", "count", "lower", L, S},
      {"plan.replans", "count", "lower", L, S},
      {"core.evac.host_ms_per_vm", "ms", "lower", L, H},
      {"workloads.kv.host_us_per_request", "us", "lower", L, H},
      {"workloads.npb.BT.run_s", "s", "lower", L, H},
      {"workloads.npb.CG.run_s", "s", "lower", L, H},
      {"workloads.npb.FT.run_s", "s", "lower", L, H},
      {"workloads.npb.LU.run_s", "s", "lower", L, H},
      {"workloads.npb.host_ms_per_iteration", "ms", "lower", L, H},
      {"vmm.migration.rounds", "count", "lower", L, S},
      {"vmm.migration.wire_mb", "MB", "lower", L, S},
      {"vmm.migration.scanned_mb", "MB", "lower", L, S},
      {"vmm.migration.dup_saved_mb", "MB", "higher", L, S},
      {"vmm.migration.sim_precopy_s", "s", "lower", L, S},
      {"vmm.migration.sim_s", "s", "lower", L, S},
      {"vmm.migration.sim_downtime_p99_ms", "ms", "lower", L, S},
      {"symvirt.sim_coordination_s", "s", "lower", L, S},
      {"guestos.sim_hotplug_s", "s", "lower", L, S},
      {"net.ib.sim_linkup_s", "s", "lower", L, S},
      {"workloads.kv.sim_precopy_p50_ms", "ms", "lower", L, S},
      {"workloads.kv.sim_precopy_p999_ms", "ms", "lower", L, S},
      {"workloads.kv.sim_deadline_miss_ratio", "ratio", "lower", L, S},
      {"workloads.npb.sim_job_s", "s", "lower", L, S},
      {"core.ninja.sim_table2_err_pct", "%", "lower", L, S},
  };
  return specs;
}

std::vector<Reported> combine(const std::vector<Drive>& drives, const std::vector<Drive>& setups,
                              int distinct_seeds, const std::map<std::string, Value>& process) {
  std::vector<Reported> out;
  for (const MetricSpec& spec : metric_specs()) {
    Reported r;
    r.spec = &spec;
    if (spec.combine == Combine::kProcess) {
      if (const auto it = process.find(spec.name); it != process.end()) {
        r.value = it->second.value;
        r.n = it->second.n;
      }
      out.push_back(r);
      continue;
    }
    const std::vector<Drive>& from = spec.combine == Combine::kSetup ? setups : drives;
    const std::size_t limit = spec.combine == Combine::kSim
                                  ? std::min(from.size(), static_cast<std::size_t>(distinct_seeds))
                                  : from.size();
    std::vector<double> values;
    for (std::size_t i = 0; i < limit; ++i) {
      if (const auto it = from[i].values.find(spec.name); it != from[i].values.end()) {
        values.push_back(it->second.value);
        r.n += it->second.n;
      }
    }
    r.value = median(std::move(values));
    out.push_back(r);
  }
  return out;
}

namespace {

std::string number(double v) {
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

}  // namespace

bool write_report(std::ostream& out, const std::vector<Reported>& metrics,
                  std::size_t attempted, std::size_t failed, bool trace) {
  bool complete = true;
  for (const Reported& m : metrics) {
    if (m.spec->layer == Layer::kEndToEnd && m.n == 0) {
      std::cerr << "perfbench: end-to-end metric " << m.spec->name << " was not measured\n";
      complete = false;
    }
    out << "metric " << m.spec->name << " " << number(m.value) << " " << m.spec->unit
        << " n=" << m.n << "\n";
  }
  const Layer layer = trace ? Layer::kPerLayer : Layer::kEndToEnd;
  out << "{\"correct\": " << (complete && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Reported& m : metrics) {
    if (m.spec->layer != layer) {
      continue;
    }
    out << (first ? "" : ", ") << "\"" << m.spec->name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.spec->unit << "\"}";
    first = false;
  }
  out << "}}\n";
  return complete;
}

double calibrate_mevents_per_s() {
  // A fixed post/drain loop through the kernel's public API: delays up to
  // 5 ms land both on the heap and on the timer wheel. Rounds stay small so
  // the loop does not set the process's peak RSS.
  constexpr int kEvents = 10000;
  constexpr int kRounds = 100;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    nm::sim::Simulation sim(1);
    std::uint64_t fired = 0;
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kEvents; ++i) {
        sim.post(nm::Duration::nanos((static_cast<std::int64_t>(i) * 7919) % 5'000'000),
                 [&fired] { ++fired; });
      }
      (void)sim.run();
    }
    const double elapsed = seconds_since(t0);
    if (fired != static_cast<std::uint64_t>(kEvents) * kRounds) {
      return 0.0;
    }
    rates.push_back(static_cast<double>(fired) / elapsed / 1e6);
  }
  return median(std::move(rates));
}

}  // namespace perfbench
