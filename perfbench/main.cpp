// nm_perfbench: runs one benchmark workload for a given time and prints
// its metrics. See README.md in this directory.
//
//   nm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   nm_perfbench --self-test
//   nm_perfbench --list-metrics
#include <sched.h>
#include <sys/resource.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

void check_repeats(std::vector<Drive>& drives, int distinct_seeds) {
  for (std::size_t i = static_cast<std::size_t>(distinct_seeds); i < drives.size(); ++i) {
    const Drive& first = drives[i % static_cast<std::size_t>(distinct_seeds)];
    Drive& again = drives[i];
    bool same = again.digest == first.digest;
    for (const MetricSpec& spec : metric_specs()) {
      if (spec.combine != Combine::kSim) {
        continue;
      }
      const auto a = first.values.find(spec.name);
      const auto b = again.values.find(spec.name);
      const bool has_a = a != first.values.end();
      const bool has_b = b != again.values.end();
      same = same && has_a == has_b &&
             (!has_a || (a->second.value == b->second.value && a->second.n == b->second.n));
    }
    if (!same) {
      again.failures.push_back("drive " + std::to_string(i) +
                               " did not reproduce the simulated outcome of drive " +
                               std::to_string(i % static_cast<std::size_t>(distinct_seeds)));
    }
  }
}

namespace {

double value_of(const Drive& d, const std::string& name) {
  const auto it = d.values.find(name);
  return it != d.values.end() ? it->second.value : 0.0;
}

constexpr double kHardStopSeconds = 120.0;  // never start a drive after this

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const int k = w.distinct_seeds;
  std::map<std::string, Value> process;
  process["host.calib_mevents_per_s"] = Value{calibrate_mevents_per_s(), 3};
  std::cout << "perfbench: workload=" << w.name << " seed=" << seed << " seconds=" << seconds
            << " trace=" << (trace ? 1 : 0) << "\n"
            << "host.calib_mevents_per_s " << process["host.calib_mevents_per_s"].value << "\n";

  // With tracing, rounds of k drives (one per sub-seed) alternate traced
  // and untraced. Drive i + k repeats drive i's sub-seed right after it,
  // untraced, and the pair gives the tracing overhead.
  const std::size_t min_drives = static_cast<std::size_t>(trace ? k + 1 : k);
  std::vector<Drive> drives;
  std::vector<Drive> setups;
  // On a shared machine each CPU's speed drifts on its own for tens of
  // seconds at a time. Rotating the drives over every allowed CPU keeps
  // one slow CPU from setting the run's medians.
  const std::vector<int> cpus = allowed_cpus();
  const Clock::time_point t0 = Clock::now();
  while (drives.size() < min_drives ||
         (seconds_since(t0) < seconds && seconds_since(t0) < kHardStopSeconds)) {
    const int slot = static_cast<int>(drives.size() % static_cast<std::size_t>(k));
    const bool traced = trace && (drives.size() / static_cast<std::size_t>(k)) % 2 == 0;
    if (!cpus.empty()) {
      pin_to(cpus[drives.size() % cpus.size()]);
    }
    Drive d;
    try {
      d = w.drive(sub_seed(seed, slot), traced, /*setup_only=*/false);
    } catch (const std::exception& e) {
      d.failures.push_back(std::string("drive threw: ") + e.what());
    }
    if (traced && d.values.count("wall_s") != 0) {
      d.set("sim.run_s", value_of(d, "wall_s"));
    }
    drives.push_back(std::move(d));
    for (int i = 0; i < w.setups_per_drive; ++i) {
      setups.push_back(w.drive(sub_seed(seed, slot), false, /*setup_only=*/true));
    }
    if (seconds_since(t0) >= kHardStopSeconds) {
      break;
    }
  }
  check_repeats(drives, k);
  const std::size_t attempted = drives.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < drives.size(); ++i) {
    std::cout << "drive " << i << " sub-seed " << sub_seed(seed, static_cast<int>(i % k))
              << " digest " << std::hex << drives[i].digest << std::dec << " wall_s "
              << value_of(drives[i], "wall_s") << " setup_s " << value_of(drives[i], "setup_s")
              << (drives[i].failures.empty() ? " ok" : " FAILED") << "\n";
    for (const std::string& line : drives[i].failures) {
      std::cout << "  gate: " << line << "\n";
    }
    for (const std::string& line : drives[i].notes) {
      std::cout << "  note: " << line << "\n";
    }
    failed += drives[i].failures.empty() ? 0 : 1;
  }

  if (trace) {
    std::vector<double> ratios;
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) < drives.size(); ++i) {
      const double traced = value_of(drives[i], "sim.run_s");
      const Drive& next = drives[i + static_cast<std::size_t>(k)];
      if (traced > 0.0 && next.values.count("sim.run_s") == 0 && value_of(next, "wall_s") > 0.0) {
        ratios.push_back((traced / value_of(next, "wall_s") - 1.0) * 100.0);
      }
    }
    process["trace.overhead_pct"] = Value{median(ratios), ratios.size()};
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  process["peak_rss_mb"] = Value{static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6, 1};

  const bool complete =
      write_report(std::cout, combine(drives, setups, k, process), attempted, failed, trace);
  return complete ? 0 : 1;
}

void usage() {
  std::cerr << "usage: nm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       nm_perfbench --self-test | --list-metrics\n"
               "workloads:";
  for (const Workload& w : workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") {
        return self_test();
      }
      if (arg == "--list-metrics") {
        for (const MetricSpec& m : metric_specs()) {
          std::cout << (m.layer == Layer::kEndToEnd ? "end_to_end " : "per_layer ") << m.name
                    << " " << m.unit << " " << m.better << "\n";
        }
        return 0;
      }
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = value != "0";
      } else {
        usage();
        return 2;
      }
    }
    const Workload* w = find_workload(workload);
    if (w == nullptr || !(seconds > 0.0)) {
      usage();
      return 2;
    }
    return run(*w, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
