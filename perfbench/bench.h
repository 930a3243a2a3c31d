// Shared vocabulary of the repository benchmark: what one drive of a
// workload records, the correctness gates, and the metric table the
// report is built from.
//
// A *drive* builds one scenario from a seed (set-up), runs it to
// completion on the simulated clock, checks its correctness gates and
// records every value the benchmark reports. Host times come from spans
// this directory wraps around calls into each module's public API;
// counters are read from public accessors after the run. Nothing inside
// the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nm::sim {
class FluidNet;
}  // namespace nm::sim

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
[[nodiscard]] double seconds_since(Clock::time_point t0);
/// Host CPU seconds this process has consumed (all threads).
[[nodiscard]] double process_cpu_seconds();

/// One recorded value. `n` is the number of samples it summarises: the
/// requests behind a latency percentile, the VMs behind a downtime
/// percentile, 1 for a host time or a counter.
struct Value {
  double value = 0.0;
  std::uint64_t n = 1;
};

/// What one drive produced.
struct Drive {
  /// Fingerprint of the simulated outcome: equal seeds must give equal
  /// digests on every host, every run and every commit that claims to
  /// leave the model unchanged.
  std::uint64_t digest = 0;
  /// One line per failed correctness gate; empty when every gate passed.
  std::vector<std::string> failures;
  /// Findings worth printing that are not gate failures.
  std::vector<std::string> notes;
  /// Keyed by metric name (see metric_specs()).
  std::map<std::string, Value> values;

  void set(const std::string& name, double value, std::uint64_t n = 1) {
    values[name] = Value{value, n};
  }
  /// Runs `f()`, adding its host seconds to `name`.
  template <typename F>
  void time(const std::string& name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    values[name].value += seconds_since(t0);
  }
};

/// Records the SolvePool and boundary-exchange counters of `net` (the
/// sim.pool.* and sim.exchange.* metrics; none when the net has no pool).
void record_fluid_counters(Drive& d, nm::sim::FluidNet& net);

/// Folds `v` into an FNV-1a style running hash.
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v);

/// Sub-seed of drive slot `slot` within a run seeded `seed`.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, int slot);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

// ---- Workloads ---------------------------------------------------------

/// With `setup_only` the drive returns right after set-up, having
/// recorded only `setup_s` and the set-up spans. With `trace` it also
/// records per-layer extras that cost host time outside the timed run.
using DriveFn = Drive (*)(std::uint64_t seed, bool trace, bool setup_only);

struct Workload {
  const char* name;
  /// Distinct sub-seeds per run. Simulated metrics are medians over these
  /// drives; later drives repeat them and must reproduce their digests.
  int distinct_seeds;
  /// Set-up-only drives made after each drive; set-up metrics are their
  /// medians. Set-up takes a millisecond or less, so its samples are
  /// spread over the whole run rather than taken in one burst.
  int setups_per_drive;
  DriveFn drive;
};

[[nodiscard]] Drive drive_kv_live_migration(std::uint64_t seed, bool trace, bool setup_only);
[[nodiscard]] Drive drive_mesh_evacuation(std::uint64_t seed, bool trace, bool setup_only);
[[nodiscard]] Drive drive_ninja_npb_fallback(std::uint64_t seed, bool trace, bool setup_only);

[[nodiscard]] const std::vector<Workload>& workloads();

// ---- Correctness gates -------------------------------------------------
// Each gate takes the plain facts it judges and returns one line per
// violation, so the self-test can corrupt every fact in turn.

struct KvFacts {
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  bool episode_done = false;
  double blackout_ms = 0.0;
  /// The engine's stop-and-copy bound (see kv_live_migration.cpp).
  double max_blackout_ms = 0.0;
};
[[nodiscard]] std::vector<std::string> gate_kv(const KvFacts& f);

struct MeshFacts {
  std::size_t fleet = 0;
  std::size_t evacuated = 0;
  /// 0 is fine: a VM with nothing dirty at the pause has no blackout.
  double downtime_p99_ms = 0.0;
  double max_downtime_ms = 0.0;
  std::size_t unconverged_exchanges = 0;
};
[[nodiscard]] std::vector<std::string> gate_mesh(const MeshFacts& f);

struct NpbFacts {
  std::string kernel;
  int iterations = 0;
  /// Fewest iterations any rank finished.
  int min_iterations_done = 0;
  std::string transport_after_fallback;
  std::string transport_after_recovery;
  bool episodes_done = false;
};
[[nodiscard]] std::vector<std::string> gate_npb(const NpbFacts& f);

// ---- Metrics -----------------------------------------------------------

enum class Layer { kEndToEnd, kPerLayer };

/// How a metric's per-drive values combine into the run's value.
enum class Combine {
  kHost,     // median over every drive of the run (host time, noisy)
  kSetup,    // median over the run's set-up-only drives
  kSim,      // median over the distinct-seed drives (deterministic)
  kProcess,  // one value for the whole process (set by the runner)
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  Layer layer;
  Combine combine;
};

/// Every metric the benchmark reports, in report order. BENCHMARK.json
/// lists the same names, units and directions (run.py --self-test checks).
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

/// Final value of one metric for a run.
struct Reported {
  const MetricSpec* spec = nullptr;
  double value = 0.0;
  std::uint64_t n = 0;
};

/// Combines a run's drives, set-up-only drives and process-level values
/// into one value per metric, in metric_specs() order. Metrics a workload
/// does not exercise come out as 0 with n = 0.
[[nodiscard]] std::vector<Reported> combine(const std::vector<Drive>& drives,
                                            const std::vector<Drive>& setups,
                                            int distinct_seeds,
                                            const std::map<std::string, Value>& process);

/// Writes the human-readable metric lines and the final result line
/// (`{"correct", "attempted", "failed", "metrics"}`, the metrics of the
/// requested layer). Returns false, and reports why on stderr, when an
/// end-to-end metric is missing (n = 0) — such a run is not correct.
bool write_report(std::ostream& out, const std::vector<Reported>& metrics,
                  std::size_t attempted, std::size_t failed, bool trace);

/// Drive i >= distinct_seeds repeats the sub-seed of drive
/// i % distinct_seeds: it must reproduce that drive's digest and every
/// simulated value exactly, or it fails.
void check_repeats(std::vector<Drive>& drives, int distinct_seeds);

/// Host calibration: Mevents/s of a fixed post/drain loop on a bare
/// sim::Simulation, so figures from two machines can be normalised.
[[nodiscard]] double calibrate_mevents_per_s();

/// Checks the gates and the report writer; returns the process exit code.
int self_test();

}  // namespace perfbench
