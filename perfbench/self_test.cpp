// The benchmark's own self-test: every correctness gate must reject a
// corrupted result, the repeat check must catch a drive that does not
// reproduce its seed's outcome, and the report must name every metric
// with its unit and sample count.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cout << "FAIL: " << what << "\n";
    ++g_failures;
  }
}

/// `gate(good)` passes and `gate(corrupt(good))` fails for every corruption.
template <typename Facts, typename Gate>
void check_gate(const char* name, const Facts& good, Gate gate,
                const std::vector<std::pair<const char*, void (*)(Facts&)>>& corruptions) {
  const std::vector<std::string> clean = gate(good);
  expect(clean.empty(), std::string(name) + " gate rejects a valid result" +
                            (clean.empty() ? "" : ": " + clean.front()));
  for (const auto& [what, corrupt] : corruptions) {
    Facts bad = good;
    corrupt(bad);
    expect(!gate(bad).empty(), std::string(name) + " gate accepts a result with " + what);
  }
}

void test_gates() {
  KvFacts kv;
  kv.generated = 104222;
  kv.completed = 104222;
  kv.episode_done = true;
  kv.blackout_ms = 21.0;
  kv.max_blackout_ms = 36.6;
  check_gate<KvFacts>("kv", kv, gate_kv,
                      {{"a lost request", [](KvFacts& f) { f.completed -= 1; }},
                       {"no requests", [](KvFacts& f) { f.generated = f.completed = 0; }},
                       {"an unfinished episode", [](KvFacts& f) { f.episode_done = false; }},
                       {"a blackout over the engine's bound",
                        [](KvFacts& f) { f.blackout_ms = f.max_blackout_ms * 1.01; }},
                       {"no blackout", [](KvFacts& f) { f.blackout_ms = 0.0; }}});

  MeshFacts mesh;
  mesh.fleet = 1000;
  mesh.evacuated = 1000;
  mesh.downtime_p99_ms = 28.0;
  mesh.max_downtime_ms = 30.0;
  check_gate<MeshFacts>(
      "mesh", mesh, gate_mesh,
      {{"a VM left behind", [](MeshFacts& f) { f.evacuated -= 1; }},
       {"an empty fleet", [](MeshFacts& f) { f.fleet = f.evacuated = 0; }},
       {"p99 downtime over the bound",
        [](MeshFacts& f) { f.downtime_p99_ms = f.max_downtime_ms + 0.5; }},
       {"an unconverged exchange", [](MeshFacts& f) { f.unconverged_exchanges = 1; }}});

  NpbFacts npb;
  npb.kernel = "BT";
  npb.iterations = 250;
  npb.min_iterations_done = 250;
  npb.transport_after_fallback = "tcp";
  npb.transport_after_recovery = "openib";
  npb.episodes_done = true;
  check_gate<NpbFacts>(
      "npb", npb, gate_npb,
      {{"a rank one iteration short", [](NpbFacts& f) { f.min_iterations_done -= 1; }},
       {"an unfinished episode", [](NpbFacts& f) { f.episodes_done = false; }},
       {"openib after fallback", [](NpbFacts& f) { f.transport_after_fallback = "openib"; }},
       {"tcp after recovery", [](NpbFacts& f) { f.transport_after_recovery = "tcp"; }}});
}

Drive synthetic_drive(std::uint64_t digest) {
  Drive d;
  d.digest = digest;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.combine != Combine::kProcess) {
      d.set(spec.name, 1.5, 7);
    }
  }
  return d;
}

void test_repeats() {
  std::vector<Drive> drives = {synthetic_drive(1), synthetic_drive(2), synthetic_drive(1),
                               synthetic_drive(2)};
  check_repeats(drives, 2);
  expect(drives[2].failures.empty() && drives[3].failures.empty(),
         "repeat check rejects identical repeats");

  drives = {synthetic_drive(1), synthetic_drive(2), synthetic_drive(9)};
  check_repeats(drives, 2);
  expect(!drives[2].failures.empty(), "repeat check accepts a changed digest");

  drives = {synthetic_drive(1), synthetic_drive(1)};
  drives[1].values["sim_makespan_s"].value += 1e-9;
  check_repeats(drives, 1);
  expect(!drives[1].failures.empty(), "repeat check accepts a changed simulated value");
}

void test_report() {
  const std::vector<Drive> drives = {synthetic_drive(1), synthetic_drive(2), synthetic_drive(3)};
  const std::map<std::string, Value> process = {{"peak_rss_mb", {12.0, 1}},
                                                {"host.calib_mevents_per_s", {5.0, 3}},
                                                {"trace.overhead_pct", {0.1, 2}}};
  for (const bool trace : {false, true}) {
    std::ostringstream out;
    expect(write_report(out, combine(drives, drives, 2, process), 3, 0, trace),
           "report rejects a complete run");
    const std::string text = out.str();
    for (const MetricSpec& spec : metric_specs()) {
      const std::string line = std::string("metric ") + spec.name + " ";
      const auto at = text.find(line);
      expect(at != std::string::npos, std::string("report omits ") + spec.name);
      if (at == std::string::npos) {
        continue;
      }
      const std::string rest = text.substr(at, text.find('\n', at) - at);
      expect(rest.find(std::string(" ") + spec.unit + " n=") != std::string::npos &&
                 rest.find(" n=0") == std::string::npos,
             "report line lacks unit or sample count: " + rest);
      const bool in_json = (spec.layer == Layer::kPerLayer) == trace;
      const std::string key = std::string("\"") + spec.name + "\": {\"value\": ";
      const std::string last = text.substr(text.rfind('{', text.find("\"metrics\"")));
      expect((last.find(key) != std::string::npos) == in_json,
             std::string("result line ") + (in_json ? "omits " : "includes ") + spec.name);
    }
  }

  std::vector<Drive> missing = drives;
  for (Drive& d : missing) {
    d.values.erase("wall_s");
  }
  std::ostringstream out;
  std::cout << "(expected) ";
  expect(!write_report(out, combine(missing, drives, 2, process), 3, 0, false),
         "report accepts a run without wall_s");
  expect(out.str().find("\"correct\": false") != std::string::npos,
         "a run without wall_s is reported correct");
}

}  // namespace

int self_test() {
  test_gates();
  test_repeats();
  test_report();
  expect(sub_seed(1, 0) != sub_seed(1, 1) && sub_seed(1, 0) != sub_seed(2, 0),
         "sub-seeds collide");
  expect(percentile({3.0, 1.0, 2.0}, 0.99) == 3.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "percentile/median");
  std::cout << (g_failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
