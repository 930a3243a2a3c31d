// Micro-benchmarks (google-benchmark) of the simulator substrate itself:
// event-loop throughput, fluid rebalancing cost, interval-map updates, and
// a full small Ninja episode. These guard the simulator's own performance,
// so the Fig 7/8 reproductions stay fast enough to iterate on.
//
// Besides the normal console output, a machine-readable summary (benchmark
// name -> items/sec) is written to BENCH_sim_micro.json in the working
// directory so the perf trajectory can be tracked across PRs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/testbed.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/interval_map.h"
#include "workloads/bcast_reduce.h"

// GCC pairs the std::free in the replaced operator delete below against
// whatever allocation it inlined at each call site and warns; the pair is
// matched in fact (the replaced operator new routes through std::malloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// Replaceable global allocation functions with an opt-in counter, so
// BM_PostHotPath can report allocations per posted event (must be zero:
// the queue entry holds the callback inline and the heap storage is
// warmed before counting starts).
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace nm;

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.post(Duration::nanos(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventLoopThroughput);

// Steady-state timer path: post carrying a 24-byte capture (a pointer plus
// two words — the size class std::function would have heap-allocated) into
// a pre-warmed queue, drain, repeat. Reports allocs_per_event, which the
// InlineCallback queue must keep at exactly zero.
void BM_PostHotPath(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Simulation sim;
  // Warm the queue's heap storage past the batch size so steady-state
  // posts never grow the vector.
  for (int i = 0; i < 4 * kBatch; ++i) {
    sim.post(Duration::nanos(i), [] {});
  }
  sim.run();

  std::int64_t events = 0;
  std::uint64_t sink = 0;
  std::uint64_t* sink_p = &sink;
  g_alloc_count.store(0, std::memory_order_relaxed);
  for (auto _ : state) {
    // Count only the post+drain region, not the benchmark library's own
    // iteration bookkeeping.
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < kBatch; ++i) {
      sim.post(Duration::nanos(i + 1),
               [sink_p, a = static_cast<std::uint64_t>(i), b = events] { *sink_p += a + b; });
    }
    sim.run();
    g_count_allocs.store(false, std::memory_order_relaxed);
    events += kBatch;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(g_alloc_count.load(std::memory_order_relaxed)) /
                         static_cast<double>(events));
}
BENCHMARK(BM_PostHotPath);

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn([](sim::Simulation& s) -> sim::Task {
      for (int i = 0; i < 5'000; ++i) {
        co_await s.delay(Duration::micros(1));
      }
    }(sim));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 5'000);
}
BENCHMARK(BM_CoroutineDelayChain);

void BM_FluidRebalance(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::FluidNet net(sim);
    sim::FluidScheduler& sched = net.add_domain("d");
    sim::FluidResource nic(sched, "nic", 1e9);
    std::vector<sim::FlowPtr> live;
    live.reserve(static_cast<std::size_t>(flows));
    for (int i = 0; i < flows; ++i) {
      live.push_back(net.start(sim::FlowSpec{.work = 1e6 * (i + 1)}.over(nic)));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidRebalance)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

// Asymptotics guard for the component-partitioned scheduler: H hosts each
// carry a steady background of flows on their own NIC, and one host churns
// small flows. With per-component solves the churn cost must not depend on
// how many other (clean) components exist, so items/sec should stay flat
// across H.
void BM_FluidRebalanceMultiHost(benchmark::State& state) {
  const auto hosts = static_cast<int>(state.range(0));
  constexpr int kFlowsPerHost = 32;
  constexpr int kChurn = 64;
  struct Env {
    sim::Simulation sim;
    sim::FluidNet net{sim};
    sim::FluidScheduler& sched = net.add_domain("d");
    std::vector<std::unique_ptr<sim::FluidResource>> nics;
    std::vector<sim::FlowPtr> background;
    explicit Env(int host_count) {
      for (int h = 0; h < host_count; ++h) {
        nics.push_back(std::make_unique<sim::FluidResource>(
            sched, "nic" + std::to_string(h), 1e9));
        for (int f = 0; f < kFlowsPerHost; ++f) {
          // Long-lived: never completes within the churn window.
          background.push_back(
              net.start(sim::FlowSpec{.work = 1e16}.over(*nics[h])));
        }
      }
      sim.run_for(Duration::seconds(1));  // settle the background
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto env = std::make_unique<Env>(hosts);
    state.ResumeTiming();
    for (int c = 0; c < kChurn; ++c) {
      auto flow = env->net.start(sim::FlowSpec{.work = 1e6}.over(*env->nics[0]));
      env->sim.run_for(Duration::seconds(1));
      benchmark::DoNotOptimize(flow->finished());
    }
    state.PauseTiming();
    env.reset();  // teardown cost scales with H; keep it out of the timing
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kChurn);
}
BENCHMARK(BM_FluidRebalanceMultiHost)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Deep-chain guard: a chain of D resources with a tight head, slack
// middle resources soaked by local load, and one flow spanning the whole
// chain — one component of D flows over D resources. Every head-capacity
// toggle re-solves that component once, so the per-toggle settle cost
// grows linearly with D.
void BM_DeepChainSolve(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kToggles = 64;
  struct Env {
    sim::Simulation sim;
    sim::FluidNet net{sim, 0};
    std::vector<std::unique_ptr<sim::FluidResource>> res;
    std::vector<sim::FlowPtr> flows;
    explicit Env(int d) {
      auto& dom = net.add_domain("chain");
      for (int i = 0; i < d; ++i) {
        // Lvalue suffix: the `const char* + string&&` overload trips a
        // GCC 12 -Wrestrict false positive under heavy inlining.
        const std::string tag = std::to_string(i);
        res.push_back(std::make_unique<sim::FluidResource>(dom, "r" + tag, i == 0 ? 1e9 : 1e12));
      }
      sim::FlowSpec spec{.work = 1e15};
      for (auto& r : res) {
        spec.over(*r);
      }
      flows.push_back(net.start(std::move(spec)));
      for (int i = 1; i < d; ++i) {  // local load on the slack resources
        flows.push_back(net.start(sim::FlowSpec{.work = 1e15}.over(*res[i])));
      }
      sim.run_for(Duration::millis(1));  // settle the initial admission
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto env = std::make_unique<Env>(depth);
    state.ResumeTiming();
    for (int t = 0; t < kToggles; ++t) {
      env->res[0]->set_capacity(t % 2 == 0 ? 1.1e9 : 1e9);
      env->sim.run_for(Duration::millis(1));
    }
    state.PauseTiming();
    env.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kToggles);
}
BENCHMARK(BM_DeepChainSolve)->Arg(4)->Arg(16)->Arg(64);

// Timer-wheel guard, far-horizon side: 32k timers parked an hour-plus out
// (level 2 and the overflow list) while the near-term path churns. The
// parked population must cost the hot path nothing — near posts see one
// wheel_min comparison per sync — and the loop must stay allocation-free,
// extending the allocs_per_event=0 gate over the wheel code path.
void BM_TimerWheelFarHorizon(benchmark::State& state) {
  constexpr int kFar = 32 * 1024;
  constexpr int kBatch = 1024;
  sim::Simulation sim;
  sim.post(Duration::nanos(1), [] {});  // anchor: far posts park behind it
  for (int i = 0; i < kFar; ++i) {
    sim.post(Duration::minutes(60.0 + i % 300), [] {});
  }
  for (int i = 0; i < 4 * kBatch; ++i) {  // warm the near-path storage
    sim.post(Duration::nanos(i + 2), [] {});
  }
  sim.run_for(Duration::millis(1));  // drain anchor + warm batch; far stays parked

  std::int64_t events = 0;
  std::uint64_t sink = 0;
  std::uint64_t* sink_p = &sink;
  g_alloc_count.store(0, std::memory_order_relaxed);
  for (auto _ : state) {
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < kBatch; ++i) {
      sim.post(Duration::nanos(i + 1),
               [sink_p, a = static_cast<std::uint64_t>(i), b = events] { *sink_p += a + b; });
    }
    sim.run_for(Duration::micros(2));
    g_count_allocs.store(false, std::memory_order_relaxed);
    events += kBatch;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(g_alloc_count.load(std::memory_order_relaxed)) /
                         static_cast<double>(events));
}
BENCHMARK(BM_TimerWheelFarHorizon);

// Timer-wheel guard, cascade side: timers spread from 3ms to an hour all
// park, refile down the levels as their buckets come due, and promote back
// into the heap — the full flush machinery per timer.
void BM_TimerWheelCascade(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim.post(Duration::nanos(1), [] {});
    for (int i = 0; i < timers; ++i) {
      sim.post(Duration::millis(3 + (i * 977) % 3'600'000), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * timers);
}
BENCHMARK(BM_TimerWheelCascade)->Arg(32768);

void BM_IntervalMapDirtyTracking(benchmark::State& state) {
  for (auto _ : state) {
    IntervalMap<int> map(5'242'880, 0);  // 20 GiB of 4 KiB pages
    for (std::uint64_t i = 0; i < 1'000; ++i) {
      const auto lo = (i * 37) % 5'000'000;
      map.assign(lo, lo + 4'096, static_cast<int>(i % 3));
    }
    benchmark::DoNotOptimize(map.run_count());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_IntervalMapDirtyTracking);

void BM_FullNinjaEpisode(benchmark::State& state) {
  for (auto _ : state) {
    core::Testbed tb;
    core::JobConfig cfg;
    cfg.vm_count = 2;
    cfg.ranks_per_vm = 1;
    cfg.vm_template.memory = Bytes::gib(4);
    cfg.vm_template.base_os_footprint = Bytes::mib(512);
    core::MpiJob job(tb, cfg);
    job.init();
    workloads::BcastReduceConfig wcfg;
    wcfg.per_node_bytes = Bytes::mib(256);
    wcfg.iterations = 10;
    auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
    job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
    tb.sim().spawn([](core::MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b)
                       -> sim::Task {
      co_await b->wait_step(2);
      co_await j.fallback_migration(2);
    }(job, bench));
    tb.sim().run();
    benchmark::DoNotOptimize(bench->iteration_seconds().size());
  }
}
BENCHMARK(BM_FullNinjaEpisode)->Unit(benchmark::kMillisecond);

// Console output plus a {"name": items_per_sec} summary in
// BENCH_sim_micro.json for cross-PR perf tracking.
class JsonSummaryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        results_.emplace_back(run.benchmark_name(), static_cast<double>(it->second));
      }
    }
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    std::ofstream out("BENCH_sim_micro.json");
    out << "{\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      out << "  \"" << results_[i].first << "\": " << results_[i].second
          << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    out << "}\n";
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  JsonSummaryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
