// Scalability study (paper §V: "Our evaluation lacks scalability tests,
// but the proposed mechanism is essentially scalable. ... The migration
// time may significantly increase as the number of hosts increases due to
// network congestion").
//
// Sweeps:
//   1. episode total vs number of VMs (fallback IB -> Eth, 1:1 hosts) —
//      migrations run concurrently over disjoint host pairs, so the wall
//      time should be ~flat (the mechanism scales);
//   2. episode total vs ranks per VM — coordination is the only part that
//      can grow, and it is noise;
//   3. consolidation ratio (destination hosts < VMs) — incast onto fewer
//      receivers is where congestion actually shows up;
//   4. wide-area sweep: Ethernet fabric latency 30 us -> 50 ms (the §II
//      disaster-recovery / intercloud use case);
//   5. sharded federated pods: P isolated pods, each on its own fluid
//      domain, constructed in parallel (one thread per pod) — the merged
//      timeline must stay bit-identical to the single-scheduler serial build;
//   6. parallel dirty-domain solving: the SolvePool computes dirty pods on
//      worker threads, commits in canonical order — timeline bit-identical
//      to the serial drain;
//   7. cross-domain boundary flows: inter-pod transfers traverse a shared
//      spine switch in a separate core domain, so every transfer is a
//      boundary flow spanning three fluid domains; the ghost-capacity
//      exchange must converge to the same timeline at every worker count
//      (`--sweep7` emits the machine-readable digest used by CI);
//   8. federated evacuation: two testbeds coupled by a calibrated 50 ms /
//      1 Gbps / 0.1 % WanLink, four VMs live-migrated cross-site onto two
//      hosts — the full §II disaster-recovery path with the WAN CapPolicy
//      folding into every boundary offer; timeline must stay bit-identical
//      at every worker count (`--sweep8` emits the CI digest).
//   9. planned mass evacuation over a 5-site mesh: MassEvacuation drains
//      every VM off the source site through the EvacuationPlanner's wave
//      schedule (one refuge two hops out, so multi-hop WAN routes carry
//      real traffic). Three gates: the evacuation timeline is bit-identical
//      at every worker count, the batched plan's makespan beats the
//      naive-sequential baseline, and every exchange converges (`--sweep9`
//      emits the CI digest).
//  10. SLO-visible migration under open-loop service load: a small KvService
//      (2 servers, 2 client fleets of Poisson/zipfian traffic) keeps serving
//      while one loaded server migrates. Four gates: the service+migration
//      timeline (request digest + final instant) is bit-identical at every
//      worker count, offered load is conserved (every generated request
//      completes), the overall p999 stays under a fixed ceiling, and every
//      exchange converges (`--sweep10` emits the CI digest).
//  11. oversubscribed Clos evacuation: the source site drains 24 VMs racked
//      under three 4:1-oversubscribed leaves into two 2-leaf refuges, with
//      the leaf-aware planner vs the topology-blind baseline. Four gates:
//      the aware timeline is bit-identical at every worker count, the
//      aware makespan is never worse than the blind one, every VM lands,
//      and every exchange converges (`--sweep11` emits the CI digest).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/service_episode.h"
#include "core/testbed.h"
#include "hw/cluster.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/solve_pool.h"
#include "util/table.h"
#include "workloads/kv_service.h"
#include "workloads/bcast_reduce.h"

namespace {

using namespace nm;

struct RunConfig {
  int vms = 4;
  std::size_t ranks_per_vm = 1;
  int dst_hosts = 4;
  Duration eth_latency = Duration::micros(30);
  bool rdma = false;
};

core::NinjaStats run_fallback(const RunConfig& rc) {
  core::TestbedConfig tcfg;
  tcfg.eth.latency = rc.eth_latency;
  tcfg.migration.use_rdma = rc.rdma;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = rc.vms;
  cfg.ranks_per_vm = rc.ranks_per_vm;
  cfg.vm_template.memory = Bytes::gib(8);
  cfg.vm_template.base_os_footprint = Bytes::gib(1);
  core::MpiJob job(tb, cfg);
  job.init();

  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::mib(512);
  wcfg.iterations = 200;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });

  core::NinjaStats stats;
  tb.sim().spawn([](core::MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b,
                    int hosts, core::NinjaStats& st) -> sim::Task {
    co_await b->wait_step(2);
    co_await j.fallback_migration(hosts, &st);
  }(job, bench, rc.dst_hosts, stats));
  tb.sim().run_until(TimePoint::origin() + Duration::minutes(60));
  return stats;
}

// --- Sweep 5: sharded pods with parallel construction -----------------------

constexpr int kNodesPerPod = 8192;
// The flow program runs over a slice of each pod: the sweep measures
// construction scaling, the flows only pin the merged-timeline digest.
constexpr int kFlowNodes = 64;

struct Pod {
  std::unique_ptr<hw::Cluster> cluster;
  std::vector<std::unique_ptr<net::NicPort>> ports;
};

// Builds one isolated pod (nodes + NIC ports) entirely inside `domain`.
// Pure resource registration: no simulation posts, so pods on distinct
// domains can be built from distinct threads.
Pod build_pod(sim::FluidScheduler& domain, int p, int node_count = kNodesPerPod) {
  Pod pod;
  pod.cluster = std::make_unique<hw::Cluster>("pod" + std::to_string(p));
  pod.ports.reserve(static_cast<std::size_t>(node_count));
  for (int n = 0; n < node_count; ++n) {
    hw::NodeSpec spec;
    spec.name = "pod" + std::to_string(p) + ":n" + std::to_string(n);
    auto& node = pod.cluster->add_node(domain, spec);
    pod.ports.push_back(std::make_unique<net::NicPort>(node, spec.name + ":eth",
                                                       Bandwidth::gib_per_sec(10.0)));
  }
  return pod;
}

// Starts the pods' flow program serially (flow admission posts settle
// events on the shared clock) and drains the merged timeline. The returned
// final time is the cross-pod digest: it covers every pod's completion.
std::int64_t run_pod_flows(sim::Simulation& sim, std::vector<Pod>& pods,
                           const std::vector<sim::FluidScheduler*>& pod_domain,
                           int flow_nodes = kFlowNodes) {
  for (std::size_t p = 0; p < pods.size(); ++p) {
    auto& net = pod_domain[p]->net();
    for (int n = 0; n < flow_nodes; ++n) {
      auto& node = pods[p].cluster->node(static_cast<std::size_t>(n));
      // A compute flow plus a ring transfer to the next node's NIC: the
      // slice forms one connected zone, so it must stay on one domain.
      net.start(sim::FlowSpec{.work = (n + 1) * 0.05, .max_rate = 1.0}.over(node.cpu()));
      net.start(sim::FlowSpec{.work = 1e8 * (n + 1)}
                    .over(pods[p].ports[static_cast<std::size_t>(n)]->tx())
                    .over(pods[p]
                              .ports[static_cast<std::size_t>((n + 1) % flow_nodes)]
                              ->rx()));
    }
  }
  return sim.run().count_nanos();
}

struct ShardResult {
  double construct_ms = 0.0;
  std::int64_t final_ns = 0;
};

ShardResult run_sharded(int pods, bool parallel) {
  sim::Simulation sim;
  sim::FluidNet net(sim);
  std::vector<sim::FluidScheduler*> pod_domain;
  if (parallel) {
    for (int p = 0; p < pods; ++p) {
      pod_domain.push_back(&net.add_domain("pod" + std::to_string(p)));
    }
  } else {
    pod_domain.assign(static_cast<std::size_t>(pods), &net.add_domain("all-pods"));
  }

  std::vector<Pod> built(static_cast<std::size_t>(pods));
  const auto start = std::chrono::steady_clock::now();
  if (parallel) {
    // One worker per hardware thread (not per pod): on a single-core host
    // this degrades gracefully to ~serial cost instead of paying thread
    // thrash for nothing.
    const int workers_n =
        std::min(pods, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(workers_n));
    for (int w = 0; w < workers_n; ++w) {
      workers.emplace_back([&built, &pod_domain, pods, workers_n, w] {
        for (int p = w; p < pods; p += workers_n) {
          built[static_cast<std::size_t>(p)] =
              build_pod(*pod_domain[static_cast<std::size_t>(p)], p);
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
  } else {
    for (int p = 0; p < pods; ++p) {
      built[static_cast<std::size_t>(p)] = build_pod(*pod_domain[static_cast<std::size_t>(p)], p);
    }
  }
  const auto built_at = std::chrono::steady_clock::now();

  ShardResult res;
  res.construct_ms =
      std::chrono::duration<double, std::milli>(built_at - start).count();
  res.final_ns = run_pod_flows(sim, built, pod_domain);
  return res;
}

// --- Sweep 6: parallel dirty-domain solving (SolvePool) ---------------------

// Each pod is a ring of NIC flows plus per-node compute flows — one fat
// ~N-flow component and N singletons per pod. Every pod runs the same
// program, so each completion instant dirties all P domains at once: the
// SolvePool's settle batches genuinely span domains, and the expensive
// progressive-filling re-solve of each pod's ring runs on a different
// worker. Workers=0 is the serial baseline: the same compute/commit code,
// run on the simulation thread.
constexpr int kSolvePodNodes = 128;

struct SolveSweepResult {
  double wall_ms = 0.0;
  std::int64_t final_ns = 0;
  std::size_t parallel_settles = 0;
  std::size_t max_batch = 0;
};

SolveSweepResult run_parallel_solve(int pods, int workers) {
  sim::Simulation sim;
  sim::FluidNet net(sim, workers);
  std::vector<sim::FluidScheduler*> pod_domain;
  for (int p = 0; p < pods; ++p) {
    pod_domain.push_back(&net.add_domain("pod" + std::to_string(p)));
  }
  std::vector<Pod> built;
  built.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    built.push_back(build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kSolvePodNodes));
  }

  SolveSweepResult res;
  const auto start = std::chrono::steady_clock::now();
  res.final_ns = run_pod_flows(sim, built, pod_domain, kSolvePodNodes);
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  res.parallel_settles = net.pool()->parallel_settle_count();
  res.max_batch = net.pool()->max_batch_size();
  return res;
}

// --- Sweeps 7-11: the shared determinism harness ----------------------------

/// JSON digest entries in emission order: (key, printed value).
using JsonKeys = std::vector<std::pair<std::string, std::string>>;

/// What one run of a determinism sweep hands the harness.
struct SweepRun {
  /// Table cells between the "workers" and "timeline" columns.
  std::vector<std::string> cells;
  /// Simulated-time results (never wall-clock) pinned per run in the JSON
  /// digest as "workers<W>_<key>"; each must equal the 0-worker run's.
  JsonKeys pinned;
  /// Further results that must equal the 0-worker run's but are not pinned
  /// per run.
  std::vector<std::uint64_t> same_as_serial;
  /// The run's own gates: every exchange converged, every VM landed, ...
  bool ok = true;
};

/// One of sweeps 7-11: every row group runs at 0/1/2/4 solve workers and
/// each run is compared with the group's 0-worker run.
struct DeterminismSweep {
  /// N in `--sweepN` and BENCH_scalability_sweepN.json.
  int number = 0;
  std::string heading;
  /// Leading column naming the row groups (sweep 7's pod counts): each
  /// group prefixes its JSON keys with "<group_column><group>_". Empty for
  /// a single group and no column.
  std::string group_column;
  std::vector<int> groups = {0};
  /// Columns between "workers" and "timeline".
  std::vector<std::string> columns;
  std::function<SweepRun(int group, int workers)> run;
  /// Runs after the table: the sweep's extra gates. Appends its keys to the
  /// JSON digest, prints the note under the table when `print`, and returns
  /// false when a gate fails.
  std::function<bool(bool print, JsonKeys& json)> finish;
};

/// Runs `sweep`, renders its table unless `json_only`, and writes the
/// deterministic digest CI key-checks against the committed baseline.
/// Returns 1 on a diverged timeline, a failed gate, or a digest that could
/// not be written; 0 otherwise.
int determinism_sweep(const DeterminismSweep& sweep, bool json_only) {
  std::cout << sweep.heading;
  const bool grouped = !sweep.group_column.empty();
  std::vector<std::string> header;
  if (grouped) {
    header.push_back(sweep.group_column);
  }
  header.emplace_back("workers");
  header.insert(header.end(), sweep.columns.begin(), sweep.columns.end());
  header.emplace_back("timeline");
  TextTable table(std::move(header));
  JsonKeys json;
  bool failed = false;
  for (const int group : sweep.groups) {
    const std::string prefix = grouped ? sweep.group_column + std::to_string(group) + "_" : "";
    SweepRun serial;
    for (const int workers : {0, 1, 2, 4}) {
      auto r = sweep.run(group, workers);
      if (workers == 0) {
        serial = r;
      }
      const bool identical =
          r.pinned == serial.pinned && r.same_as_serial == serial.same_as_serial;
      failed = failed || !identical || !r.ok;
      std::vector<std::string> row;
      if (grouped) {
        row.push_back(std::to_string(group));
      }
      row.push_back(workers == 0 ? "0 (serial)" : std::to_string(workers));
      row.insert(row.end(), r.cells.begin(), r.cells.end());
      row.emplace_back(!identical ? "DIVERGED" : workers == 0 ? "baseline" : "bit-identical");
      table.add_row(std::move(row));
      for (const auto& [key, value] : r.pinned) {
        json.emplace_back(prefix + "workers" + std::to_string(workers) + "_" + key, value);
      }
    }
  }
  if (!json_only) {
    table.render(std::cout);
  }
  failed = !sweep.finish(!json_only, json) || failed;

  const std::string path = "BENCH_scalability_sweep" + std::to_string(sweep.number) + ".json";
  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < json.size(); ++i) {
    out << "  \"" << json[i].first << "\": " << json[i].second
        << (i + 1 < json.size() ? "," : "") << "\n";
  }
  out << "}\n";
  out.close();
  if (out.fail()) {
    std::cerr << "bench_scalability: cannot write " << path << "\n";
    return 1;
  }
  return failed ? 1 : 0;
}

// --- Sweep 7: cross-domain boundary flows through a shared spine ------------

// P pods, each its own FluidNet domain, plus a "core" domain holding one
// shared spine-switch resource. Every inter-pod transfer crosses three
// domains (source tx -> spine -> destination rx), so it is admitted as a
// boundary flow and settled through the ghost-capacity exchange. The local
// compute flows keep each pod's domain genuinely busy at the same instants,
// making the exchange batches span domains. The invariant is the same as
// sweeps 5/6: the merged timeline is bit-identical at every worker count.
constexpr int kCrossPodNodes = 32;

struct CrossDomainResult {
  double wall_ms = 0.0;
  std::int64_t final_ns = 0;
  std::size_t peak_boundary = 0;    // boundary flows registered after admission
  std::size_t exchange_rounds = 0;  // total exchange iterations across settles
  std::size_t unconverged = 0;      // settles that hit the round cap (must be 0)
};

CrossDomainResult run_cross_domain(int pods, int workers) {
  sim::Simulation sim;
  sim::FluidNet net(sim, workers);
  auto& core = net.add_domain("core");
  sim::FluidResource spine(core, "spine", 40e9);
  std::vector<sim::FluidScheduler*> pod_domain;
  pod_domain.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    pod_domain.push_back(&net.add_domain("pod" + std::to_string(p)));
  }
  std::vector<Pod> built;
  built.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    built.push_back(build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kCrossPodNodes));
  }

  for (int p = 0; p < pods; ++p) {
    auto& pod = built[static_cast<std::size_t>(p)];
    auto& next = built[static_cast<std::size_t>((p + 1) % pods)];
    for (int n = 0; n < kCrossPodNodes; ++n) {
      auto& node = pod.cluster->node(static_cast<std::size_t>(n));
      // Pod-local compute: stays inside the pod's own domain.
      net.start(sim::FlowSpec{.work = (n + 1) * 0.05, .max_rate = 1.0}.over(node.cpu()));
      if (n % 4 == 0) {
        // Inter-pod transfer to the neighbour pod through the spine: a
        // boundary flow spanning pod p, core, and pod p+1.
        net.start(sim::FlowSpec{.work = 1e8 * (n + 1)}
                      .over(pod.ports[static_cast<std::size_t>(n)]->tx())
                      .over(spine)
                      .over(next.ports[static_cast<std::size_t>(n)]->rx()));
      }
    }
  }

  CrossDomainResult res;
  res.peak_boundary = net.boundary_flow_count();
  const auto start = std::chrono::steady_clock::now();
  res.final_ns = sim.run().count_nanos();
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  res.exchange_rounds = net.exchange_round_count();
  res.unconverged = net.unconverged_exchange_count();
  return res;
}

int run_sweep7(bool json_only) {
  return determinism_sweep(
      {.number = 7,
       .heading = "\n7. Cross-domain boundary flows (" + std::to_string(kCrossPodNodes) +
                  "-node pods, shared spine in a core domain, inter-pod transfers\n"
                  "   span 3 domains via the ghost-capacity exchange):\n",
       .group_column = "pods",
       .groups = {2, 4},
       .columns = {"drain [ms]", "boundary flows", "exch rounds"},
       .run =
           [](int pods, int workers) {
             const auto r = run_cross_domain(pods, workers);
             return SweepRun{.cells = {TextTable::num(r.wall_ms, 2),
                                       std::to_string(r.peak_boundary),
                                       std::to_string(r.exchange_rounds)},
                             .pinned = {{"final_ns", std::to_string(r.final_ns)}},
                             .ok = r.unconverged == 0};
           },
       .finish =
           [](bool print, JsonKeys&) {
             if (print) {
               std::cout << "Each transfer's home flow lives in its source pod; ghost flows\n"
                            "mirror it onto the spine and the destination pod, and the settle\n"
                            "loop iterates publish/re-solve until the boundary rates reach a\n"
                            "fixed point. Commits still replay in canonical (domain, component)\n"
                            "order, so the timeline is bit-identical at every worker count.\n";
             }
             return true;
           }},
      json_only);
}

// --- Sweep 8: federated evacuation over a calibrated WAN --------------------

struct FederatedResult {
  std::int64_t final_ns = 0;
  std::int64_t evac_done_ns = 0;
  std::size_t exchange_rounds = 0;
  std::size_t unconverged = 0;
  double wall_ms = 0.0;
};

sim::Task evacuate_vm(vmm::Vm& vm, vmm::Host& dst) {
  co_await vm.host().migrate(vm, dst);
}

FederatedResult run_federated_evacuation(int workers) {
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 4;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 2;
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(1);  // the paper's continental target
  wan.rtt = Duration::millis(50);
  wan.loss = 0.001;
  core::FederationConfig fcfg;
  fcfg.sites = {{"a", source}, {"b", refuge}};
  fcfg.edges = {{0, 1, wan}};
  fcfg.solve_workers = workers;
  core::Federation fed(fcfg);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 4; ++i) {
    vmm::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.memory = Bytes::gib(2);
    spec.base_os_footprint = Bytes::mib(256);
    auto vm = fed.site(0).boot_vm(fed.site(0).eth_host(i), spec, /*with_hca=*/false);
    vm->memory().write_data(Bytes::zero(), Bytes::mib(512));
    vms.push_back(std::move(vm));
  }
  fed.settle();

  FederatedResult res;
  const auto start = std::chrono::steady_clock::now();
  std::vector<sim::TaskRef> refs;
  for (int i = 0; i < 4; ++i) {
    // Consolidate 4 VMs onto the safe site's 2 hosts, all concurrently
    // sharing the Mathis-limited link.
    vmm::Host* dst = fed.find_host(i % 2 == 0 ? "b:eth0" : "b:eth1");
    refs.push_back(fed.sim().spawn(evacuate_vm(*vms[static_cast<std::size_t>(i)], *dst),
                                   "evac" + std::to_string(i)));
  }
  fed.sim().spawn([](core::Federation& f, std::vector<sim::TaskRef> r,
                     FederatedResult& out) -> sim::Task {
    co_await sim::join_all(std::move(r));
    out.evac_done_ns = f.sim().now().count_nanos();
  }(fed, std::move(refs), res));
  res.final_ns = fed.sim().run().count_nanos();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  res.exchange_rounds = fed.exchange_round_count();
  res.unconverged = fed.unconverged_exchange_count();
  return res;
}

int run_sweep8(bool json_only) {
  return determinism_sweep(
      {.number = 8,
       .heading = "\n8. Federated evacuation (two sites, 50 ms / 1 Gbps / 0.1 % WAN,\n"
                  "   4 VMs live-migrated cross-site onto 2 hosts):\n",
       .columns = {"wall [ms]", "evac done [s]", "exch rounds"},
       .run =
           [](int, int workers) {
             const auto r = run_federated_evacuation(workers);
             return SweepRun{
                 .cells = {TextTable::num(r.wall_ms, 2),
                           TextTable::num(static_cast<double>(r.evac_done_ns) / 1e9, 3),
                           std::to_string(r.exchange_rounds)},
                 .pinned = {{"evac_done_ns", std::to_string(r.evac_done_ns)},
                            {"final_ns", std::to_string(r.final_ns)}},
                 .ok = r.unconverged == 0};
           },
       .finish =
           [](bool print, JsonKeys&) {
             if (print) {
               std::cout << "Each pre-copy stream is a boundary flow through both sites' uplinks\n"
                            "and the WanLink endpoint pair; the link's CapPolicy folds the Mathis\n"
                            "ceiling into every published ghost cap, and the evacuation lands at\n"
                            "the same nanosecond at every worker count.\n";
             }
             return true;
           }},
      json_only);
}

// --- Sweeps 9 and 11: planned mass evacuations ------------------------------

struct EvacResult {
  std::int64_t final_ns = 0;
  std::int64_t evac_done_ns = 0;
  std::int64_t makespan_ns = 0;
  int waves = 0;
  std::size_t evacuated = 0;
  std::size_t fleet = 0;
  std::size_t unconverged = 0;
  double wall_ms = 0.0;

  /// Every VM landed and every exchange converged.
  [[nodiscard]] bool clean() const { return evacuated == fleet && unconverged == 0; }
};

// Boots `per_host` 1 GiB VMs on every host of site 0, each with `dirty`
// bytes written past its OS footprint, then drains the site with
// MassEvacuation under `ecfg`.
EvacResult evacuate_site0(core::Federation& fed, int per_host, Bytes dirty,
                          core::EvacuationConfig ecfg) {
  EvacResult res;
  auto& src = fed.site(0);
  for (int h = 0; h < src.eth_host_count(); ++h) {
    for (int v = 0; v < per_host; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm" + std::to_string(h) + "_" + std::to_string(v);
      spec.memory = Bytes::gib(1);
      spec.base_os_footprint = Bytes::mib(128);
      auto vm = src.boot_vm(src.eth_host(h), spec, /*with_hca=*/false);
      vm->memory().write_data(Bytes::mib(128), dirty);
      ++res.fleet;
    }
  }
  fed.settle();

  ecfg.source_site = 0;
  core::MassEvacuation evac(fed, std::move(ecfg));
  core::EvacuationReport report;
  const auto start = std::chrono::steady_clock::now();
  fed.sim().spawn(evac.run(&report), "mass-evac");
  res.final_ns = fed.sim().run().count_nanos();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  res.evac_done_ns = report.done_ns;
  res.makespan_ns = report.done_ns - report.started_ns;
  res.waves = report.waves;
  res.evacuated = report.evacuated;
  res.unconverged = fed.unconverged_exchange_count();
  return res;
}

SweepRun evac_sweep_run(const EvacResult& r) {
  return SweepRun{.cells = {TextTable::num(r.wall_ms, 2),
                            TextTable::num(static_cast<double>(r.makespan_ns) / 1e9, 3),
                            std::to_string(r.waves),
                            std::to_string(r.evacuated) + "/" + std::to_string(r.fleet)},
                  .pinned = {{"evac_done_ns", std::to_string(r.evac_done_ns)},
                             {"final_ns", std::to_string(r.final_ns)}},
                  .same_as_serial = {static_cast<std::uint64_t>(r.waves)},
                  .ok = r.clean()};
}

// --- Sweep 9: planned mass evacuation over a 5-site mesh --------------------

EvacResult run_mesh_evacuation(int workers, bool sequential) {
  // Same shape as examples/mass_evacuation.cpp, sized for CI: dc0 is the
  // failing site, dc1..dc3 are direct neighbours, dc4 is two hops out so
  // the planner's multi-hop routes carry real traffic.
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 8;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 4;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge},
                {"dc3", refuge}, {"dc4", refuge}};
  sim::WanLinkConfig metro;  // EXPERIMENTS.md metro calibration
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro},
                {1, 4, metro}, {2, 4, metro}};
  fcfg.solve_workers = workers;
  core::Federation fed(fcfg);

  core::EvacuationConfig ecfg;
  ecfg.sequential = sequential;
  return evacuate_site0(fed, /*per_host=*/4, Bytes::mib(128), std::move(ecfg));
}

int run_sweep9(bool json_only) {
  EvacResult planned;  // the 0-worker run the sequential baseline must lose to
  return determinism_sweep(
      {.number = 9,
       .heading = "\n9. Planned mass evacuation (5-site mesh, 1 Gbps / 5 ms metro edges,\n"
                  "   32 VMs drained off the source site by the wave planner):\n",
       .columns = {"wall [ms]", "makespan [s]", "waves", "evacuated"},
       .run =
           [&planned](int, int workers) {
             const auto r = run_mesh_evacuation(workers, /*sequential=*/false);
             if (workers == 0) {
               planned = r;
             }
             return evac_sweep_run(r);
           },
       .finish =
           [&planned](bool print, JsonKeys& json) {
             const auto naive = run_mesh_evacuation(/*workers=*/0, /*sequential=*/true);
             const bool planner_beats_sequential = planned.makespan_ns < naive.makespan_ns;
             if (print) {
               std::cout << "Naive-sequential baseline: "
                         << TextTable::num(static_cast<double>(naive.makespan_ns) / 1e9, 3)
                         << " s; the batched plan "
                         << (planner_beats_sequential ? "wins" : "LOSES — GATE FAILED") << " ("
                         << TextTable::num(static_cast<double>(naive.makespan_ns) /
                                               static_cast<double>(planned.makespan_ns),
                                           2)
                         << "x). Every wave grant reads the live mesh and re-runs the max-min\n"
                            "rate assignment, yet all inputs are deterministic functions of\n"
                            "simulated state, so the whole evacuation lands at the same\n"
                            "nanosecond at every worker count.\n";
             }
             json.emplace_back("planner_makespan_ns", std::to_string(planned.makespan_ns));
             json.emplace_back("sequential_makespan_ns", std::to_string(naive.makespan_ns));
             return planner_beats_sequential && naive.clean();
           }},
      json_only);
}

// --- Sweep 10: SLO-visible migration under open-loop service load -----------

struct ServiceSloResult {
  std::int64_t final_ns = 0;
  std::uint64_t digest = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  std::int64_t p999_ns = 0;
  std::int64_t blackout_ns = 0;
  std::size_t unconverged = 0;
  double wall_ms = 0.0;
};

ServiceSloResult run_service_slo(int workers) {
  // CI-sized cousin of examples/live_service: 2 KV servers under 2 fleets
  // of open-loop traffic, the loaded kv0 migrated onto a spare blade while
  // its clients keep hammering it.
  core::TestbedConfig config;
  config.solve_workers = workers;
  core::Testbed testbed(config);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.zipf_s = 0.7;
  svc.service_core_seconds = 1.0e-3;
  svc.worker_threads = 4;
  svc.deadline = Duration::millis(15);
  svc.write_fraction = 0.25;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 2; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(192);
    spec.base_os_footprint = Bytes::mib(64);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 2; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = 600.0;
    fleet.window = Duration::seconds(3);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();
  (void)episode.start(
      core::EpisodeSpec(vms[0], testbed.eth_host(2)).after(Duration::millis(500)));

  const auto start = std::chrono::steady_clock::now();
  const TimePoint end = testbed.sim().run_for(Duration::seconds(23));
  ServiceSloResult res;
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  res.final_ns = end.count_nanos();
  res.digest = service.digest();
  res.generated = service.generated();
  res.completed = service.completed();
  res.misses = service.deadline_misses();
  res.p999_ns = service.overall().percentile(0.999).count_nanos();
  if (episode.done()) {
    res.blackout_ns = episode.report().blackout.count_nanos();
  }
  res.unconverged = testbed.unconverged_exchange_count();
  return res;
}

int run_sweep10(bool json_only) {
  // Overall p999 ceiling: steady-state p999 in this scenario is ~6 ms; the
  // blackout cohort tops out around the ~20 ms pause. 50 ms of headroom
  // means the gate only trips on a real queueing regression.
  constexpr std::int64_t kP999CeilingNs = 50'000'000;
  // Best-of over *throughput*: larger is better — the direction parameter
  // this sweep exists to exercise (a latency-style min would report the
  // slowest run as the best).
  BestOf throughput(BestOf::Direction::kLargerIsBetter);
  ServiceSloResult serial;  // the 0-worker run, pinned whole in the JSON
  return determinism_sweep(
      {.number = 10,
       .heading = "\n10. Open-loop KV service under migration (2 servers, 1,200 req/s,\n"
                  "    kv0 migrated at t=0.5 s while serving):\n",
       .columns = {"wall [ms]", "req/s (wall)", "requests", "p999 [ms]", "blackout [ms]"},
       .run =
           [&](int, int workers) {
             const auto r = run_service_slo(workers);
             if (workers == 0) {
               serial = r;
             }
             const double rps = static_cast<double>(r.completed) / (r.wall_ms / 1000.0);
             throughput.add(rps);
             NM_CHECK(throughput.best() >= rps,
                      "BestOf(kLargerIsBetter) returned a non-maximal throughput");
             return SweepRun{
                 .cells = {TextTable::num(r.wall_ms, 2), TextTable::num(rps, 0),
                           std::to_string(r.completed) + "/" + std::to_string(r.generated),
                           TextTable::num(static_cast<double>(r.p999_ns) / 1e6, 2),
                           TextTable::num(static_cast<double>(r.blackout_ns) / 1e6, 2)},
                 .pinned = {{"final_ns", std::to_string(r.final_ns)}},
                 .same_as_serial = {r.digest},
                 .ok = r.completed == r.generated && r.p999_ns <= kP999CeilingNs &&
                       r.blackout_ns > 0 && r.unconverged == 0};
           },
       .finish =
           [&](bool print, JsonKeys& json) {
             if (print) {
               std::cout << "Every request is real fabric traffic competing with the migration\n"
                         << "stream, yet arrivals are pre-drawn and pinned to absolute instants,\n"
                         << "so the whole service timeline lands bit-identically at every worker\n"
                         << "count. Best wall throughput: " << TextTable::num(throughput.best(), 0)
                         << " req/s (spread " << TextTable::num(throughput.spread(), 0)
                         << ").\n";
             }
             json.emplace_back("service_digest", std::to_string(serial.digest));
             json.emplace_back("requests", std::to_string(serial.generated));
             json.emplace_back("deadline_misses", std::to_string(serial.misses));
             json.emplace_back("p999_ns", std::to_string(serial.p999_ns));
             json.emplace_back("blackout_ns", std::to_string(serial.blackout_ns));
             return true;
           }},
      json_only);
}

// --- Sweep 11: oversubscribed Clos evacuation, leaf-aware vs blind ----------

EvacResult run_clos_evacuation(int workers, bool topology_blind) {
  // CI-sized cousin of `examples/mass_evacuation`'s Clos scenario: dc0
  // drains 12 hosts racked 4-per-leaf under three 4:1-oversubscribed
  // leaves into two 2-leaf 2:1 refuges. Equal VM sizes make the blind
  // big-first order equal the boot order, so a topology-blind first wave
  // piles onto leaf 0's single 1.25 GB/s uplink while the leaf-aware
  // planner spreads sources across racks and caps refuge-leaf incast.
  constexpr double kStreamCap = 500e6;  // bytes/s per migration thread
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 12;
  source.clos.leaves = 3;
  source.clos.spines = 1;
  source.clos.hosts_per_leaf = 4;
  source.clos.oversubscription = 4.0;  // leaf uplink 1.25 GB/s vs 5 GB/s of hosts
  source.migration.thread_send_rate = kStreamCap;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 4;
  refuge.clos.leaves = 2;
  refuge.clos.spines = 1;
  refuge.clos.hosts_per_leaf = 2;
  refuge.clos.oversubscription = 2.0;  // two 500 MB/s incast slots per leaf
  refuge.migration.thread_send_rate = kStreamCap;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge}};
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(40);
  wan.rtt = Duration::millis(5);
  wan.loss = 0.00001;
  fcfg.edges = {{0, 1, wan}, {0, 2, wan}};
  fcfg.uplink_rate = Bandwidth::gbps(100);  // WAN gateways are not the story
  fcfg.solve_workers = workers;
  core::Federation fed(fcfg);

  core::EvacuationConfig ecfg;
  ecfg.topology_blind = topology_blind;
  ecfg.planner.stream_rate_cap = kStreamCap;
  return evacuate_site0(fed, /*per_host=*/2, Bytes::mib(768), std::move(ecfg));
}

int run_sweep11(bool json_only) {
  EvacResult aware;  // the 0-worker run the topology-blind baseline is held to
  return determinism_sweep(
      {.number = 11,
       .heading = "\n11. Oversubscribed Clos evacuation (3x4:1 source leaves, 2-leaf 2:1\n"
                  "    refuges, 24 VMs; leaf-aware planner vs topology-blind):\n",
       .columns = {"wall [ms]", "makespan [s]", "waves", "evacuated"},
       .run =
           [&aware](int, int workers) {
             const auto r = run_clos_evacuation(workers, /*topology_blind=*/false);
             if (workers == 0) {
               aware = r;
             }
             return evac_sweep_run(r);
           },
       .finish =
           [&aware](bool print, JsonKeys& json) {
             const auto blind = run_clos_evacuation(/*workers=*/0, /*topology_blind=*/true);
             const bool aware_never_worse = aware.makespan_ns <= blind.makespan_ns;
             if (print) {
               std::cout << "Topology-blind baseline: "
                         << TextTable::num(static_cast<double>(blind.makespan_ns) / 1e9, 3)
                         << " s; the leaf-aware plan "
                         << (aware_never_worse ? "wins" : "LOSES — GATE FAILED") << " ("
                         << TextTable::num(static_cast<double>(blind.makespan_ns) /
                                               static_cast<double>(aware.makespan_ns),
                                           2)
                         << "x). Wave grants re-run the leaf-aware max-min against the live\n"
                            "fabric, ECMP picks are salted-hash deterministic, and the whole\n"
                            "evacuation lands at the same nanosecond at every worker count.\n";
             }
             json.emplace_back("aware_makespan_ns", std::to_string(aware.makespan_ns));
             json.emplace_back("blind_makespan_ns", std::to_string(blind.makespan_ns));
             return aware_never_worse && blind.clean();
           }},
      json_only);
}

/// The `--sweepN` flags, each running one sweep alone.
struct SweepFlag {
  const char* flag;
  int (*run)(bool json_only);
};
constexpr std::array<SweepFlag, 5> kSweepFlags{{{"--sweep7", run_sweep7},
                                                {"--sweep8", run_sweep8},
                                                {"--sweep9", run_sweep9},
                                                {"--sweep10", run_sweep10},
                                                {"--sweep11", run_sweep11}}};

}  // namespace

int main(int argc, char** argv) {
  // `--sweepN` (N = 7..11) runs only that sweep and writes its JSON digest,
  // BENCH_scalability_sweepN.json, which CI key-checks against the
  // committed baseline. Exit code 1 on timeline divergence, a failed gate
  // (including an unconverged exchange) or an unwritable digest.
  if (argc > 1) {
    for (const auto& sweep : kSweepFlags) {
      if (std::strcmp(argv[1], sweep.flag) == 0) {
        return sweep.run(/*json_only=*/true);
      }
    }
  }
  bench::print_header("Scalability", "episode cost sweeps (paper SS V discussion)");

  std::cout << "\n1. VM count (1 VM per destination host, 8 GiB guests):\n";
  TextTable t1({"VMs", "episode total [s]", "migration [s]"});
  for (const int vms : {2, 4, 6, 8}) {
    RunConfig rc;
    rc.vms = vms;
    rc.dst_hosts = vms;
    const auto st = run_fallback(rc);
    t1.add_row({std::to_string(vms), TextTable::num(st.total.to_seconds()),
                TextTable::num(st.migration.to_seconds())});
  }
  t1.render(std::cout);
  std::cout << "Concurrent migrations over disjoint pairs: wall time ~flat — the\n"
               "mechanism itself scales, as the paper argues.\n";

  std::cout << "\n2. Ranks per VM (4 VMs):\n";
  TextTable t2({"ranks/VM", "total ranks", "episode total [s]", "coordination [s]"});
  for (const std::size_t rpv : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
    RunConfig rc;
    rc.ranks_per_vm = rpv;
    const auto st = run_fallback(rc);
    t2.add_row({std::to_string(rpv), std::to_string(4 * rpv),
                TextTable::num(st.total.to_seconds()),
                TextTable::num(st.coordination.to_seconds())});
  }
  t2.render(std::cout);

  std::cout << "\n3. Consolidation ratio (8 VMs onto fewer hosts — incast):\n";
  TextTable t3({"dst hosts", "VMs/host", "migration TCP [s]", "migration RDMA [s]"});
  for (const int hosts : {8, 4, 2, 1}) {
    RunConfig rc;
    rc.vms = 8;
    rc.dst_hosts = hosts;
    const auto tcp = run_fallback(rc);
    rc.rdma = true;
    const auto rdma = run_fallback(rc);
    t3.add_row({std::to_string(hosts), std::to_string(8 / hosts),
                TextTable::num(tcp.migration.to_seconds()),
                TextTable::num(rdma.migration.to_seconds())});
  }
  t3.render(std::cout);
  std::cout << "With the CPU-bound TCP sender (1.3 Gb/s each) the receivers never\n"
               "saturate; remove that cap (RDMA migration) and receiver-side\n"
               "congestion appears as VMs pile onto fewer hosts — the congestion\n"
               "effect the paper flags as the open scalability issue.\n";

  std::cout << "\n4. Wide-area latency sweep (4 VMs, disaster-recovery use case):\n";
  TextTable t4({"eth one-way latency", "episode total [s]", "migration [s]"});
  for (const double ms : {0.03, 2.0, 10.0, 50.0}) {
    RunConfig rc;
    rc.eth_latency = Duration::seconds(ms / 1000.0);
    const auto st = run_fallback(rc);
    t4.add_row({TextTable::num(ms, 2) + " ms", TextTable::num(st.total.to_seconds()),
                TextTable::num(st.migration.to_seconds())});
  }
  t4.render(std::cout);
  std::cout << "Bulk pre-copy is bandwidth-bound, so WAN latency barely moves the\n"
               "episode; the job's own traffic pays for it instead.\n";

  std::cout << "\n5. Sharded pods (" << kNodesPerPod
            << " nodes each; serial 1-scheduler build vs parallel per-pod domains, "
            << std::max(1U, std::thread::hardware_concurrency()) << " hw thread(s)):\n";
  TextTable t5({"pods", "serial build [ms]", "parallel build [ms]", "speedup",
                "timeline"});
  bool sweeps_5_6_diverged = false;
  for (const int pods : {2, 4, 8}) {
    const auto serial = run_sharded(pods, /*parallel=*/false);
    const auto sharded = run_sharded(pods, /*parallel=*/true);
    sweeps_5_6_diverged = sweeps_5_6_diverged || serial.final_ns != sharded.final_ns;
    t5.add_row({std::to_string(pods), TextTable::num(serial.construct_ms, 2),
                TextTable::num(sharded.construct_ms, 2),
                TextTable::num(serial.construct_ms / sharded.construct_ms, 2) + "x",
                serial.final_ns == sharded.final_ns ? "bit-identical" : "DIVERGED"});
  }
  t5.render(std::cout);
  std::cout << "Pods are disjoint zones, so per-pod fluid domains are a valid\n"
               "sharding: domains solve independently, their timers merge through\n"
               "the one deterministic event queue, and the timeline matches the\n"
               "single-scheduler build bit for bit. Build speedup tracks the host's\n"
               "core count (on a 1-core container the column only shows thread\n"
               "overhead); the timeline column is the invariant that matters.\n";

  std::cout << "\n6. Parallel dirty-domain solving (" << kSolvePodNodes
            << "-node rings, 1 fluid domain per pod, SolvePool settle; host has "
            << std::max(1U, std::thread::hardware_concurrency()) << " hw thread(s)):\n";
  TextTable t6({"pods", "workers", "drain [ms]", "speedup", "par settles",
                "max batch", "timeline"});
  for (const int pods : {2, 4}) {
    const auto baseline = run_parallel_solve(pods, /*workers=*/0);
    t6.add_row({std::to_string(pods), "0 (serial)", TextTable::num(baseline.wall_ms, 2),
                "1.00x", "-", "-", "baseline"});
    for (const int workers : {2, 4}) {
      const auto r = run_parallel_solve(pods, workers);
      sweeps_5_6_diverged = sweeps_5_6_diverged || r.final_ns != baseline.final_ns;
      t6.add_row({std::to_string(pods), std::to_string(workers),
                  TextTable::num(r.wall_ms, 2),
                  TextTable::num(baseline.wall_ms / r.wall_ms, 2) + "x",
                  std::to_string(r.parallel_settles), std::to_string(r.max_batch),
                  r.final_ns == baseline.final_ns ? "bit-identical" : "DIVERGED"});
    }
  }
  t6.render(std::cout);
  std::cout << "Every completion instant dirties all P pods at once, so the pool's\n"
               "settle batches span domains: compute runs on the workers, commits\n"
               "replay in canonical (domain, component) order, and the timeline\n"
               "stays bit-identical to the serial drain at every worker count.\n"
               "Speedup tracks min(pods, cores); on a 1-core host the pool only\n"
               "adds handoff overhead — the determinism column is the invariant.\n";
  bool failed = sweeps_5_6_diverged;
  for (const auto& sweep : kSweepFlags) {
    failed = sweep.run(/*json_only=*/false) != 0 || failed;
  }
  return failed ? 1 : 0;
}
