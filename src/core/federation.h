// Federation: N AGC testbeds coupled on one shared simulation clock by a
// mesh of calibrated WAN links (paper §II's disaster-recovery use case —
// evacuate a site across inter-datacenter links, not across a hallway).
//
// Every resource of every site, every WAN link and the geo-replicated store
// registers in one domain of one FluidNet, so a cross-site transfer is an
// ordinary flow, solved exactly with everything it competes with: its
// shares cross the source blade's tx, then for every WAN hop on the route
// the egress site's switch uplink, the WanLink endpoint pair and the
// ingress site's uplink, and finally the destination's rx. Each crossed
// link's Mathis ceiling caps the flow's rate (sim/wan_link.h, DESIGN.md
// §7). Routes are fewest-hops over the edge mesh, computed by
// plan::SiteGraph::route at construction and re-computable against the
// live mesh after partitions (recompute_routes()). Determinism is
// inherited wholesale: one event queue, canonical-order commits, timelines
// bit-identical at every solve_workers count (wan_federation_test pins
// it).
//
// The sites mount one geo-replicated shared store (the cross-site
// equivalent of the paper's NFS mount) — live migration requires source and
// destination to share storage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "plan/evacuation_planner.h"
#include "sim/wan_link.h"
#include "vmm/monitor.h"

namespace nm::core {

struct FederationSiteConfig {
  /// Site prefix for every host/fabric name ("tokyo" → "tokyo:eth0").
  /// Must be unique within the federation and contain no ':'.
  std::string name;
  TestbedConfig testbed;
};

struct FederationEdgeConfig {
  /// Indices into FederationConfig::sites.
  std::size_t a = 0;
  std::size_t b = 0;
  sim::WanLinkConfig wan;
};

struct FederationConfig {
  /// The mesh: at least two named sites plus WAN edges between them. Every
  /// site should be reachable from every other (unconnected pairs simply
  /// cannot exchange traffic). A WanLinkConfig defaults to 1 Gbps with no
  /// impairments; EXPERIMENTS.md lists the LAN / metro / WAN presets.
  std::vector<FederationSiteConfig> sites;
  std::vector<FederationEdgeConfig> edges;

  /// Line rate of each site's WAN-facing switch uplink ports (one per
  /// incident edge).
  Bandwidth uplink_rate = Bandwidth::gbps(10);
  /// Throughput of the geo-replicated store all sites mount.
  Bandwidth geo_storage_rate = Bandwidth::mib_per_sec(300);
  /// Worker threads in the shared SolvePool (the per-site configs'
  /// fluid_shards/solve_workers/seed are ignored; the clock, pool and fluid
  /// domain are federation-wide).
  int solve_workers = 0;
  std::uint64_t seed = 1;
};

class Federation {
 public:
  explicit Federation(FederationConfig config);
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  [[nodiscard]] const FederationConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::FluidNet& net() { return net_; }
  [[nodiscard]] vmm::SharedStorage& storage() { return *storage_; }

  /// Site and edge accessors throw LogicError for an index out of range.
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] Testbed& site(std::size_t i);
  [[nodiscard]] const std::string& site_name(std::size_t i) const;
  /// Site by configured name; nullptr when absent.
  [[nodiscard]] Testbed* site_by_name(const std::string& name);

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] sim::WanLink& wan_link(std::size_t e);
  /// Endpoint site indices of edge `e`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> edge_sites(std::size_t e) const;

  /// Edge indices of the current fewest-hops route from site `i` to site
  /// `j` (empty when i == j or the pair was unreachable at the last route
  /// computation).
  [[nodiscard]] const std::vector<std::size_t>& route(std::size_t i, std::size_t j) const;

  /// Recomputes every pairwise route against the *live* mesh (edges whose
  /// WanLink is not partitioned) and re-registers the fabric routes. A
  /// pair with no live path keeps its previous route, so in-flight and new
  /// transfers on it freeze at rate 0 until the mesh heals rather than
  /// erroring. Deterministic: a pure function of the links' current
  /// factors; call from task context at fixed points in simulated time.
  void recompute_routes();

  /// The mesh as a planner site graph: one vertex per site (in site index
  /// order, free_vm_slots 0 — callers fill capacity), one edge per WAN
  /// link with the link's *nominal* rate (factor-1 line rate folded with
  /// the Mathis ceiling at the current RTT) and no schedule. Drivers
  /// re-check live effective rates at wave grant time instead.
  [[nodiscard]] plan::SiteGraph site_graph() const;

  /// Looks a host up across all sites ("a:ib3", "b:eth0").
  [[nodiscard]] vmm::Host* find_host(const std::string& name);
  /// Resolver covering every site — hand it to a CloudScheduler's
  /// set_secondary_resolver so migration plans may name peer-site hosts.
  [[nodiscard]] vmm::Monitor::HostResolver resolver();

  /// Lets every boot-time link on all sites finish training.
  void settle();

  /// Always 0: there is no boundary exchange any more. Kept only for
  /// perfbench's mesh_evacuation; the next perfbench change removes them.
  [[nodiscard]] std::size_t exchange_round_count() const { return 0; }
  [[nodiscard]] std::size_t unconverged_exchange_count() const { return 0; }

 private:
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    net::NicPort* uplink_a = nullptr;
    net::NicPort* uplink_b = nullptr;
    std::unique_ptr<sim::WanLink> link;
  };

  /// The mesh as a routing graph for plan::SiteGraph::route (fewest hops,
  /// neighbours in edge-index order): every edge has capacity 1, except
  /// that with `live_only` an edge whose WanLink is partitioned has 0.
  [[nodiscard]] plan::SiteGraph route_graph(bool live_only) const;
  /// Registers routes_[i][j] into the sites' eth fabrics.
  void install_fabric_routes();

  FederationConfig config_;
  sim::Simulation sim_;
  // Destroyed after everything below: the net's pool joins its workers and
  // removes its settle hook while the simulation is alive.
  sim::FluidNet net_;
  /// The one domain every site, WAN link and the geo store register in.
  sim::FluidScheduler& domain_;
  std::unique_ptr<vmm::SharedStorage> storage_;
  std::vector<std::string> site_names_;
  std::vector<std::unique_ptr<Testbed>> sites_;
  hw::Cluster gateways_{"wan-gw"};
  std::vector<std::unique_ptr<net::NicPort>> uplinks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::vector<std::size_t>>> routes_;
};

}  // namespace nm::core
