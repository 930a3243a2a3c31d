#include "core/federation.h"

#include <algorithm>
#include <set>

#include "util/error.h"

namespace nm::core {

Federation::Federation(FederationConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      net_(sim_, config_.solve_workers),
      domain_(net_.add_domain("federation")) {
  const std::size_t n = config_.sites.size();
  NM_CHECK(n >= 2, "a federation needs at least two sites");
  {
    std::set<std::string> names;
    for (const FederationSiteConfig& site : config_.sites) {
      NM_CHECK(!site.name.empty() && site.name.find(':') == std::string::npos,
               "federation site name '" << site.name << "' must be non-empty and ':'-free");
      NM_CHECK(names.insert(site.name).second,
               "duplicate federation site name '" << site.name << "'");
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> edge_pairs;
  for (const FederationEdgeConfig& edge : config_.edges) {
    NM_CHECK(edge.a < n && edge.b < n && edge.a != edge.b,
             "federation edge (" << edge.a << ", " << edge.b << ") is not a valid site pair");
    NM_CHECK(edge_pairs.insert({std::min(edge.a, edge.b), std::max(edge.a, edge.b)}).second,
             "duplicate federation edge between sites " << edge.a << " and " << edge.b);
  }

  // Cross-site transfers resolve addresses locally first, so the sites'
  // eth address spaces must be pairwise disjoint or a routed destination
  // could shadow a local one and deliver to the wrong site. Respect
  // explicitly configured bases; re-base colliders onto the lowest free
  // 2^16-aligned block (N-safe — the old code special-cased exactly two
  // sites).
  {
    std::set<net::FabricAddress> used;
    for (FederationSiteConfig& site : config_.sites) {
      net::FabricAddress base = site.testbed.eth.address_base;
      for (net::FabricAddress block = 0; !used.insert(base).second; ++block) {
        base = block << 16;
      }
      site.testbed.eth.address_base = base;
    }
  }

  storage_ = std::make_unique<vmm::SharedStorage>(net_, domain_, "geo", config_.geo_storage_rate);

  for (const FederationSiteConfig& site : config_.sites) {
    site_names_.push_back(site.name);
    sites_.push_back(
        std::make_unique<Testbed>(site.testbed, domain_, site.name, storage_.get()));
  }

  // One WAN link per mesh edge. Each side gets its own gateway uplink port
  // (a site's edges don't share uplink queues).
  auto add_uplink = [&](std::size_t site, std::size_t edge_index) -> net::NicPort& {
    hw::NodeSpec spec;
    spec.name = site_names_[site] + ":gw" + std::to_string(edge_index);
    auto& node = gateways_.add_node(domain_, spec);
    uplinks_.push_back(
        std::make_unique<net::NicPort>(node, spec.name + ":uplink", config_.uplink_rate));
    return *uplinks_.back();
  };
  for (std::size_t e = 0; e < config_.edges.size(); ++e) {
    const FederationEdgeConfig& ec = config_.edges[e];
    Edge edge;
    edge.a = ec.a;
    edge.b = ec.b;
    edge.uplink_a = &add_uplink(ec.a, e);
    edge.uplink_b = &add_uplink(ec.b, e);
    edge.link = std::make_unique<sim::WanLink>(
        sim_, domain_, site_names_[ec.a] + "-" + site_names_[ec.b], ec.wan);
    edges_.push_back(std::move(edge));
  }

  // Initial routes treat every link as alive, even one whose schedule
  // partitions it at time 0.
  const plan::SiteGraph mesh = route_graph(/*live_only=*/false);
  routes_.assign(n, std::vector<std::vector<std::size_t>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      routes_[i][j] = mesh.route(i, j, 0.0);
    }
  }
  install_fabric_routes();
}

Testbed& Federation::site(std::size_t i) {
  NM_CHECK(i < sites_.size(), "site index " << i << " out of range");
  return *sites_[i];
}

const std::string& Federation::site_name(std::size_t i) const {
  NM_CHECK(i < site_names_.size(), "site index " << i << " out of range");
  return site_names_[i];
}

sim::WanLink& Federation::wan_link(std::size_t e) {
  NM_CHECK(e < edges_.size(), "edge index " << e << " out of range");
  return *edges_[e].link;
}

std::pair<std::size_t, std::size_t> Federation::edge_sites(std::size_t e) const {
  NM_CHECK(e < edges_.size(), "edge index " << e << " out of range");
  return {edges_[e].a, edges_[e].b};
}

const std::vector<std::size_t>& Federation::route(std::size_t i, std::size_t j) const {
  NM_CHECK(i < routes_.size() && j < routes_.size(),
           "route (" << i << ", " << j << ") out of range");
  return routes_[i][j];
}

plan::SiteGraph Federation::route_graph(bool live_only) const {
  plan::SiteGraph graph;
  graph.sites.resize(sites_.size());
  for (const Edge& edge : edges_) {
    const bool up = !live_only || !edge.link->partitioned();
    graph.edges.push_back({edge.a, edge.b, up ? 1.0 : 0.0, {}});
  }
  return graph;
}

void Federation::install_fabric_routes() {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      if (i == j || routes_[i][j].empty()) {
        continue;
      }
      std::vector<net::WanHop> hops;
      std::size_t cur = i;
      for (std::size_t e : routes_[i][j]) {
        const Edge& edge = edges_[e];
        const bool forward = edge.a == cur;
        const std::size_t far = forward ? edge.b : edge.a;
        hops.push_back(net::WanHop{forward ? edge.uplink_a : edge.uplink_b, edge.link.get(),
                                   forward ? edge.uplink_b : edge.uplink_a,
                                   &sites_[far]->eth_fabric()});
        cur = far;
      }
      sites_[i]->eth_fabric().add_route(sites_[j]->eth_fabric(), std::move(hops));
    }
  }
}

void Federation::recompute_routes() {
  const plan::SiteGraph mesh = route_graph(/*live_only=*/true);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      std::vector<std::size_t> live = mesh.route(i, j, 0.0);
      if (!live.empty()) {
        routes_[i][j] = std::move(live);
      }
      // else: keep the previous route — traffic freezes on the dead edge
      // instead of erroring, and heals in place.
    }
  }
  install_fabric_routes();
}

plan::SiteGraph Federation::site_graph() const {
  plan::SiteGraph graph;
  for (const std::string& name : site_names_) {
    graph.sites.push_back({name, 0});
  }
  for (const Edge& edge : edges_) {
    graph.edges.push_back({edge.a, edge.b, edge.link->nominal_rate(), {}});
  }
  return graph;
}

Testbed* Federation::site_by_name(const std::string& name) {
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    if (site_names_[i] == name) {
      return sites_[i].get();
    }
  }
  return nullptr;
}

vmm::Host* Federation::find_host(const std::string& name) {
  for (auto& site : sites_) {
    if (vmm::Host* host = site->find_host(name)) {
      return host;
    }
  }
  return nullptr;
}

vmm::Monitor::HostResolver Federation::resolver() {
  return [this](const std::string& name) { return find_host(name); };
}

void Federation::settle() {
  Duration window = Duration::zero();
  for (const FederationSiteConfig& site : config_.sites) {
    window = std::max(window, site.testbed.ib.linkup_time + site.testbed.hotplug.attach_ib +
                                  Duration::seconds(1.0));
  }
  sim_.run_for(window);
}

}  // namespace nm::core
