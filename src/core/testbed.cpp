#include "core/testbed.h"

#include "util/error.h"

namespace nm::core {

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      owned_sim_(std::make_unique<sim::Simulation>(config_.seed)),
      owned_net_(std::make_unique<sim::FluidNet>(*owned_sim_, config_.solve_workers)),
      sim_(owned_sim_.get()),
      net_(owned_net_.get()),
      ib_cluster_("agc-ib"),
      eth_cluster_("agc-eth") {
  NM_CHECK(config_.fluid_shards >= 1,
           "testbed needs at least one fluid shard, got " << config_.fluid_shards);
  for (int i = 0; i < config_.fluid_shards; ++i) {
    net_->add_domain("shard" + std::to_string(i));
  }
  zone_ = &net_->domain(0);
  build();
}

Testbed::Testbed(TestbedConfig config, sim::FluidScheduler& zone, std::string site,
                 vmm::SharedStorage* shared_storage)
    : config_(std::move(config)),
      sim_(&zone.simulation()),
      net_(&zone.net()),
      zone_(&zone),
      prefix_(site.empty() ? std::string{} : site + ":"),
      storage_(shared_storage),
      ib_cluster_(prefix_ + "agc-ib"),
      eth_cluster_(prefix_ + "agc-eth") {
  build();
}

void Testbed::build() {
  // Every blade hangs off the one 10 GbE switch and the NFS storage, so the
  // whole enclosure — fabrics, store, blades — is one connected zone and
  // registers in the zone domain.
  if (storage_ == nullptr) {
    owned_storage_ =
        std::make_unique<vmm::SharedStorage>(*net_, zone_domain(), prefix_ + "agc");
    storage_ = owned_storage_.get();
  }
  ib_fabric_ = std::make_unique<net::IbFabric>(*net_, prefix_ + "ib:m3601q", config_.ib);
  eth_fabric_ = std::make_unique<net::EthFabric>(*net_, prefix_ + "eth:m8024", config_.eth);
  if (config_.clos.enabled()) {
    clos_ = std::make_unique<net::ClosFabric>(zone_domain(), prefix_ + "clos", config_.clos);
    NM_CHECK(clos_->host_ports() >= config_.ib_nodes + config_.eth_nodes,
             prefix_ << "clos: " << clos_->host_ports() << " host ports < "
                     << config_.ib_nodes + config_.eth_nodes << " blades");
    eth_fabric_->set_topology(clos_.get());
  }

  auto make_host = [&](hw::Cluster& cluster, const std::string& name, bool with_hca) {
    hw::NodeSpec spec = config_.blade_spec;
    spec.name = name;
    auto& node = cluster.add_node(zone_domain(), spec);
    auto host =
        std::make_unique<vmm::Host>(*net_, node, *storage_, config_.hotplug, config_.migration);
    // 10 GbE uplink on every blade.
    ports_.push_back(
        std::make_unique<net::NicPort>(node, name + ":eth", config_.eth.line_rate));
    if (clos_ != nullptr) {
      // Blade i racks under leaf i / hosts_per_leaf, in boot order.
      clos_->assign_port(*ports_.back(),
                         static_cast<int>(hosts_.size()) / clos_->hosts_per_leaf());
    }
    host->connect_eth(*eth_fabric_, *ports_.back());
    if (with_hca) {
      ports_.push_back(
          std::make_unique<net::NicPort>(node, name + ":hca", config_.ib.data_rate));
      host->register_hca(kHcaPciAddr, *ib_fabric_, *ports_.back(), config_.hca_vfs);
    }
    hosts_.push_back(std::move(host));
  };

  for (int i = 0; i < config_.ib_nodes; ++i) {
    make_host(ib_cluster_, prefix_ + "ib" + std::to_string(i), /*with_hca=*/true);
  }
  for (int i = 0; i < config_.eth_nodes; ++i) {
    make_host(eth_cluster_, prefix_ + "eth" + std::to_string(i), /*with_hca=*/false);
  }
}

int Testbed::leaf_of(vmm::Host& host) {
  if (clos_ == nullptr) {
    return net::ClosFabric::kSpineAttach;
  }
  return clos_->leaf_of(host.eth_uplink());
}

vmm::Host& Testbed::ib_host(int i) {
  NM_CHECK(i >= 0 && i < config_.ib_nodes, "ib host index " << i << " out of range");
  return *hosts_[static_cast<std::size_t>(i)];
}

vmm::Host& Testbed::eth_host(int i) {
  NM_CHECK(i >= 0 && i < config_.eth_nodes, "eth host index " << i << " out of range");
  return *hosts_[static_cast<std::size_t>(config_.ib_nodes + i)];
}

vmm::Host* Testbed::find_host(const std::string& name) {
  for (auto& host : hosts_) {
    if (host->name() == name) {
      return host.get();
    }
  }
  return nullptr;
}

std::vector<vmm::Host*> Testbed::all_hosts() {
  std::vector<vmm::Host*> out;
  out.reserve(hosts_.size());
  for (auto& host : hosts_) {
    out.push_back(host.get());
  }
  return out;
}

std::shared_ptr<vmm::Vm> Testbed::boot_vm(vmm::Host& host, vmm::VmSpec spec, bool with_hca) {
  auto vm = host.launch(std::move(spec));
  host.add_virtio_net(*vm, "vnet0");
  if (with_hca) {
    NM_CHECK(host.hca_available(kHcaPciAddr),
             host.name() << " has no free HCA for " << vm->name());
    // Boot-time assignment (qemu -device on the command line): no hotplug
    // handshake, but the port still trains.
    sim_->spawn(host.device_add(*vm, kHcaPciAddr, "vf0"), "boot-hca:" + vm->name());
  }
  return vm;
}

void Testbed::settle() {
  sim_->run_for(config_.ib.linkup_time + config_.hotplug.attach_ib + Duration::seconds(1.0));
}

}  // namespace nm::core
