#include "vmm/host.h"

#include <algorithm>

#include "util/log.h"

namespace nm::vmm {

Host::Host(sim::FluidNet& net, hw::Node& node, SharedStorage& storage, HotplugTiming timing,
           MigrationConfig migration)
    : sim_(&net.simulation()),
      net_(&net),
      node_(&node),
      storage_(&storage),
      timing_(timing),
      migration_(migration) {}

void Host::connect_eth(net::EthFabric& fabric, net::NicPort& uplink) {
  NM_CHECK(eth_fabric_ == nullptr, name() << " already has an Ethernet uplink");
  eth_fabric_ = &fabric;
  eth_uplink_ = &uplink;
  eth_attachment_ = fabric.attach(uplink);
}

net::EthFabric& Host::eth_fabric() {
  NM_CHECK(eth_fabric_ != nullptr, name() << " has no Ethernet uplink");
  return *eth_fabric_;
}

net::NicPort& Host::eth_uplink() {
  NM_CHECK(eth_uplink_ != nullptr, name() << " has no Ethernet uplink");
  return *eth_uplink_;
}

net::AttachmentPtr Host::eth_attachment() {
  NM_CHECK(eth_attachment_ != nullptr, name() << " has no Ethernet uplink");
  return eth_attachment_;
}

void Host::register_hca(const std::string& host_pci_addr, net::IbFabric& fabric,
                        net::NicPort& port, int vf_count) {
  NM_CHECK(!hcas_.contains(host_pci_addr),
           name() << " already has an HCA at " << host_pci_addr);
  NM_CHECK(vf_count >= 1, "an HCA exposes at least one function");
  hcas_[host_pci_addr] = HcaSlot{&fabric, &port, vf_count, 0};
}

bool Host::hca_available(const std::string& host_pci_addr) const {
  auto it = hcas_.find(host_pci_addr);
  return it != hcas_.end() && it->second.vfs_in_use < it->second.vf_count;
}

net::IbFabric* Host::ib_fabric() {
  return hcas_.empty() ? nullptr : hcas_.begin()->second.fabric;
}

std::shared_ptr<Vm> Host::launch(VmSpec spec) {
  NM_CHECK(find_vm(spec.name) == nullptr, "VM name " << spec.name << " already in use");
  auto vm = std::make_shared<Vm>(*sim_, node_->scheduler(), std::move(spec), *this);
  vms_.push_back(vm);
  NM_LOG_INFO("vmm") << name() << ": launched VM " << vm->name() << " (" << vm->spec().vcpus
                     << " vCPUs, " << vm->spec().memory << ")";
  return vm;
}

bool Host::resident(const Vm& vm) const {
  return std::any_of(vms_.begin(), vms_.end(), [&](const auto& p) { return p.get() == &vm; });
}

std::shared_ptr<Vm> Host::find_vm(const std::string& vm_name) const {
  for (const auto& vm : vms_) {
    if (vm->name() == vm_name) {
      return vm;
    }
  }
  return nullptr;
}

VirtioNetDevice& Host::add_virtio_net(Vm& vm, const std::string& tag, VirtioNetCosts costs) {
  NM_CHECK(resident(vm), vm.name() << " is not resident on " << name());
  auto device = std::make_unique<VirtioNetDevice>(tag, "00:03.0", eth_fabric(), eth_uplink(),
                                                  costs);
  return static_cast<VirtioNetDevice&>(vm.plug_device(std::move(device)));
}

sim::Task Host::device_add(Vm& vm, std::string host_pci_addr, std::string tag) {
  if (!resident(vm)) {
    throw OperationError("device_add: VM " + vm.name() + " is not resident on " + name());
  }
  auto it = hcas_.find(host_pci_addr);
  if (it == hcas_.end()) {
    throw OperationError("device_add: no host device at " + host_pci_addr + " on " + name());
  }
  if (it->second.vfs_in_use >= it->second.vf_count) {
    throw OperationError("device_add: no free function on host device " + host_pci_addr +
                         " (in use " + std::to_string(it->second.vfs_in_use) + "/" +
                         std::to_string(it->second.vf_count) + ")");
  }
  // ACPI hotplug-add handshake (acpiphp in the guest + QEMU wiring).
  co_await sim_->delay(timing_.attach_ib * timing_.noise_factor);
  ++it->second.vfs_in_use;
  auto device = std::make_unique<IbHcaPassthroughDevice>(std::move(tag), "04:00.0",
                                                         host_pci_addr, *it->second.fabric,
                                                         *it->second.port);
  vm.plug_device(std::move(device));
  NM_LOG_INFO("vmm") << name() << ": HCA " << host_pci_addr << " attached to " << vm.name();
}

sim::Task Host::device_del(Vm& vm, std::string tag) {
  if (!resident(vm)) {
    throw OperationError("device_del: VM " + vm.name() + " is not resident on " + name());
  }
  VmDevice* device = vm.find_device(tag);
  if (device == nullptr) {
    throw OperationError("device_del: VM " + vm.name() + " has no device '" + tag + "'");
  }
  const bool is_hca = device->vmm_bypass();
  const Duration latency =
      (is_hca ? timing_.detach_ib : timing_.detach_eth) * timing_.noise_factor;
  // ACPI eject handshake with the guest.
  co_await sim_->delay(latency);
  auto removed = vm.unplug_device(tag);
  if (is_hca) {
    auto* hca = static_cast<IbHcaPassthroughDevice*>(removed.get());
    auto it = hcas_.find(hca->host_pci_addr());
    NM_CHECK(it != hcas_.end(), "unplugged HCA " << hca->host_pci_addr() << " unknown to host");
    NM_CHECK(it->second.vfs_in_use > 0, "VF accounting underflow on " << hca->host_pci_addr());
    --it->second.vfs_in_use;
  }
  NM_LOG_INFO("vmm") << name() << ": device " << removed->tag() << " detached from "
                     << vm.name();
}

sim::Task Host::migrate(Vm& vm, Host& dst, MigrationStats* stats, double bandwidth_cap,
                        const MigrationControl* control) {
  co_await migration_.migrate(vm, *this, dst, stats, bandwidth_cap, control);
}

void Host::adopt(std::shared_ptr<Vm> vm) {
  NM_CHECK(vm != nullptr, "adopting null VM");
  vms_.push_back(std::move(vm));
}

std::shared_ptr<Vm> Host::evict(Vm& vm) {
  auto it = std::find_if(vms_.begin(), vms_.end(), [&](const auto& p) { return p.get() == &vm; });
  NM_CHECK(it != vms_.end(), vm.name() << " is not resident on " << name());
  std::shared_ptr<Vm> out = std::move(*it);
  vms_.erase(it);
  return out;
}

}  // namespace nm::vmm
