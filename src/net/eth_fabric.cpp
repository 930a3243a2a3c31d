#include "net/eth_fabric.h"

namespace nm::net {

namespace {
FabricSpec make_spec(const std::string& name, const EthFabricConfig& config) {
  FabricSpec spec;
  spec.name = name;
  spec.latency = config.latency;
  spec.linkup_time = config.linkup_time;
  spec.stable_addresses = true;  // IPs follow the VM across hosts
  spec.address_base = config.address_base;
  return spec;
}
}  // namespace

EthFabric::EthFabric(sim::FluidNet& net, std::string name, EthFabricConfig config)
    : Fabric(net, make_spec(name, config)), config_(config) {}

}  // namespace nm::net
