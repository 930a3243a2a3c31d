// Ethernet fabric model (the paper's Dell M8024 10 GbE switch). IP
// addresses are stable: a migrating VM keeps its address and the virtio NIC
// re-binds to the destination host's physical port. TCP is CPU-fed, so
// transfers charge per-byte core-seconds to both hosts (see
// core/calibration.h for the calibrated costs).
#pragma once

#include "net/fabric.h"

namespace nm::net {

struct EthFabricConfig {
  Bandwidth line_rate = Bandwidth::gbps(10);
  Duration latency = Duration::micros(30);
  /// Link-up after (re-)plug is negligible for Ethernet (Table II).
  Duration linkup_time = Duration::zero();
  /// Address-space offset; federated sites need disjoint bases (see
  /// FabricSpec::address_base).
  FabricAddress address_base = 0;
};

class EthFabric : public Fabric {
 public:
  EthFabric(sim::FluidNet& net, std::string name, EthFabricConfig config = {});

  [[nodiscard]] const EthFabricConfig& config() const { return config_; }

 private:
  EthFabricConfig config_;
};

}  // namespace nm::net
