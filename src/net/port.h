// A physical NIC port: the hardware end of a link. Owns the tx/rx fluid
// resources (line-rate capacity) and knows its node (whose CPU is charged
// for protocol processing where the transport requires it).
#pragma once

#include <string>

#include "hw/node.h"
#include "sim/fluid.h"
#include "util/units.h"

namespace nm::net {

class NicPort {
 public:
  NicPort(hw::Node& node, std::string name, Bandwidth line_rate)
      : NicPort(node, std::move(name), line_rate, node.scheduler()) {}
  /// Places tx/rx on an explicit scheduler instead of the node's. Transfers
  /// through this port may still cross resources in other domains: they
  /// become boundary flows solved by the ghost-capacity exchange
  /// (DESIGN.md §6).
  NicPort(hw::Node& node, std::string name, Bandwidth line_rate, sim::FluidScheduler& scheduler)
      : node_(&node),
        name_(std::move(name)),
        line_rate_(line_rate),
        tx_(scheduler, "tx:" + name_, line_rate.bytes_per_second()),
        rx_(scheduler, "rx:" + name_, line_rate.bytes_per_second()) {}
  NicPort(const NicPort&) = delete;
  NicPort& operator=(const NicPort&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] hw::Node& node() { return *node_; }
  [[nodiscard]] Bandwidth line_rate() const { return line_rate_; }
  [[nodiscard]] sim::FluidResource& tx() { return tx_; }
  [[nodiscard]] sim::FluidResource& rx() { return rx_; }

 private:
  hw::Node* node_;
  std::string name_;
  Bandwidth line_rate_;
  sim::FluidResource tx_;
  sim::FluidResource rx_;
};

}  // namespace nm::net
