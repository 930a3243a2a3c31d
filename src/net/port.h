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
  /// tx/rx register in the node's domain, next to the CPU that transfers
  /// through this port may charge.
  NicPort(hw::Node& node, std::string name, Bandwidth line_rate)
      : node_(&node),
        name_(std::move(name)),
        line_rate_(line_rate),
        tx_(node.scheduler(), "tx:" + name_, line_rate.bytes_per_second()),
        rx_(node.scheduler(), "rx:" + name_, line_rate.bytes_per_second()) {}
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
