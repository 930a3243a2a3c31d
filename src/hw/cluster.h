// A cluster is a named set of nodes sharing an interconnect (the paper's
// "Infiniband cluster" / "Ethernet cluster" halves of the AGC testbed).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/node.h"
#include "util/error.h"

namespace nm::hw {

class Cluster {
 public:
  explicit Cluster(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  Node& add_node(sim::FluidScheduler& scheduler, NodeSpec spec) {
    nodes_.push_back(std::make_unique<Node>(scheduler, std::move(spec)));
    return *nodes_.back();
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) {
    NM_CHECK(i < nodes_.size(), "node index " << i << " out of range in " << name_);
    return *nodes_[i];
  }
  [[nodiscard]] Node* find(const std::string& name) {
    for (auto& n : nodes_) {
      if (n->name() == name) {
        return n.get();
      }
    }
    return nullptr;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace nm::hw
