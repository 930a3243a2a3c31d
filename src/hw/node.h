// Physical machine model: a node has CPU cores (one fair-shared fluid
// resource), DRAM, and a memory-write bandwidth figure used by workload and
// migration cost models. Matches one blade of the paper's AGC cluster
// (Table I: 2x quad-core Xeon E5540, 48 GB DDR3-1066).
#pragma once

#include <memory>
#include <string>

#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::hw {

struct NodeSpec {
  std::string name;
  double cores = 8.0;
  Bytes memory = Bytes::gib(48);
  /// Sustained single-core memory write bandwidth (memtest-style streaming
  /// stores). DDR3-1066 on the paper's Nehalem blades.
  Bandwidth mem_write_bw = Bandwidth::gib_per_sec(3.0);
  /// NUMA sockets; informational plus a small locality penalty hook.
  int sockets = 2;
};

class Node {
 public:
  Node(sim::FluidScheduler& scheduler, NodeSpec spec)
      : scheduler_(&scheduler),
        spec_(std::move(spec)),
        cpu_(scheduler, "cpu:" + spec_.name, spec_.cores) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] sim::FluidResource& cpu() { return cpu_; }
  [[nodiscard]] sim::FluidScheduler& scheduler() { return *scheduler_; }

  /// Coroutine: runs `core_seconds` of single-threaded work on this node's
  /// CPU to completion, started through the domain's net. Over-commit
  /// slows it down via fair sharing.
  [[nodiscard]] sim::Task compute(double core_seconds) {
    // Named spec, not a temporary: see the FlowLabel comment in fluid.h.
    sim::FlowSpec spec{.work = core_seconds, .max_rate = 1.0};
    spec.over(cpu_);
    co_await scheduler_->net().run(std::move(spec));
  }

  /// Core-seconds needed to stream-write `n` bytes of memory.
  [[nodiscard]] double mem_write_cost(Bytes n) const {
    return static_cast<double>(n.count()) / spec_.mem_write_bw.bytes_per_second();
  }

 private:
  sim::FluidScheduler* scheduler_;
  NodeSpec spec_;
  sim::FluidResource cpu_;
};

}  // namespace nm::hw
