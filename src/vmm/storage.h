// Shared storage model. QEMU pre-copy live migration requires the source
// and destination to see the same disk (the paper used NFSv3). Beyond the
// precondition check, the storage carries a throughput resource so that
// checkpoint/restore of VM images (the paper's §II proactive
// fault-tolerance use case) has a cost, and concurrent image writes
// contend.
#pragma once

#include <string>

#include "hw/node.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::vmm {

class SharedStorage {
 public:
  /// The throughput resource registers into `home`, a domain of `net`;
  /// `net` carries the IO flows, which also cross the client node's CPU, so
  /// every client node must live in `home` too.
  SharedStorage(sim::FluidNet& net, sim::FluidScheduler& home, std::string name,
                Bandwidth throughput = Bandwidth::mib_per_sec(300))
      : net_(&net),
        name_(std::move(name)),
        throughput_(home, "nfs:" + name_, throughput.bytes_per_second()) {}
  SharedStorage(const SharedStorage&) = delete;
  SharedStorage& operator=(const SharedStorage&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::FluidResource& throughput() { return throughput_; }

  /// Writes `bytes` from `via` to the store (NFS client CPU cost is
  /// charged to the writing node).
  [[nodiscard]] sim::Task write(hw::Node& via, Bytes bytes) { return io(via, bytes); }
  /// Reads `bytes` into `via`.
  [[nodiscard]] sim::Task read(hw::Node& via, Bytes bytes) { return io(via, bytes); }

 private:
  [[nodiscard]] sim::Task io(hw::Node& via, Bytes bytes) {
    // NFS over the shared server: server throughput shared by all
    // clients; client-side protocol cost ~1 core at 1 GiB/s.
    // Named spec, not a temporary: see the FlowLabel comment in fluid.h —
    // GCC 12 miscompiles FlowSpec temporaries that live across a co_await.
    sim::FlowSpec spec{.work = static_cast<double>(bytes.count())};
    spec.shares = {{&throughput_, 1.0},
                   {&via.cpu(), 1.0 / (1024.0 * 1024.0 * 1024.0)}};
    co_await net_->run(std::move(spec));
  }

  sim::FluidNet* net_;
  std::string name_;
  sim::FluidResource throughput_;
};

}  // namespace nm::vmm
