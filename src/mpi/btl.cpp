#include "mpi/btl.h"

#include "util/error.h"
#include "vmm/host.h"
#include "vmm/vm.h"

namespace nm::mpi {

// --- SmBtl ------------------------------------------------------------------

SmBtl::SmBtl(vmm::Vm& vm, Bandwidth copy_rate) : vm_(&vm), copy_rate_(copy_rate) {}

bool SmBtl::can_reach(const ModexEntry& peer) const {
  return peer.vm_id == reinterpret_cast<std::uint64_t>(vm_);
}

sim::Task SmBtl::put(const ModexEntry& peer, Bytes bytes) {
  NM_CHECK(can_reach(peer), "sm put to a peer in another VM");
  // A single-core memcpy through a shared-memory FIFO: the copying core is
  // busy for bytes/copy_rate, charged against the VM's vCPU allotment and
  // the host's cores (so over-commit slows intra-VM traffic too).
  co_await vm_->run_gate().opened();
  const double rate = copy_rate_.bytes_per_second();
  std::vector<sim::ResourceShare> shares{{&vm_->vcpu(), 1.0 / rate},
                                         {&vm_->host().node().cpu(), 1.0 / rate}};
  auto flow = vm_->host().net().start(
      sim::FlowSpec{static_cast<double>(bytes.count()), std::move(shares), rate, {}});
  vm_->track_flow(flow);
  if (!flow->finished()) {
    co_await flow->completion().wait();
  }
}

// --- TcpBtl -----------------------------------------------------------------

sim::Task TcpBtl::put(const ModexEntry& peer, Bytes bytes) {
  if (!driver_->ready()) {
    throw OperationError("tcp btl: local virtio NIC is not ready");
  }
  co_await driver_->send(peer.ip, bytes);
}

// --- OpenIbBtl ---------------------------------------------------------------

OpenIbBtl::OpenIbBtl(guest::IbVerbsDriver& driver)
    : driver_(&driver), local_lid_(driver.address()) {
  NM_CHECK(driver.ready(),
           "openib btl can only be built on an ACTIVE port (component init "
           "disqualifies itself otherwise)");
}

bool OpenIbBtl::valid() const {
  // Invalid once the HCA is gone or came back with a different LID — saved
  // QPs and the modex snapshot are then meaningless.
  return driver_->ready() && driver_->address() == local_lid_;
}

sim::Task OpenIbBtl::put(const ModexEntry& peer, Bytes bytes) {
  if (!valid()) {
    throw OperationError("openib btl: module is stale (HCA detached or LID changed)");
  }
  // Lazy reliable-connected QP setup per peer, like the real openib BTL.
  if (!peer_qps_.contains(peer.lid)) {
    peer_qps_[peer.lid] = driver_->create_queue_pair();
  }
  co_await driver_->send(peer.lid, bytes);
}

void OpenIbBtl::release_resources() {
  peer_qps_.clear();
  driver_->release_resources();
}

}  // namespace nm::mpi
