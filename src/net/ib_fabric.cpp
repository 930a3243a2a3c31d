#include "net/ib_fabric.h"

namespace nm::net {

namespace {
FabricSpec make_spec(const std::string& name, const IbFabricConfig& config) {
  FabricSpec spec;
  spec.name = name;
  spec.latency = config.latency;
  spec.linkup_time = config.linkup_time;
  spec.stable_addresses = false;  // LIDs are fabric-managed and reassigned
  return spec;
}
}  // namespace

IbFabric::IbFabric(sim::FluidNet& net, std::string name, IbFabricConfig config)
    : Fabric(net, make_spec(name, config)), config_(config) {}

IbFabric::QpState& IbFabric::state_for(const AttachmentPtr& att) {
  NM_CHECK(att != nullptr, "null attachment");
  NM_CHECK(&att->fabric() == this, "attachment is not on this IB fabric");
  auto& st = qp_state_[att.get()];
  // Driver re-init after re-attach: QPN space restarts, stale QPs vanish.
  const auto epoch = att->address();  // address changes with each attach
  if (st.epoch != epoch) {
    st = QpState{};
    st.epoch = epoch;
  }
  return st;
}

IbFabric::QueuePair IbFabric::create_queue_pair(const AttachmentPtr& att) {
  if (att->state() != LinkState::kActive) {
    throw OperationError(name() + ": cannot create QP, port not active");
  }
  auto& st = state_for(att);
  ++st.live;
  return QueuePair{st.next_qpn++, att->address()};
}

void IbFabric::destroy_queue_pairs(const AttachmentPtr& att) {
  auto it = qp_state_.find(att.get());
  if (it != qp_state_.end()) {
    it->second.live = 0;
  }
}

std::size_t IbFabric::queue_pair_count(const AttachmentPtr& att) const {
  auto it = qp_state_.find(att.get());
  if (it == qp_state_.end() || it->second.epoch != att->address()) {
    return 0;
  }
  return it->second.live;
}

sim::Task IbFabric::rdma_transfer(AttachmentPtr src, FabricAddress dst_lid, Bytes bytes) {
  // VMM-bypass: the HCA moves the data; no core-seconds are charged.
  co_await transfer(std::move(src), dst_lid, bytes, TransferOptions{});
}

}  // namespace nm::net
