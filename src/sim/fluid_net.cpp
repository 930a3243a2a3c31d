#include "sim/fluid_net.h"

#include "util/error.h"

namespace nm::sim {

FluidNet::FluidNet(Simulation& sim, int workers)
    : sim_(&sim), pool_(std::make_unique<SolvePool>(*this, workers)) {}

FluidScheduler& FluidNet::add_domain(std::string name) {
  // The constructor is private to FluidNet, so make_unique cannot reach it.
  domains_.push_back(std::unique_ptr<FluidScheduler>(new FluidScheduler(*this, std::move(name))));
  return *domains_.back();
}

FluidScheduler& FluidNet::domain(std::size_t index) {
  NM_CHECK(index < domains_.size(), "domain index " << index << " out of range");
  return *domains_[index];
}

FluidScheduler* FluidNet::domain_of(const FluidResource& res) {
  FluidScheduler* owner = res.scheduler_;
  return owner != nullptr && owner->net_ == this ? owner : nullptr;
}

FlowPtr FluidNet::start(FlowSpec spec) {
  NM_CHECK(!spec.shares.empty(), "a flow must cross at least one resource");
  FluidScheduler* home = nullptr;
  for (const auto& share : spec.shares) {
    NM_CHECK(share.resource != nullptr, "null resource in flow");
    FluidScheduler* owner = domain_of(*share.resource);
    NM_CHECK(owner != nullptr,
             "resource " << share.resource->name() << " is owned outside this FluidNet");
    if (home == nullptr) {
      home = owner;
    }
    NM_CHECK(owner == home, "flow spans domains '" << home->name() << "' and '"
                                                   << owner->name() << "' (resource "
                                                   << share.resource->name() << ")");
  }
  return home->start(std::move(spec));
}

Task FluidNet::run(FlowSpec spec) {
  auto flow = start(std::move(spec));
  if (!flow->finished()) {
    co_await flow->completion().wait();
  }
}

}  // namespace nm::sim
