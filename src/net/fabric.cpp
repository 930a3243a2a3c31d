#include "net/fabric.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/clos_fabric.h"
#include "sim/wan_link.h"
#include "util/log.h"

namespace nm::net {

std::string_view to_string(LinkState s) {
  switch (s) {
    case LinkState::kDown:
      return "DOWN";
    case LinkState::kPolling:
      return "POLLING";
    case LinkState::kActive:
      return "ACTIVE";
  }
  return "?";
}

Fabric::Fabric(sim::FluidNet& net, FabricSpec spec)
    : net_(&net), spec_(std::move(spec)), next_address_(spec_.address_base + 1) {}

void Fabric::add_route(Fabric& dst, std::vector<WanHop> hops) {
  NM_CHECK(&dst != this, spec_.name << ": cannot route a fabric to itself");
  NM_CHECK(!hops.empty(), spec_.name << ": route to " << dst.spec_.name << " needs >= 1 hop");
  NM_CHECK(spec_.address_base != dst.spec_.address_base,
           spec_.name << " and " << dst.spec_.name
                      << " share an address base; routed address spaces must be disjoint");
  for (const WanHop& hop : hops) {
    NM_CHECK(hop.egress != nullptr && hop.wan != nullptr && hop.ingress != nullptr &&
                 hop.to != nullptr,
             spec_.name << ": incomplete WAN hop on route to " << dst.spec_.name);
  }
  NM_CHECK(hops.back().to == &dst,
           spec_.name << ": route's last hop lands on " << hops.back().to->spec_.name
                      << ", not " << dst.spec_.name);
  for (Route& route : routes_) {
    if (route.dst == &dst) {
      route.hops = std::move(hops);
      return;
    }
  }
  routes_.push_back(Route{&dst, std::move(hops)});
  NM_LOG_DEBUG("net") << spec_.name << ": route to " << dst.spec_.name << " via "
                      << routes_.back().hops.size() << " WAN hop(s)";
}

void Fabric::peer_with(Fabric& other, sim::WanLink& wan) {
  NM_CHECK(&other != this, spec_.name << ": cannot peer a fabric with itself");
  NM_CHECK(uplink_ != nullptr, spec_.name << ": set_uplink before peer_with");
  NM_CHECK(other.uplink_ != nullptr, other.spec_.name << ": set_uplink before peer_with");
  add_route(other, {WanHop{uplink_, &wan, other.uplink_, &other}});
  other.add_route(*this, {WanHop{other.uplink_, &wan, uplink_, this}});
  NM_LOG_DEBUG("net") << spec_.name << ": peered with " << other.spec_.name << " over WAN link "
                      << wan.name();
}

std::pair<AttachmentPtr, const Fabric::Route*> Fabric::find_remote(FabricAddress addr) const {
  for (const Route& route : routes_) {
    if (AttachmentPtr dst = route.dst->find(addr)) {
      return {std::move(dst), &route};
    }
  }
  return {nullptr, nullptr};
}

double Fabric::path_rate(const AttachmentPtr& src, FabricAddress dst_addr) const {
  NM_CHECK(src != nullptr, "path_rate from null attachment");
  const double src_rate = src->port_->line_rate().bytes_per_second();
  if (AttachmentPtr dst = find(dst_addr)) {
    double rate = std::min(src_rate, dst->port_->line_rate().bytes_per_second());
    if (topology_ != nullptr) {
      rate = std::min(rate,
                      topology_->path_rate(topology_->leaf_of(*src->port_),
                                           topology_->leaf_of(*dst->port_)));
    }
    return rate;
  }
  auto [dst, route] = find_remote(dst_addr);
  if (dst != nullptr) {
    double rate = std::min(src_rate, dst->port_->line_rate().bytes_per_second());
    for (const WanHop& hop : route->hops) {
      rate = std::min({rate, hop.egress->line_rate().bytes_per_second(),
                       hop.wan->effective_rate(), hop.ingress->line_rate().bytes_per_second()});
    }
    if (topology_ != nullptr) {
      rate = std::min(rate, topology_->path_rate(topology_->leaf_of(*src->port_),
                                                 net::ClosFabric::kSpineAttach));
    }
    const Fabric* landing = route->hops.back().to;
    if (landing->topology_ != nullptr) {
      rate = std::min(rate,
                      landing->topology_->path_rate(net::ClosFabric::kSpineAttach,
                                                    landing->topology_->leaf_of(*dst->port_)));
    }
    return rate;
  }
  throw OperationError(spec_.name + ": no attachment at address " + std::to_string(dst_addr) +
                       " (stale address?)");
}

AttachmentPtr Fabric::attach(NicPort& port) {
  auto att = AttachmentPtr(new Attachment(simulation(), *this, port));
  att->address_ = next_address_++;
  att->state_ = LinkState::kPolling;
  att->activation_epoch_ = ++epoch_counter_;
  by_address_[att->address_] = att;
  NM_LOG_DEBUG("net") << spec_.name << ": " << port.name() << " attached, addr "
                      << att->address_ << ", training for " << spec_.linkup_time;
  const auto epoch = att->activation_epoch_;
  simulation().post(spec_.linkup_time, [att, epoch] {
    // Ignore if the attachment was detached (and possibly re-attached)
    // while training.
    if (att->activation_epoch_ == epoch && att->state_ == LinkState::kPolling) {
      att->state_ = LinkState::kActive;
      att->active_gate_.open();
    }
  });
  return att;
}

void Fabric::detach(const AttachmentPtr& att) {
  NM_CHECK(att != nullptr, "detach(nullptr)");
  NM_CHECK(att->fabric_ == this, "attachment belongs to fabric " << att->fabric_->name());
  if (att->state_ == LinkState::kDown) {
    return;
  }
  by_address_.erase(att->address_);
  att->state_ = LinkState::kDown;
  att->active_gate_.close();
  ++epoch_counter_;
  att->activation_epoch_ = epoch_counter_;  // invalidate pending training
  if (!spec_.stable_addresses) {
    att->address_ = kInvalidAddress;
  }
  NM_LOG_DEBUG("net") << spec_.name << ": " << att->port_->name() << " detached";
}

void Fabric::rebind(const AttachmentPtr& att, NicPort& new_port) {
  NM_CHECK(att != nullptr, "rebind(nullptr)");
  NM_CHECK(att->fabric_ == this, "attachment belongs to fabric " << att->fabric_->name());
  NM_CHECK(spec_.stable_addresses,
           spec_.name << " does not support rebinding (addresses are not stable)");
  att->port_ = &new_port;
  if (att->state_ == LinkState::kDown) {
    // Re-joining the fabric under the same address.
    att->state_ = LinkState::kPolling;
    att->activation_epoch_ = ++epoch_counter_;
    if (att->address_ == kInvalidAddress) {
      att->address_ = next_address_++;
    }
    by_address_[att->address_] = att;
    const auto epoch = att->activation_epoch_;
    simulation().post(spec_.linkup_time, [att, epoch] {
      if (att->activation_epoch_ == epoch && att->state_ == LinkState::kPolling) {
        att->state_ = LinkState::kActive;
        att->active_gate_.open();
      }
    });
  }
  NM_LOG_DEBUG("net") << spec_.name << ": addr " << att->address_ << " rebound to "
                      << new_port.name();
}

AttachmentPtr Fabric::find(FabricAddress addr) const {
  auto it = by_address_.find(addr);
  if (it == by_address_.end()) {
    return nullptr;
  }
  return it->second.lock();
}

sim::Task Fabric::transfer(AttachmentPtr src, FabricAddress dst_addr, Bytes bytes,
                           TransferOptions opts) {
  NM_CHECK(src != nullptr, "transfer from null attachment");
  if (src->state_ != LinkState::kActive) {
    throw OperationError(spec_.name + ": source link " + src->port_->name() +
                         " is not active (state " + std::string(to_string(src->state_)) + ")");
  }
  AttachmentPtr dst = find(dst_addr);
  // Cross-site destination: ride each hop's uplink and WAN endpoint pair.
  // The hop list is copied before any suspension so a concurrent re-route
  // (add_route replacing the table after a partition) cannot invalidate it
  // mid-transfer.
  std::vector<WanHop> hops;
  if (dst == nullptr) {
    auto [remote, route] = find_remote(dst_addr);
    if (remote != nullptr) {
      dst = std::move(remote);
      hops = route->hops;
    }
  }
  if (dst == nullptr) {
    throw OperationError(spec_.name + ": no attachment at address " +
                         std::to_string(dst_addr) + " (stale address?)");
  }
  if (dst->state_ != LinkState::kActive) {
    throw OperationError(spec_.name + ": destination link " + dst->port_->name() +
                         " is not active");
  }

  // Propagation/switching latency, then the bandwidth phase. A cross-site
  // path additionally pays each crossed WAN's one-way propagation and each
  // transited site's switching latency.
  Duration lat = spec_.latency;
  for (const WanHop& hop : hops) {
    lat += hop.wan->one_way_latency() + hop.to->spec_.latency;
  }
  co_await simulation().delay(lat);

  if (bytes.is_zero()) {
    co_return;
  }
  std::vector<sim::ResourceShare> shares;
  shares.push_back({&src->port_->tx(), 1.0});
  // Intra-site topology: the source fabric contributes the up-segment (or
  // the full leaf-to-leaf path for a local destination); a cross-site
  // transfer additionally crosses the landing fabric's down-segment to the
  // destination leaf. Transit sites are crossed gateway-to-gateway at the
  // top tier, so they contribute nothing.
  if (topology_ != nullptr) {
    const int src_leaf = topology_->leaf_of(*src->port_);
    const int dst_leaf =
        hops.empty() ? topology_->leaf_of(*dst->port_) : net::ClosFabric::kSpineAttach;
    topology_->append_shares(topology_->pick_path(src_leaf, dst_leaf), shares);
  }
  if (!hops.empty() && hops.back().to->topology_ != nullptr) {
    ClosFabric& landing = *hops.back().to->topology_;
    landing.append_shares(
        landing.pick_path(net::ClosFabric::kSpineAttach, landing.leaf_of(*dst->port_)), shares);
  }
  std::vector<sim::WanLink*> links;
  for (const WanHop& hop : hops) {
    // Both WAN endpoints are crossed (shared medium, weight 1 = wire
    // bytes); the link's Mathis ceiling caps the flow itself.
    links.push_back(hop.wan);
    shares.push_back({&hop.egress->tx(), 1.0});
    shares.push_back({&hop.wan->a(), 1.0});
    shares.push_back({&hop.wan->b(), 1.0});
    shares.push_back({&hop.ingress->rx(), 1.0});
  }
  shares.push_back({&dst->port_->rx(), 1.0});
  if (opts.src_cpu_per_byte > 0.0) {
    shares.push_back({&src->port_->node().cpu(), opts.src_cpu_per_byte});
  }
  if (opts.dst_cpu_per_byte > 0.0) {
    shares.push_back({&dst->port_->node().cpu(), opts.dst_cpu_per_byte});
  }
  for (const auto& extra : opts.extras) {
    shares.push_back(extra);
  }
  for (const auto& rx_extra : dst->rx_shares_) {
    shares.push_back(rx_extra);
  }
  // Named spec, not a temporary: see the FlowLabel comment in fluid.h —
  // GCC 12 miscompiles FlowSpec temporaries that live across a co_await.
  sim::FlowSpec spec{.work = static_cast<double>(bytes.count()),
                     .shares = std::move(shares),
                     .max_rate = opts.max_rate};
  if (links.empty()) {
    co_await net_->run(std::move(spec));
    co_return;
  }
  const sim::FlowPtr flow = sim::WanLink::start_crossing(*net_, std::move(spec), links);
  if (!flow->finished()) {
    co_await flow->completion().wait();
  }
}

}  // namespace nm::net
