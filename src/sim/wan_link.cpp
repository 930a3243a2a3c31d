#include "sim/wan_link.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/fluid_net.h"
#include "util/error.h"

namespace nm::sim {

WanLink::WanLink(Simulation& sim, FluidScheduler& domain, std::string name, WanLinkConfig config)
    : sim_(&sim),
      name_(std::move(name)),
      config_(std::move(config)),
      rtt_(config_.rtt),
      a_(domain, "wan:" + name_ + ":a", config_.line_rate.bytes_per_second()),
      b_(domain, "wan:" + name_ + ":b", config_.line_rate.bytes_per_second()) {
  NM_CHECK(config_.loss >= 0.0 && config_.loss < 1.0,
           "WAN link " << name_ << " loss " << config_.loss << " outside [0, 1)");
  NM_CHECK(config_.mss_bytes > 0.0, "WAN link " << name_ << " needs a positive MSS");
  NM_CHECK(!config_.rtt.is_negative(), "WAN link " << name_ << " has a negative RTT");

  Duration prev = Duration::zero();
  for (std::size_t i = 0; i < config_.schedule.size(); ++i) {
    const WanLinkPhase& phase = config_.schedule[i];
    NM_CHECK(phase.at >= prev, "WAN link " << name_ << " schedule must be time-ordered");
    NM_CHECK(phase.capacity_factor >= 0.0,
             "WAN link " << name_ << " phase has a negative capacity factor");
    NM_CHECK(!phase.rtt.is_negative(), "WAN link " << name_ << " phase has a negative RTT");
    prev = phase.at;
    if (phase.at.is_zero()) {
      apply_phase(i);
    } else {
      sim_->post(phase.at, [this, i, alive = std::weak_ptr<bool>(alive_)] {
        if (alive.lock() != nullptr) {
          apply_phase(i);
        }
      });
    }
  }
}

double WanLink::mathis_rate() const {
  if (config_.loss <= 0.0 || rtt_.is_zero()) {
    return std::numeric_limits<double>::infinity();
  }
  return config_.mss_bytes * std::sqrt(1.5 / config_.loss) / rtt_.to_seconds();
}

double WanLink::effective_rate() const {
  return std::min(config_.line_rate.bytes_per_second() * factor_, mathis_rate());
}

double WanLink::nominal_rate() const {
  return std::min(config_.line_rate.bytes_per_second(), mathis_rate());
}

void WanLink::inject_phase(double capacity_factor, Duration rtt) {
  NM_CHECK(capacity_factor >= 0.0,
           "WAN link " << name_ << " injected a negative capacity factor");
  NM_CHECK(!rtt.is_negative(), "WAN link " << name_ << " injected a negative RTT");
  apply(capacity_factor, rtt);
}

double WanLink::Crossing::cap() const {
  double cap = base_cap;
  for (const auto& [link, weight] : hops) {
    cap = std::min(cap, link->mathis_rate() / weight);
  }
  return cap;
}

FlowPtr WanLink::start_crossing(FluidNet& net, FlowSpec spec, const std::vector<WanLink*>& links) {
  auto crossing = std::make_shared<Crossing>();
  crossing->base_cap = spec.max_rate;
  for (WanLink* link : links) {
    const auto share =
        std::find_if(spec.shares.begin(), spec.shares.end(),
                     [link](const ResourceShare& s) { return s.resource == &link->a_; });
    NM_CHECK(share != spec.shares.end(), "flow does not cross WAN link " << link->name_);
    crossing->hops.emplace_back(link, share->weight);
  }
  spec.max_rate = crossing->cap();
  FlowPtr flow = net.start(std::move(spec));
  if (!flow->finished()) {
    crossing->flow = flow;
    for (const auto& hop : crossing->hops) {
      hop.first->track(crossing);
    }
  }
  return flow;
}

void WanLink::track(const std::shared_ptr<Crossing>& crossing) {
  if (crossings_.size() >= prune_at_) {
    std::erase_if(crossings_, [](const std::shared_ptr<Crossing>& c) {
      const FlowPtr flow = c->flow.lock();
      return flow == nullptr || flow->finished();
    });
    prune_at_ = std::max<std::size_t>(64, 2 * crossings_.size());
  }
  crossings_.push_back(crossing);
}

void WanLink::apply_phase(std::size_t index) {
  const WanLinkPhase& phase = config_.schedule[index];
  apply(phase.capacity_factor, phase.rtt);
}

void WanLink::apply(double capacity_factor, Duration rtt) {
  factor_ = capacity_factor;
  const bool rtt_moved = !rtt.is_zero() && rtt != rtt_;
  if (!rtt.is_zero()) {
    rtt_ = rtt;
  }
  const double cap = config_.line_rate.bytes_per_second() * factor_;
  a_.set_capacity(cap);
  b_.set_capacity(cap);
  if (rtt_moved) {
    // The Mathis ceiling moved with the RTT: re-cap every crossing flow
    // still in flight (set_max_rate marks its component dirty, so the
    // settle at this instant re-solves it before any simulated time
    // passes).
    for (const auto& crossing : crossings_) {
      if (const FlowPtr flow = crossing->flow.lock(); flow != nullptr && !flow->finished()) {
        flow->set_max_rate(crossing->cap());
      }
    }
  }
}

}  // namespace nm::sim
