// A calibrated inter-datacenter link: two endpoint resources (one per
// side, both in the domain that holds the sites it joins) whose capacity
// is the line rate scaled by the current congestion factor, plus a
// per-connection Mathis TCP throughput ceiling:
//
//     mathis = MSS / RTT * sqrt(3/2) / sqrt(loss)        [bytes/s]
//
// (Mathis, Semke, Mahdavi, Ott: "The Macroscopic Behavior of the TCP
// Congestion Avoidance Algorithm", CCR 1997.) The line rate is the
// shared-medium sum constraint, carried by the endpoint capacities; the
// Mathis ceiling binds each connection on its own, so it is a per-flow
// rate cap: WanLink::start_crossing admits a flow at min(its own cap, every
// crossed link's Mathis ceiling). Fabric byte streams cross the link with
// weight 1 (one wire byte per byte); a share of weight w moves w wire bytes
// per unit of flow, so the ceiling caps such a flow at mathis / w. With
// zero loss or zero RTT the ceiling is +inf and the link is a plain pair of
// resources — the golden-reference tests depend on that.
//
// A WanLinkConfig::schedule describes time-varying congestion: each phase
// is posted as a simulation event at construction. Applying a phase (or
// inject_phase) republishes both endpoint capacities through
// set_capacity(), which marks the crossing components dirty, and re-caps
// every in-flight crossing flow through Flow::set_max_rate against the new
// RTT — all before any simulated time passes. Phases fire at fixed (time,
// sequence) slots in the event queue, so determinism across solve-worker
// counts is untouched (DESIGN.md §7).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/fluid.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace nm::sim {

/// One step of a WAN link's congestion schedule.
struct WanLinkPhase {
  /// When the phase takes effect, relative to WanLink construction.
  Duration at = Duration::zero();
  /// Fraction of the line rate available from this phase on. 0 partitions
  /// the link (all crossing flows freeze at rate 0 until a later phase
  /// heals it).
  double capacity_factor = 1.0;
  /// RTT in effect from this phase on; zero keeps the previous RTT.
  Duration rtt = Duration::zero();
};

struct WanLinkConfig {
  Bandwidth line_rate = Bandwidth::gbps(1);
  /// Round-trip time. Feeds the Mathis ceiling and the one-way latency a
  /// fabric adds to cross-site transfers; zero disables the ceiling.
  Duration rtt = Duration::zero();
  /// Packet-loss probability in [0, 1); zero disables the Mathis ceiling.
  double loss = 0.0;
  /// Effective segment size for the Mathis ceiling, bytes. Bulk senders on
  /// calibrated WAN paths run segmentation offload, so the loss-recovery
  /// unit is a ~64 KiB burst, not one 1460-byte wire MSS; calibrate this
  /// (together with `loss`) against a measured path.
  double mss_bytes = 65536.0;
  /// Time-varying congestion, ascending by `at`.
  std::vector<WanLinkPhase> schedule;
};

class WanLink final {
 public:
  /// Registers both endpoint resources in `domain`. Schedule phases are
  /// posted on `sim` immediately.
  WanLink(Simulation& sim, FluidScheduler& domain, std::string name, WanLinkConfig config = {});
  WanLink(const WanLink&) = delete;
  WanLink& operator=(const WanLink&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const WanLinkConfig& config() const { return config_; }
  /// The two endpoint resources. Cross-site flows take a weight-1 share on
  /// each (the shared medium, in wire bytes).
  [[nodiscard]] FluidResource& a() { return a_; }
  [[nodiscard]] FluidResource& b() { return b_; }

  /// Congestion state as of the most recently applied schedule phase.
  [[nodiscard]] double current_factor() const { return factor_; }
  [[nodiscard]] Duration current_rtt() const { return rtt_; }
  /// Propagation delay a one-way crossing adds (RTT / 2).
  [[nodiscard]] Duration one_way_latency() const { return rtt_ / 2.0; }

  /// Mathis TCP throughput ceiling for the current RTT/loss, bytes/s
  /// (+inf when either is zero).
  [[nodiscard]] double mathis_rate() const;
  /// What the link can actually carry now: line rate × congestion factor,
  /// min the Mathis ceiling. This is the rate migration estimators should
  /// plan with (Fabric::path_rate reads it).
  [[nodiscard]] double effective_rate() const;
  /// The rate the link would carry at congestion factor 1 (line rate min
  /// Mathis at the current RTT). Planners snapshot this as the edge's
  /// nominal capacity; drivers read effective_rate() live at grant time.
  [[nodiscard]] double nominal_rate() const;
  /// True when the current factor partitions the link.
  [[nodiscard]] bool partitioned() const { return factor_ <= 0.0; }

  /// Applies a congestion change immediately — same semantics as a
  /// schedule phase firing now (failure injectors partition with factor 0
  /// and later heal with factor 1; `rtt` zero keeps the current RTT).
  /// Call from task context only: determinism across worker counts needs
  /// the injection to sit at a fixed (time, sequence) event-queue slot.
  void inject_phase(double capacity_factor, Duration rtt = Duration::zero());

  /// Starts `spec` — which must already carry the endpoint shares of every
  /// link in `links` (LogicError otherwise) — capped at min(spec.max_rate,
  /// each link's Mathis ceiling / the spec's weight on it). Until the flow
  /// finishes, a phase that changes any of these links' RTT re-caps it.
  static FlowPtr start_crossing(FluidNet& net, FlowSpec spec, const std::vector<WanLink*>& links);

 private:
  /// An in-flight flow admitted by start_crossing, shared by every link it
  /// crosses.
  struct Crossing {
    std::weak_ptr<Flow> flow;
    double base_cap = kUncappedRate;
    /// Every crossed link, with the flow's weight on its endpoints.
    std::vector<std::pair<WanLink*, double>> hops;
    /// min(base_cap, every hop's current Mathis ceiling / weight).
    [[nodiscard]] double cap() const;
  };

  void apply_phase(std::size_t index);
  void apply(double capacity_factor, Duration rtt);
  /// Adds `crossing`, first dropping finished crossings once the list has
  /// doubled since the last prune (amortised O(1) per admission).
  void track(const std::shared_ptr<Crossing>& crossing);

  Simulation* sim_;
  std::string name_;
  WanLinkConfig config_;
  double factor_ = 1.0;
  Duration rtt_;
  /// Keeps posted schedule callbacks from touching a destroyed link (the
  /// simulation queue has no cancellation; callbacks hold a weak_ptr).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  FluidResource a_;
  FluidResource b_;
  /// Admission order, so phases re-cap deterministically.
  std::vector<std::shared_ptr<Crossing>> crossings_;
  std::size_t prune_at_ = 64;
};

}  // namespace nm::sim
