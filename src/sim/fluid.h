// Fluid-flow resource model with max-min fair sharing. One mechanism
// models every rate-limited resource in the system:
//   - a node's CPU (capacity = cores; a vCPU flow is capped at 1.0 core),
//   - a NIC's tx/rx bandwidth (capacity = bytes/s),
//   - QEMU's single-threaded migration sender (capacity = its CPU-bound
//     throughput).
// A *flow* progresses at one rate and consumes `rate * weight` from every
// resource it crosses. Weights convert between units: a TCP flow moving R
// bytes/s can cross the host CPU with weight = core-seconds-per-byte, which
// is how protocol-processing cost (virtio/TCP) is charged. The scheduler
// continuously assigns each flow its max-min fair rate and fires a
// completion event when its work is done. CPU over-commit contention
// (Fig 8 "2 hosts (TCP)") and the 1.3 Gb/s migration cap fall out of this.
//
// The solver is *incremental and component-partitioned*: the flow/resource
// bipartite graph is maintained as connected components, and a flow
// start/finish/cap change re-solves only the affected component. Each
// component carries its own next-completion timer, so activity on host A
// never costs O(all flows in the system) — per-event cost is O(component),
// independent of how many other (clean) components exist. See DESIGN.md §5
// "Scheduler incrementality" for the determinism argument.
//
// Resources register in a domain (FluidScheduler) of a FluidNet, and a flow
// crosses resources of exactly one domain, so every coupled set of flows —
// a whole federation included — is solved as one exact max-min problem.
// Domains only split topologies that share no flow (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"
#include "util/error.h"

namespace nm::sim {

class FluidScheduler;
class FluidNet;
class SolvePool;

/// "No rate cap" for a flow.
inline constexpr double kUncappedRate = std::numeric_limits<double>::infinity();

class FluidResource;

/// A capacity-bearing resource. Units are caller-defined (cores, bytes/s).
/// A resource registers with its owning scheduler at construction, which
/// gives it a stable dense index; only flows of that scheduler may cross
/// it.
class FluidResource {
 public:
  FluidResource(FluidScheduler& owner, std::string name, double capacity);
  ~FluidResource();
  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double capacity() const { return capacity_; }
  /// Changing capacity re-balances the flows crossing it (the component is
  /// re-solved before any simulated time passes).
  void set_capacity(double capacity);

  /// Number of flows currently crossing this resource.
  [[nodiscard]] std::size_t active_flows() const { return active_flows_; }

  /// Integrated consumption (resource-unit-seconds, e.g. core-seconds for
  /// a CPU): utilization accounting for experiments like the paper's
  /// "one CPU core is saturated at 100 %" migration observation. A pure
  /// O(1) read: each solve leaves the resource's aggregate consumption
  /// rate (capacity − residual) behind, so reading extrapolates over the
  /// constant-rate window since the last solve — no component is touched,
  /// idle or otherwise, and no simulation state changes.
  [[nodiscard]] double consumed() const;
  /// Mean utilization (fraction of capacity) over [since, until].
  [[nodiscard]] double utilization_over(double consumed_before, Duration window) const;

 private:
  friend class FluidScheduler;
  friend class FluidNet;

  std::string name_;
  double capacity_;
  std::size_t active_flows_ = 0;
  /// Σ weights of the unfinished flows crossing this resource, maintained
  /// incrementally at admission/finish so a solve can seed its weight-sum
  /// row without walking every flow's share list. Guard decisions use the
  /// integer `active_flows_`, never this sum: repeated add/subtract leaves
  /// fp residue behind.
  double active_wsum_ = 0.0;
  /// Consumption integrated up to `rate_since_` (written only at solve
  /// time, per flow-share in component-flow order, so the float summation
  /// order is independent of when readers sample).
  double consumed_ = 0.0;
  /// Aggregate consumption rate (Σ rate × weight over crossing flows) in
  /// effect since `rate_since_`; rates are piecewise constant between
  /// solves, so `consumed() = consumed_ + consume_rate_ × elapsed`.
  double consume_rate_ = 0.0;
  TimePoint rate_since_;
  FluidScheduler* scheduler_ = nullptr;
  /// Stable dense index in the owning scheduler's resource registry
  /// (meaningful while scheduler_ is set).
  std::uint32_t slot_ = 0;
};

/// One resource crossed by a flow, with the flow's consumption weight on it
/// (resource units consumed per unit of flow rate).
struct ResourceShare {
  FluidResource* resource = nullptr;
  double weight = 1.0;
};

/// FlowSpec's diagnostic label. Deliberately NOT a std::string: GCC 12
/// relocates temporaries that live across a co_await suspension point into
/// the coroutine frame bitwise, which corrupts std::string's SSO
/// self-pointer (the relocated copy still points at the old buffer and
/// free()s a frame address on destruction). A FlowSpec temporary inside a
/// `co_await net.run(FlowSpec{...}...)` statement is exactly such a
/// temporary, so every member must tolerate a bitwise move — vectors do
/// (heap pointers only), SSO strings do not. Empty labels (the hot path)
/// never allocate.
class FlowLabel {
 public:
  FlowLabel() = default;
  FlowLabel(const char* s) : chars_(s, s + std::char_traits<char>::length(s)) {}
  FlowLabel(const std::string& s) : chars_(s.begin(), s.end()) {}
  [[nodiscard]] bool empty() const { return chars_.empty(); }
  [[nodiscard]] std::string str() const { return {chars_.begin(), chars_.end()}; }

 private:
  std::vector<char> chars_;
};

/// Everything needed to start a flow, in one aggregate. Build it with
/// designated initializers, or chain `over()` to add weighted shares:
///
///   net.start(FlowSpec{.work = bytes, .name = "tx"}
///                 .over(tx).over(rx).over(cpu, 1e-9));
///
/// FluidNet::start (and its coroutine form FluidNet::run) is the one way
/// to admit a flow.
struct FlowSpec {
  /// Work units to move (bytes, core-seconds, ...). Zero-work flows
  /// complete immediately.
  double work = 0.0;
  /// Resources crossed, with consumption weight per unit of flow rate.
  std::vector<ResourceShare> shares;
  /// Rate cap; kUncappedRate for none.
  double max_rate = kUncappedRate;
  /// Diagnostic label carried by the flow (may be empty).
  FlowLabel name;

  FlowSpec& over(FluidResource& resource, double weight = 1.0) & {
    shares.push_back(ResourceShare{&resource, weight});
    return *this;
  }
  // By value, not FlowSpec&&: the rvalue chain must yield a prvalue so a
  // coroutine parameter initialized from `FlowSpec{...}.over(r)` never
  // binds a reference to the intermediate temporary (GCC 12 relocates such
  // temporaries into the coroutine frame bitwise, which corrupts the SSO
  // string's self-pointer).
  FlowSpec over(FluidResource& resource, double weight = 1.0) && {
    shares.push_back(ResourceShare{&resource, weight});
    return std::move(*this);
  }
};

/// Handle to an in-flight flow. Shared so both the issuing task and
/// modelling code (e.g. "pause the VM") can reach it.
class alignas(64) Flow {
 public:
  /// Pure read of committed state, like FluidResource::consumed(): a flow
  /// becomes finished when the end-of-instant settle commits its
  /// completion, never earlier in the instant. A zero-work flow is
  /// finished from admission on.
  [[nodiscard]] bool finished() const { return finished_; }
  /// Residual work and current rate as of the last solve. When any
  /// component of the flow's net is dirty, they first run the same
  /// SolvePool settle the end-of-instant hook runs, so they never observe
  /// rates the settle would still move. Read only by tests and tools.
  [[nodiscard]] double remaining() const;
  [[nodiscard]] double current_rate() const;
  [[nodiscard]] Event& completion() { return done_; }
  /// Diagnostic label from the FlowSpec (may be empty).
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Caps this flow's rate; 0 pauses it (e.g. its VM was paused). While the
  /// flow is suspended the new cap is stored and applied on resume() — it
  /// neither un-pauses the flow nor is clobbered by the pre-suspend cap.
  void set_max_rate(double max_rate);
  [[nodiscard]] double max_rate() const { return max_rate_; }
  [[nodiscard]] const std::vector<ResourceShare>& shares() const { return shares_; }

  /// Pause/resume preserving the original rate cap. Used when a VM is
  /// paused: all its flows stall without forgetting their caps.
  void suspend();
  void resume();
  [[nodiscard]] bool suspended() const { return suspended_; }

 private:
  friend class FluidScheduler;
  Flow(Simulation& sim, double work, std::vector<ResourceShare> shares, double max_rate,
       std::string name)
      : remaining_(work),
        max_rate_(max_rate),
        shares_(std::move(shares)),
        name_(std::move(name)),
        done_(sim) {
    w0_ = shares_.empty() ? 0.0 : shares_.front().weight;
  }

  static constexpr std::uint32_t kNoIndex = 0xffffffffU;

  // Solver-hot fields first: the class is 64-byte aligned so everything the
  // per-solve passes touch (integration, completion test, cap gathering,
  // water-level freezing) lands on one cache line per flow.
  double remaining_;
  double rate_ = 0.0;
  double max_rate_;
  TimePoint last_update_;
  /// Cached shares_.front().weight (shares are immutable after admission):
  /// lets the single-resource water-fill fast path skip the shares_ deref.
  double w0_ = 0.0;
  /// Connected component this flow belongs to, and its positions in the
  /// component's flow list and the scheduler's global flow list.
  std::uint32_t comp_ = kNoIndex;
  std::uint32_t comp_index_ = kNoIndex;
  std::uint32_t global_index_ = kNoIndex;
  bool suspended_ = false;
  bool finished_ = false;
  // Cold fields (admission-time or rare-path only) below.
  double saved_max_rate_ = 0.0;
  std::vector<ResourceShare> shares_;
  std::string name_;
  Event done_;  // inline member: Flow is heap-pinned, so the address is stable
  FluidScheduler* scheduler_ = nullptr;
  /// Admission order, scheduler-wide. Component flow lists are kept in this
  /// order (canonicalized on rebuild) so progressive filling sums floats in
  /// the same order the seed's global solver did.
  std::uint64_t seq_ = 0;
};

using FlowPtr = std::shared_ptr<Flow>;

/// A topology shard: one independently-solved fluid domain over the shared
/// simulation clock. Only FluidNet::add_domain creates one, attached to the
/// net's SolvePool, which settles every domain of the net. A flow's
/// resources all belong to one domain (FluidNet::start rejects a spec that
/// spans two), so rates in one domain never depend on another domain's
/// state; every domain's timers drain through the one simulation's (time,
/// sequence) event queue, so the merged timeline is bit-identical for every
/// partition that follows the modelled topology's connectivity. Anything
/// coupled — a federation's sites and WAN links included — lives in one
/// domain and is solved exactly as one max-min problem (DESIGN.md §6).
/// Resources of distinct domains may be constructed from distinct threads
/// (each touches only its own domain's registry; the shared Simulation
/// takes no posts) — see bench_scalability and sim_sharding_test.
class FluidScheduler {
 public:
  ~FluidScheduler();
  FluidScheduler(const FluidScheduler&) = delete;
  FluidScheduler& operator=(const FluidScheduler&) = delete;

  [[nodiscard]] Simulation& simulation() { return *sim_; }
  /// The net this domain belongs to: the one place its flows start.
  [[nodiscard]] FluidNet& net() { return *net_; }
  /// The domain name given to FluidNet::add_domain.
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::size_t active_flow_count() const { return flows_.size(); }
  /// Number of connected flow/resource components currently tracked.
  [[nodiscard]] std::size_t component_count() const;

 private:
  friend class Flow;
  friend class FluidResource;
  friend class FluidNet;
  friend class SolvePool;

  static constexpr std::uint32_t kNone = 0xffffffffU;

  /// Attaches the new domain to `net`'s pool (and its simulation); attach
  /// order is the domain's canonical id.
  FluidScheduler(FluidNet& net, std::string name);

  /// Admits a flow over resources all owned by this domain (FluidNet::start
  /// routes here). A zero-work flow completes immediately. Every resource
  /// must outlive the flow.
  FlowPtr start(FlowSpec spec);

  /// A connected component of the flow/resource bipartite graph: the unit
  /// of incremental re-solving. `gen` invalidates its outstanding
  /// next-completion timer; it changes on every solve/merge/rebuild.
  struct Component {
    std::uint32_t id = kNone;
    std::uint32_t gen = 0;
    bool dirty = false;
    std::vector<Flow*> flows;
    std::vector<std::uint32_t> res_slots;
    /// Instant the component was last solved or integrated to. Every member
    /// flow with a nonzero rate shares it as `last_update_` (flows admitted
    /// later carry rate 0 until their first solve), so the solver hoists
    /// one uniform elapsed window instead of differencing per flow.
    /// merge_into integrates both sides first to keep the invariant.
    TimePoint last_solved;
  };

  /// Scratch for the pure compute phase of a solve, owned per SolvePool
  /// thread (each worker plus the simulation thread). Rows are
  /// slot-indexed into the owning scheduler's resource registry and
  /// initialized per component before use, so one scratch can serve
  /// components from any scheduler — it only ever needs to be grown, never
  /// cleared.
  struct SolveScratch {
    // Slot-indexed rows, addressed through comp.res_slots[local].
    std::vector<double> res_residual;
    std::vector<double> res_wsum;
    std::vector<std::uint32_t> res_unfrozen;
    std::vector<std::uint8_t> res_binding;
    /// Dense frozen flags; index = local flow index (position in
    /// Component::flows, admission order). Caps and residual work are read
    /// off the (cache-line-packed) Flow itself.
    std::vector<std::uint8_t> f_frozen;
    /// Local indices of resources that still carry unfrozen flows,
    /// compacted as rounds freeze them out.
    std::vector<std::uint32_t> r_live;
    /// Min-heap of (rate cap, local flow index): the "partial sort" —
    /// only the next cap band is ever in order, frozen entries are dropped
    /// lazily at pop. The pair compare breaks cap ties by admission index.
    std::vector<std::pair<double, std::uint32_t>> cap_heap;
    /// Flows freezing in the current round, restored to admission order
    /// before their subtractive updates run.
    std::vector<std::uint32_t> freeze_batch;
  };

  /// Everything a compute phase hands to the serial commit phase: the flows
  /// that completed (strong refs, in component order) and the earliest
  /// time-to-completion among the survivors.
  struct SolveResult {
    std::vector<FlowPtr> finished;
    double next_completion_s = std::numeric_limits<double>::infinity();
  };

  void register_resource(FluidResource& res);
  void unregister_resource(FluidResource& res);

  Component* component_of_flow(const Flow& flow) {
    return flow.comp_ == kNone ? nullptr : comps_[flow.comp_].get();
  }
  Component* component_of_slot(std::uint32_t slot) {
    const auto id = slot_comp_[slot];
    return id == kNone ? nullptr : comps_[id].get();
  }

  Component& make_component();
  /// Merges `src` into `dst` (flows, resources, dirtiness) and retires it.
  void merge_into(Component& dst, Component& src);
  void mark_dirty(Component& comp);
  /// Runs the pool's settle now when any domain of the net is dirty (the
  /// remaining()/current_rate() entry point).
  void settle_pending();

  /// The pure compute phase of a solve: integrates progress, detects
  /// completions, compacts the component's flow list, and re-solves rates
  /// and consumption stamps — touching only the component's own flows and
  /// resources plus the caller's scratch, so distinct components (of this
  /// or any other scheduler) can compute concurrently. Posts nothing and
  /// mutates no scheduler-global state; completions and the next timer are
  /// reported through `out` for commit_component.
  void compute_component(Component& comp, SolveScratch& scratch, SolveResult& out);
  /// Water-level filling over the dense arrays prepared by
  /// compute_component: alternates cap-band rounds (heap pops) and
  /// binding-resource rounds (transpose-list freezes). Returns the earliest
  /// time-to-completion in seconds (+inf if nothing progresses).
  double water_fill(Component& comp, SolveScratch& scratch);
  /// Multi-line diagnostic dump of a component's resources (capacity,
  /// active flow counts) and flows (demand, caps, shares)
  /// for solver no-progress failures. Cold path only.
  [[nodiscard]] std::string describe_component(const Component& comp) const;
  /// The serial commit phase: retires finished flows from the global list,
  /// arms the component's next-completion timer (or dissolves an emptied
  /// component), then fires completion events. Callers running computes in
  /// parallel must invoke commits one at a time, in canonical (domain id,
  /// component id) order, so every post into the shared Simulation queue
  /// draws the same sequence numbers as the single-threaded schedule.
  void commit_component(Component& comp, SolveResult& out);
  /// Advances progress/consumption at current rates; no completions.
  void integrate_component(Component& comp);
  void arm_timer(Component& comp, double next_completion_s);
  void on_timer(std::uint64_t key);

  /// Flow-retire bookkeeping; components over-approximate connectivity
  /// until enough flows have retired, then are recomputed from scratch
  /// (epoch rebuild) so they can split again.
  void maybe_rebuild();
  void rebuild_components();

  /// Completion bookkeeping confined to the flow's own component/resources
  /// (safe in the parallel compute phase).
  void finish_flow_local(Flow& flow);
  /// Scheduler-global completion bookkeeping (commit phase only).
  void retire_flow_global(Flow& flow);

  Simulation* sim_;
  FluidNet* net_;
  std::string name_;
  std::vector<FlowPtr> flows_;

  // Resource registry: stable dense slots, free-listed on unregister.
  std::vector<FluidResource*> res_slots_;
  std::vector<std::uint32_t> free_res_slots_;
  std::vector<std::uint32_t> slot_comp_;

  // Component registry.
  std::vector<std::unique_ptr<Component>> comps_;
  std::vector<std::uint32_t> free_comp_ids_;
  std::size_t live_comp_count_ = 0;

  // Deferred settling: mutations and completion timers mark components
  // dirty and notify the pool, whose end-of-instant settle hook re-solves
  // every component dirtied at one simulated instant once, in canonical
  // (domain id, component id) order, before the clock advances.
  std::vector<std::uint32_t> dirty_comps_;
  SolvePool* pool_;
  std::uint32_t pool_domain_;      // attach order = canonical domain id
  bool pool_dirty_ = false;        // this scheduler has unsettled components

  std::size_t retired_since_rebuild_ = 0;
  std::uint32_t next_gen_ = 0;
  std::uint64_t next_flow_seq_ = 0;
};

}  // namespace nm::sim
