// A persistent worker pool that parallelizes the fluid solve across dirty
// components at each settle point, without perturbing the deterministic
// event schedule.
//
// How it keeps the timeline bit-identical to the single-threaded run:
//   1. Every scheduler (a FluidNet domain, attached at construction) routes
//      mark_dirty (and completion-timer firings) to the pool, which arms
//      its kernel settle hook. The hook runs at the end of the simulated
//      instant, so every component dirtied at that instant — across all
//      domains — is collected into one batch. This settle is the only code
//      that solves a component: Flow::remaining()/current_rate() run the
//      same settle early when something is dirty, and Flow::finished() is a
//      pure read.
//   2. The batch is sorted by (domain id, component id) — a canonical
//      order independent of mark order and of worker count — and
//      deduplicated, so no component is computed twice.
//   3. Workers (plus the simulation thread) run only the *pure compute*
//      phase (FluidScheduler::compute_component): each task touches its own
//      component's flows/resources and a per-worker scratch, nothing else.
//   4. After a barrier, the simulation thread runs every *commit* phase
//      serially in the canonical order. Commits are the only place timer
//      posts and completion events enter the shared Simulation queue, so
//      they draw exactly the sequence numbers the serial schedule would.
// A flow never spans domains, so one compute round settles every batch
// exactly. See DESIGN.md §5 "Parallel dirty-domain solving".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/fluid.h"
#include "sim/simulation.h"

namespace nm::sim {

class SolvePool {
 public:
  /// Spawns `workers` persistent threads (>= 0; with 0 the simulation
  /// thread computes every batch itself — the pool then only provides the
  /// settle-hook batching) and registers the settle hook with `net`'s
  /// simulation. Only `net` creates its pool; its schedulers attach
  /// themselves at construction (see FluidNet::add_domain). The pool must
  /// outlive every one of them and be destroyed before the simulation.
  SolvePool(FluidNet& net, int workers);
  ~SolvePool();
  SolvePool(const SolvePool&) = delete;
  SolvePool& operator=(const SolvePool&) = delete;

  /// True when any attached scheduler has components waiting for the next
  /// settle point. Readers use it to decide whether a settle must run
  /// before rates can be observed.
  [[nodiscard]] bool any_dirty() const;

  [[nodiscard]] int worker_count() const { return static_cast<int>(workers_.size()); }
  /// Settle points executed so far, and how many of them had 2+ components
  /// to solve (the ones where parallelism could help).
  [[nodiscard]] std::size_t settle_count() const { return settles_; }
  [[nodiscard]] std::size_t parallel_settle_count() const { return parallel_settles_; }
  [[nodiscard]] std::size_t solved_component_count() const { return solved_comps_; }
  [[nodiscard]] std::size_t max_batch_size() const { return max_batch_; }
  /// Always 0: there is no boundary exchange any more. Kept only for
  /// perfbench's sim.exchange.* metrics; the next perfbench change removes
  /// them.
  [[nodiscard]] std::size_t exchange_round_count() const { return 0; }
  [[nodiscard]] std::size_t unconverged_exchange_count() const { return 0; }
  [[nodiscard]] std::size_t max_exchange_rounds_per_settle() const { return 0; }

 private:
  friend class FluidScheduler;

  /// Indices a thread claims per mutex round-trip: batches of tiny
  /// singleton components stop paying one lock handoff each.
  static constexpr std::size_t kClaimChunk = 4;

  struct TaskEntry {
    FluidScheduler* sched = nullptr;
    FluidScheduler::Component* comp = nullptr;
    std::uint32_t domain = 0;
    FluidScheduler::SolveResult result;
    std::exception_ptr error;
  };

  /// Called by an attached scheduler on every dirty mark; arms the kernel
  /// settle hook for the current instant.
  void notify_dirty(FluidScheduler& scheduler);
  /// The settle hook body: collect → parallel compute → serial commit in
  /// canonical order.
  void settle();
  /// Computes every task of the batch (parallel when workers exist and the
  /// batch has 2+ tasks), then rethrows the first compute error in
  /// canonical order.
  void compute_batch();
  void run_compute(std::size_t task_index, std::size_t scratch_index);
  void worker_main(std::size_t worker_index);

  Simulation* sim_;
  std::uint64_t hook_id_ = 0;
  /// Attach-ordered: index = canonical domain id.
  std::vector<FluidScheduler*> attached_;

  // The task batch for the current settle. Published to workers under
  // `mutex_` by bumping `epoch_`; task indices are claimed under the same
  // mutex (the compute runs unlocked), and the `done_tasks_` count both
  // signals completion and gives the commit phase a happens-before edge
  // over every compute phase.
  std::vector<TaskEntry> tasks_;
  std::vector<FluidScheduler::SolveScratch> scratch_;  // workers + sim thread
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t round_count_ = 0;
  std::size_t next_claim_ = 0;
  std::size_t done_tasks_ = 0;
  bool stop_ = false;

  std::size_t settles_ = 0;
  std::size_t parallel_settles_ = 0;
  std::size_t solved_comps_ = 0;
  std::size_t max_batch_ = 0;
};

}  // namespace nm::sim
