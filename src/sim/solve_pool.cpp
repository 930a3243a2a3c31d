#include "sim/solve_pool.h"

#include <algorithm>

#include "sim/fluid_net.h"
#include "util/error.h"

namespace nm::sim {

SolvePool::SolvePool(FluidNet& net, int workers) : sim_(&net.simulation()) {
  NM_CHECK(workers >= 0, "negative SolvePool worker count");
  scratch_.resize(static_cast<std::size_t>(workers) + 1);  // + the sim thread
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
  hook_id_ = sim_->add_settle_hook([this] { settle(); });
}

SolvePool::~SolvePool() {
  sim_->remove_settle_hook(hook_id_);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
}

bool SolvePool::any_dirty() const {
  for (const auto* sched : attached_) {
    if (sched->pool_dirty_) {
      return true;
    }
  }
  return false;
}

void SolvePool::notify_dirty(FluidScheduler& scheduler) {
  scheduler.pool_dirty_ = true;
  sim_->request_settle();
}

void SolvePool::settle() {
  // Phase 0 (serial): collect the batch in canonical order. Schedulers are
  // walked in attach (= domain id) order and their dirty lists re-checked
  // against the authoritative per-component flag (merges retire
  // components). A dirty list is appended in mark order, and it can name
  // one id twice: a dirty component merged away frees its id, and a
  // component created later in the same instant may reuse it. So sort,
  // then drop the duplicates — computing one component twice would race
  // with workers and re-arm its timer twice.
  tasks_.clear();
  for (std::uint32_t domain = 0; domain < attached_.size(); ++domain) {
    FluidScheduler* sched = attached_[domain];
    if (!sched->pool_dirty_) {
      continue;
    }
    sched->pool_dirty_ = false;
    for (const auto id : sched->dirty_comps_) {
      auto* comp = id < sched->comps_.size() ? sched->comps_[id].get() : nullptr;
      if (comp != nullptr && comp->dirty) {
        TaskEntry entry;
        entry.sched = sched;
        entry.comp = comp;
        entry.domain = domain;
        tasks_.push_back(std::move(entry));
      }
    }
    sched->dirty_comps_.clear();
  }
  if (tasks_.empty()) {
    return;
  }
  const auto canonical = [](const TaskEntry& a, const TaskEntry& b) {
    return a.domain != b.domain ? a.domain < b.domain : a.comp->id < b.comp->id;
  };
  // Mark order is ascending in the common single-instant case — checking
  // beats unconditionally sorting. Equal entries end up adjacent either way.
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), canonical)) {
    std::sort(tasks_.begin(), tasks_.end(), canonical);
  }
  tasks_.erase(std::unique(tasks_.begin(), tasks_.end(),
                           [](const TaskEntry& a, const TaskEntry& b) { return a.comp == b.comp; }),
               tasks_.end());

  ++settles_;
  solved_comps_ += tasks_.size();
  max_batch_ = std::max(max_batch_, tasks_.size());
  if (tasks_.size() > 1 && !workers_.empty()) {
    ++parallel_settles_;
  }

  // Phase 1: compute every collected component. Nothing is committed until
  // every compute is done, so the event queue sees no posts mid-batch.
  compute_batch();

  // Phase 2 (serial): commit in canonical order. This is the only phase
  // that posts timers or fires events, so the sequence numbers drawn from
  // the shared queue are independent of how phase 1 interleaved.
  for (auto& task : tasks_) {
    task.sched->commit_component(*task.comp, task.result);
  }
  // Per-scheduler epilogue (epoch rebuilds), still in domain order.
  FluidScheduler* last = nullptr;
  for (auto& task : tasks_) {
    if (task.sched != last) {
      last = task.sched;
      task.sched->maybe_rebuild();
    }
  }
  tasks_.clear();
}

void SolvePool::compute_batch() {
  // Single-task batches (the common case for small episodes) and 0-worker
  // pools skip the handoff entirely; otherwise the simulation thread
  // steals alongside the workers (scratch slot workers_.size() is reserved
  // for it). Threads claim kClaimChunk task indices per mutex
  // round-trip — the compute itself runs unlocked, and the lock gives
  // every thread a consistent view of the round (no stale-epoch stealing)
  // plus the happens-before edge the commit phase needs.
  if (tasks_.size() == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      run_compute(i, workers_.size());
    }
  } else {
    std::unique_lock<std::mutex> lk(mutex_);
    round_count_ = tasks_.size();
    next_claim_ = 0;
    done_tasks_ = 0;
    ++epoch_;
    work_cv_.notify_all();
    while (next_claim_ < round_count_) {
      const std::size_t begin = next_claim_;
      const std::size_t end = std::min(begin + kClaimChunk, round_count_);
      next_claim_ = end;
      lk.unlock();
      for (std::size_t i = begin; i < end; ++i) {
        run_compute(i, workers_.size());
      }
      lk.lock();
      done_tasks_ += end - begin;
    }
    done_cv_.wait(lk, [this] { return done_tasks_ == round_count_; });
    round_count_ = 0;
    next_claim_ = 0;
  }
  // Surface the first compute error in canonical order (nothing has been
  // committed yet, so the failure point is deterministic).
  for (const auto& task : tasks_) {
    if (task.error) {
      std::rethrow_exception(task.error);
    }
  }
}

void SolvePool::run_compute(std::size_t task_index, std::size_t scratch_index) {
  TaskEntry& task = tasks_[task_index];
  try {
    task.sched->compute_component(*task.comp, scratch_[scratch_index], task.result);
  } catch (...) {
    task.error = std::current_exception();
  }
}

void SolvePool::worker_main(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mutex_);
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) {
      return;
    }
    seen_epoch = epoch_;
    while (next_claim_ < round_count_) {
      const std::size_t begin = next_claim_;
      const std::size_t end = std::min(begin + kClaimChunk, round_count_);
      next_claim_ = end;
      lk.unlock();
      for (std::size_t i = begin; i < end; ++i) {
        run_compute(i, worker_index);
      }
      lk.lock();
      done_tasks_ += end - begin;
      if (done_tasks_ == round_count_) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace nm::sim
