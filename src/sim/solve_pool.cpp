#include "sim/solve_pool.h"

#include <algorithm>

#include "sim/fluid_net.h"
#include "util/error.h"

namespace nm::sim {

SolvePool::SolvePool(FluidNet& net, int workers) : net_(&net), sim_(&net.simulation()) {
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
  // components). Component ids
  // are unique within a dirty list (the flag dedups marks) and ascending
  // within it is not guaranteed, so sort below.
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
  // Dirty lists are appended in mark order, which is ascending in the
  // common single-instant case — checking beats unconditionally sorting.
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), canonical)) {
    std::sort(tasks_.begin(), tasks_.end(), canonical);
  }

  ++settles_;
  solved_comps_ += tasks_.size();
  max_batch_ = std::max(max_batch_, tasks_.size());
  if (tasks_.size() > 1 && !workers_.empty()) {
    ++parallel_settles_;
  }

  // Phase 1: compute. Round 0 solves every collected component; while the
  // net has live boundary flows, further rounds
  // alternate a serial exchange (publish boundary rates, refresh ghost
  // caps) with a recompute of whatever the exchange moved, until the
  // coupled rates reach a fixed point. Nothing is committed until every
  // round is done, so the event queue sees no posts mid-iteration.
  pending_.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    pending_[i] = i;
  }
  if (net_->boundary_flow_count() == 0) {
    compute_pending();
  } else {
    std::size_t rounds = 0;
    while (true) {
      compute_pending();
      ++rounds;
      // Bank completions: a later recompute of the same component clears
      // result.finished, so move them aside in canonical round order.
      for (const auto i : pending_) {
        auto& task = tasks_[i];
        for (auto& flow : task.result.finished) {
          task.finished_acc.push_back(std::move(flow));
        }
        task.result.finished.clear();
      }
      // The cap breaks *after* a full compute: every component the last
      // exchange re-dirtied has been re-solved (its dirty flag cleared),
      // so the commit below strands nothing.
      if (rounds >= kMaxExchangeRounds) {
        ++unconverged_exchanges_;
        break;
      }
      dirtied_.clear();
      net_->exchange(dirtied_);
      if (dirtied_.empty()) {
        break;  // fixed point
      }
      // Map the re-dirtied components onto tasks, appending entries for
      // components first touched by the exchange (e.g. a ghost's foreign
      // component that was clean when the batch was collected).
      pending_.clear();
      for (const auto& [sched, comp_id] : dirtied_) {
        std::size_t idx = tasks_.size();
        for (std::size_t t = 0; t < tasks_.size(); ++t) {
          if (tasks_[t].sched == sched && tasks_[t].comp->id == comp_id) {
            idx = t;
            break;
          }
        }
        if (idx == tasks_.size()) {
          auto* comp = comp_id < sched->comps_.size() ? sched->comps_[comp_id].get() : nullptr;
          NM_CHECK(comp != nullptr, "exchange dirtied a retired component");
          TaskEntry entry;
          entry.sched = sched;
          entry.comp = comp;
          entry.domain = sched->pool_domain_;
          tasks_.push_back(std::move(entry));
        }
        if (std::find(pending_.begin(), pending_.end(), idx) == pending_.end()) {
          pending_.push_back(idx);
        }
      }
      const auto pending_canonical = [this](std::size_t a, std::size_t b) {
        const TaskEntry& ta = tasks_[a];
        const TaskEntry& tb = tasks_[b];
        return ta.domain != tb.domain ? ta.domain < tb.domain : ta.comp->id < tb.comp->id;
      };
      if (!std::is_sorted(pending_.begin(), pending_.end(), pending_canonical)) {
        std::sort(pending_.begin(), pending_.end(), pending_canonical);
      }
      solved_comps_ += pending_.size();
    }
    exchange_rounds_ += rounds;
    last_settle_rounds_ = rounds;
    max_settle_rounds_ = std::max(max_settle_rounds_, rounds);
    // Exchange-appended tasks arrived out of canonical order; restore it
    // for the commit, then hand each task its banked completions.
    if (!std::is_sorted(tasks_.begin(), tasks_.end(), canonical)) {
      std::sort(tasks_.begin(), tasks_.end(), canonical);
    }
    for (auto& task : tasks_) {
      task.result.finished = std::move(task.finished_acc);
      task.finished_acc.clear();
    }
  }

  // Phase 2 (serial): commit in canonical order. This is the only phase
  // that posts timers or fires events, so the sequence numbers drawn from
  // the shared queue are independent of how phase 1 interleaved (and, in
  // exchange mode, of how many rounds it took to converge).
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

void SolvePool::compute_pending() {
  // Single-task rounds (the common case for small episodes) and 0-worker
  // pools skip the handoff entirely; otherwise the simulation thread
  // steals alongside the workers (scratch slot workers_.size() is reserved
  // for it). Threads claim kClaimChunk pending indices per mutex
  // round-trip — the compute itself runs unlocked, and the lock gives
  // every thread a consistent view of the round (no stale-epoch stealing)
  // plus the happens-before edge the commit phase needs.
  if (pending_.size() == 1 || workers_.empty()) {
    for (const auto idx : pending_) {
      run_compute(idx, workers_.size());
    }
  } else {
    std::unique_lock<std::mutex> lk(mutex_);
    round_count_ = pending_.size();
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
        run_compute(pending_[i], workers_.size());
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
  for (const auto idx : pending_) {
    if (tasks_[idx].error) {
      std::rethrow_exception(tasks_[idx].error);
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
        run_compute(pending_[i], worker_index);
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
