#include "sim/simulation.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace nm::sim {

struct TaskRef::State {
  explicit State(Simulation& sim) : done_event(sim) {}
  Event done_event;
  bool finished = false;
};

bool TaskRef::done() const {
  NM_CHECK(state_ != nullptr, "TaskRef is empty");
  return state_->finished;
}

Event& TaskRef::completion() const {
  NM_CHECK(state_ != nullptr, "TaskRef is empty");
  return state_->done_event;
}

struct Simulation::Detached {
  Task::Handle handle;
  std::shared_ptr<TaskRef::State> state;
  std::string name;
};

namespace {
// Initial slab for the queue and callback pool. Sized so short-lived
// micro-episodes (a handful of flows plus their settle timers) never pay
// the cold geometric growths; steady-state behavior is unchanged because
// slots are free-listed and the vectors never shrink.
constexpr std::size_t kInitialSlab = 128;
}  // namespace

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {
  queue_.reserve(kInitialSlab);
  callback_pool_.reserve(kInitialSlab);
  callback_seq_.reserve(kInitialSlab);
  free_callback_slots_.reserve(kInitialSlab);
}

Simulation::~Simulation() {
  // Destroy any still-suspended detached tasks. Their frames may hold
  // awaiter state pointing at sim objects, so drop them before members die.
  for (auto& [id, d] : detached_) {
    if (d->handle) {
      d->handle.destroy();
    }
  }
  detached_.clear();
  drain_destroy_list();
}

PostHandle Simulation::enqueue(TimePoint at, std::coroutine_handle<> h, EventCallback fn) {
  NM_CHECK(at >= now_, "cannot schedule into the past");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = kNoCallback;
  if (fn) {
    if (!free_callback_slots_.empty()) {
      slot = free_callback_slots_.back();
      free_callback_slots_.pop_back();
      callback_pool_[slot] = std::move(fn);
      callback_seq_[slot] = seq;
    } else {
      slot = static_cast<std::uint32_t>(callback_pool_.size());
      callback_pool_.push_back(std::move(fn));
      callback_seq_.push_back(seq);
    }
  }
  const QueueEntry entry{at, seq, h, slot};
  const PostHandle handle{seq, slot};
  // Park far-future entries on the wheel — but only when something earlier
  // is already pending. An entry that would be the heap front is promoted
  // at the very next sync anyway, so parking it is a pure round-trip cost
  // (the common idle-component case: one completion eta, empty heap).
  // Either placement dispatches identically; this is purely a heuristic,
  // and a deterministic one (heap front is part of simulation state).
  if (at.count_nanos() - now_.count_nanos() >= kWheelMinDelayNs && !queue_.empty() &&
      queue_.front().at < at) {
    wheel_insert(entry, now_.count_nanos());
    return handle;
  }
  heap_push(entry);
  return handle;
}

void Simulation::heap_push(const QueueEntry& e) {
  queue_.push_back(e);
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

void Simulation::wheel_insert(const QueueEntry& e, std::int64_t cursor_ns) {
  const std::int64_t delta = e.at.count_nanos() - cursor_ns;
  if (delta < kWheelMinDelayNs) {
    heap_push(e);
    return;
  }
  for (int level = 0; level < kWheelLevels; ++level) {
    if (delta < (std::int64_t{1} << kWheelShift[level + 1])) {
      const std::size_t idx =
          static_cast<std::size_t>(e.at.count_nanos() >> kWheelShift[level]) & (kWheelSlots - 1);
      const std::size_t bucket = static_cast<std::size_t>(level) * kWheelSlots + idx;
      WheelBucket& b = wheel_[bucket];
      if (b.entries.empty()) {
        active_buckets_.push_back(static_cast<std::uint32_t>(bucket));
      }
      b.entries.push_back(e);
      b.min_at = std::min(b.min_at, e.at);
      wheel_min_at_ = std::min(wheel_min_at_, e.at);
      ++wheel_count_;
      return;
    }
  }
  overflow_.push_back(e);
  overflow_min_ = std::min(overflow_min_, e.at);
  wheel_min_at_ = std::min(wheel_min_at_, e.at);
  ++wheel_count_;
}

void Simulation::sync_wheel() {
  // `<=` (not `<`): entries tied with the heap front must be promoted before
  // the front is popped so same-instant dispatch stays in `seq` order.
  while (wheel_count_ != 0 && (queue_.empty() || wheel_min_at_ <= queue_.front().at)) {
    flush_min_bucket();
  }
}

void Simulation::flush_min_bucket() {
  // Scan order over `active_buckets_` is insertion order, which is
  // deterministic; tie order between buckets cannot affect dispatch order
  // anyway — the heap restores the (at, seq) total order once everything
  // due is promoted.
  const TimePoint due = wheel_min_at_;
  std::size_t pos = active_buckets_.size();
  for (std::size_t i = 0; i < active_buckets_.size(); ++i) {
    if (wheel_[active_buckets_[i]].min_at == due) {
      pos = i;
      break;
    }
  }
  if (pos != active_buckets_.size()) {
    const std::uint32_t bucket = active_buckets_[pos];
    WheelBucket& b = wheel_[bucket];
    // Deactivate before refiling: a refile may push back into this very
    // bucket (later-epoch entries that hash onto the same slot), which
    // re-activates it with its new, strictly later minimum.
    active_buckets_[pos] = active_buckets_.back();
    active_buckets_.pop_back();
    const std::int64_t cursor = b.min_at.count_nanos();
    wheel_count_ -= b.entries.size();
    b.min_at = TimePoint::max();
    if (bucket < kWheelSlots) {
      // Level 0: promote everything. Entries from a later epoch that hashed
      // onto this slot reach the heap a little early, which is harmless —
      // the heap still pops them at their own (at, seq) position.
      for (const QueueEntry& e : b.entries) {
        heap_push(e);
      }
      b.entries.clear();
    } else {
      // Coarser level: refile by distance from the bucket minimum. The due
      // entry lands in the heap (delta 0); siblings spread into finer
      // buckets by their distance from it. Copy (not swap) into the
      // scratch: a swap would rotate storage between buckets, so a
      // bucket's grown capacity would wander off and steady-state refills
      // would re-allocate. Entries are 32-byte PODs — the copy is cheap.
      wheel_scratch_.assign(b.entries.begin(), b.entries.end());
      b.entries.clear();  // capacity retained, and it stays with this bucket
      for (const QueueEntry& e : wheel_scratch_) {
        wheel_insert(e, cursor);
      }
      wheel_scratch_.clear();
    }
  } else {
    NM_CHECK(overflow_min_ == due, "timer wheel min accounting out of sync");
    const std::int64_t cursor = overflow_min_.count_nanos();
    wheel_count_ -= overflow_.size();
    overflow_min_ = TimePoint::max();
    wheel_scratch_.assign(overflow_.begin(), overflow_.end());
    overflow_.clear();  // capacity retained
    for (const QueueEntry& e : wheel_scratch_) {
      wheel_insert(e, cursor);
    }
    wheel_scratch_.clear();
  }
  // Recompute the cached global minimum: the flushed bucket's stale minimum
  // may have been the cached value. Only occupied buckets are scanned.
  TimePoint m = overflow_min_;
  for (const std::uint32_t bucket : active_buckets_) {
    m = std::min(m, wheel_[bucket].min_at);
  }
  wheel_min_at_ = m;
}

Simulation::QueueEntry Simulation::pop_next() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  QueueEntry entry = std::move(queue_.back());
  queue_.pop_back();
  return entry;
}

PostHandle Simulation::post(Duration delay, EventCallback fn) {
  NM_CHECK(!delay.is_negative(), "negative delay");
  NM_CHECK(static_cast<bool>(fn), "posting an empty callback");
  return enqueue(now_ + delay, nullptr, std::move(fn));
}

PostHandle Simulation::post_at(TimePoint at, EventCallback fn) {
  NM_CHECK(at >= now_, "post_at instant is in the past");
  NM_CHECK(static_cast<bool>(fn), "posting an empty callback");
  return enqueue(at, nullptr, std::move(fn));
}

bool Simulation::cancel(PostHandle handle) {
  if (handle.slot_ == kNoCallback || callback_seq_[handle.slot_] != handle.seq_) {
    return false;
  }
  // The entry stays queued (the heap and wheel cannot unlink it cheaply);
  // the empty callback marks it, and dispatch_one drops it and frees the
  // slot.
  callback_pool_[handle.slot_] = EventCallback{};
  callback_seq_[handle.slot_] = kNoSeq;
  ++cancelled_pending_;
  // Amortized O(1): a sweep costs O(pending) and removes at least half.
  constexpr std::size_t kMinSweep = 64;
  if (cancelled_pending_ >= kMinSweep && 2 * cancelled_pending_ >= queue_.size() + wheel_count_) {
    sweep_cancelled();
  }
  return true;
}

void Simulation::sweep_cancelled() {
  // Dispatch order is the (at, seq) total order of the live entries, which
  // neither the heap layout nor bucket contents affect, so removing
  // tombstones is invisible to the simulation.
  const auto drop = [this](std::vector<QueueEntry>& entries) {
    std::size_t kept = 0;
    for (const QueueEntry& e : entries) {
      if (is_tombstone(e)) {
        free_callback_slots_.push_back(e.slot);
      } else {
        entries[kept++] = e;
      }
    }
    const std::size_t dropped = entries.size() - kept;
    entries.resize(kept);
    return dropped;
  };
  const auto min_at = [](const std::vector<QueueEntry>& entries) {
    TimePoint m = TimePoint::max();
    for (const QueueEntry& e : entries) {
      m = std::min(m, e.at);
    }
    return m;
  };
  drop(queue_);
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
  std::size_t kept = 0;
  TimePoint wheel_min = TimePoint::max();
  for (const std::uint32_t bucket : active_buckets_) {
    WheelBucket& b = wheel_[bucket];
    wheel_count_ -= drop(b.entries);
    b.min_at = min_at(b.entries);
    if (!b.entries.empty()) {
      active_buckets_[kept++] = bucket;
      wheel_min = std::min(wheel_min, b.min_at);
    }
  }
  active_buckets_.resize(kept);
  wheel_count_ -= drop(overflow_);
  overflow_min_ = min_at(overflow_);
  wheel_min_at_ = std::min(wheel_min, overflow_min_);
  cancelled_pending_ = 0;
}

void Simulation::post_resume(Duration delay, std::coroutine_handle<> h) {
  NM_CHECK(!delay.is_negative(), "negative delay");
  NM_CHECK(h != nullptr, "null coroutine handle");
  enqueue(now_ + delay, h, {});
}

TaskRef Simulation::spawn(Task task, std::string name) {
  const std::uint64_t id = next_task_id_++;
  auto detached = std::make_unique<Detached>();
  detached->handle = task.release();
  detached->state = std::make_shared<TaskRef::State>(*this);
  detached->name = std::move(name);
  NM_CHECK(detached->handle != nullptr, "spawning an empty task");

  auto& promise = detached->handle.promise();
  promise.detached_owner = this;
  promise.detach_id = id;

  TaskRef ref{detached->state};
  enqueue(now_, detached->handle, {});
  detached_.emplace(id, std::move(detached));
  ++live_tasks_;
  return ref;
}

void Simulation::on_detached_done(std::uint64_t id, std::exception_ptr exception) {
  auto it = detached_.find(id);
  NM_CHECK(it != detached_.end(), "unknown detached task " << id);
  auto& d = *it->second;
  d.state->finished = true;
  d.state->done_event.set();
  if (exception && !pending_exception_) {
    pending_exception_ = exception;
  }
  destroy_list_.push_back(d.handle);
  d.handle = nullptr;
  detached_.erase(it);
  NM_CHECK(live_tasks_ > 0, "task accounting underflow");
  --live_tasks_;
}

void Simulation::drain_destroy_list() {
  for (auto h : destroy_list_) {
    h.destroy();
  }
  destroy_list_.clear();
}

std::uint64_t Simulation::add_settle_hook(std::function<void()> hook) {
  NM_CHECK(hook != nullptr, "null settle hook");
  const std::uint64_t id = next_settle_hook_id_++;
  settle_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Simulation::remove_settle_hook(std::uint64_t id) {
  for (auto it = settle_hooks_.begin(); it != settle_hooks_.end(); ++it) {
    if (it->first == id) {
      settle_hooks_.erase(it);
      return;
    }
  }
  NM_CHECK(false, "unknown settle hook " << id);
}

void Simulation::maybe_settle() {
  if (!settle_requested_) {
    return;
  }
  if (!queue_.empty() && queue_.front().at <= now_) {
    return;  // the current instant is still playing out; defer
  }
  settle_requested_ = false;
  for (auto& [id, hook] : settle_hooks_) {
    hook();
  }
}

void Simulation::dispatch_one() {
  const QueueEntry entry = pop_next();
  NM_CHECK(entry.at >= now_, "event queue went backwards");
  if (is_tombstone(entry)) {
    // A cancelled entry: nothing runs and the clock stays put, so a
    // superseded timer cannot make run() end later than the last real event.
    free_callback_slots_.push_back(entry.slot);
    --cancelled_pending_;
    return;
  }
  now_ = entry.at;
  if (entry.handle) {
    entry.handle.resume();
  } else {
    // Move the callback out and recycle its slot before invoking: the
    // callback may itself post (re-entering the pool).
    EventCallback cb = std::move(callback_pool_[entry.slot]);
    callback_seq_[entry.slot] = kNoSeq;
    free_callback_slots_.push_back(entry.slot);
    cb();
  }
  drain_destroy_list();
  if (pending_exception_) {
    auto e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Simulation::step() {
  // Settle hooks may arm timers (so the queue can refill) or complete
  // flows at `now_`, so they must run before the empty check. Parked wheel
  // entries are all strictly after `now_` (they were inserted at least
  // kWheelMinDelayNs out and due ones are promoted before time advances),
  // so they never defer a settle.
  maybe_settle();
  if (wheel_count_ != 0) {
    sync_wheel();  // after the hooks: they may post nearer entries
  }
  if (queue_.empty()) {
    return false;
  }
  dispatch_one();
  return true;
}

TimePoint Simulation::run() {
  while (step()) {
  }
  return now_;
}

TimePoint Simulation::run_until(TimePoint deadline) {
  while (true) {
    // A pending settle may arm timers at or before `deadline`, so it must
    // run before deciding whether anything is left to execute.
    maybe_settle();
    if (wheel_count_ != 0) {
      sync_wheel();  // the heap front must be the global minimum
    }
    if (queue_.empty() || queue_.front().at > deadline) {
      break;
    }
    dispatch_one();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(Task::Handle h) noexcept {
  auto& promise = h.promise();
  if (promise.detached_owner != nullptr) {
    promise.detached_owner->on_detached_done(promise.detach_id, promise.exception);
    return std::noop_coroutine();
  }
  if (promise.continuation) {
    return promise.continuation;
  }
  return std::noop_coroutine();
}

}  // namespace nm::sim
