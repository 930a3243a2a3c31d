// The discrete-event simulation kernel. Single-threaded, deterministic:
// pending resumptions are ordered by (simulated time, insertion sequence),
// so a given program always executes identically for a given seed.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/task.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace nm::sim {

class Event;

/// A joinable reference to a detached (spawned) task.
class TaskRef {
 public:
  TaskRef() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const;
  /// Awaitable: suspends until the task finishes. Safe to call after
  /// completion (returns immediately).
  [[nodiscard]] Event& completion() const;

 private:
  friend class Simulation;
  struct State;
  explicit TaskRef(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Names one callback posted through Simulation::post/post_at, for
/// Simulation::cancel. A default-constructed handle names nothing.
class PostHandle {
 public:
  PostHandle() = default;

 private:
  friend class Simulation;
  PostHandle(std::uint64_t seq, std::uint32_t slot) : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0xffffffffU;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Derives a deterministic, consumer-private random stream.
  [[nodiscard]] Rng make_rng(std::string_view stream_name) const {
    return Rng::stream(seed_, stream_name);
  }

  /// Schedules a plain callback after `delay`. The callback is stored
  /// inline in the queue entry (no heap allocation) and may be move-only,
  /// so it can own resources that must be released even if the simulation
  /// is destroyed before the entry fires. The handle can cancel it.
  PostHandle post(Duration delay, EventCallback fn);
  /// Schedules a plain callback at the absolute instant `at` (must not be
  /// in the past). Open-loop workload generators use this to pin a
  /// pre-drawn arrival sequence to absolute wall-clock instants — far
  /// enough out, the entries park on the timer wheel, so a whole window of
  /// arrivals costs no near-term heap sifts.
  PostHandle post_at(TimePoint at, EventCallback fn);
  /// Cancels a posted callback that has not run yet: the callback is
  /// destroyed now and its queue entry becomes a tombstone, which the
  /// kernel drops when it reaches the front without running anything or
  /// moving the clock. Once tombstones make up half the pending entries
  /// they are swept out in one pass, so cancelled far-future timers cannot
  /// pile up. Returns false (and does nothing) when the entry already ran
  /// or was cancelled, or the handle names nothing — a callback slot reused
  /// by a later post never matches an older handle. Live entries keep their
  /// sequence numbers, so cancelling never reorders what still runs.
  bool cancel(PostHandle handle);
  /// Schedules a coroutine resumption after `delay` (used by awaitables).
  void post_resume(Duration delay, std::coroutine_handle<> h);

  /// Starts `task` as a detached activity at the current time.
  TaskRef spawn(Task task, std::string name = {});

  /// Awaitable that suspends the current task for `d` of simulated time.
  [[nodiscard]] auto delay(Duration d) {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      [[nodiscard]] bool await_ready() const noexcept { return d.is_zero(); }
      void await_suspend(std::coroutine_handle<> h) const { sim.post_resume(d, h); }
      void await_resume() const noexcept {}
    };
    NM_CHECK(!d.is_negative(), "cannot delay by negative duration " << d.count_nanos() << "ns");
    return Awaiter{*this, d};
  }

  /// Runs until the event queue is empty. Returns the final time.
  TimePoint run();
  /// Runs until `deadline` (events at exactly `deadline` are executed).
  TimePoint run_until(TimePoint deadline);
  TimePoint run_for(Duration d) { return run_until(now_ + d); }

  /// Registers a settle hook: a callback the kernel runs at the *end* of a
  /// simulated instant — after a settle was requested, just before the
  /// clock would advance past `now()` (or the queue drains). Lazily-settled
  /// models (the fluid SolvePool) use this to batch every same-instant
  /// dirty mark into one settle point instead of posting zero-delay events.
  /// Returns an id for remove_settle_hook(). Hooks run in registration
  /// order; they may post new events at `now()`, which then execute before
  /// time advances.
  std::uint64_t add_settle_hook(std::function<void()> hook);
  void remove_settle_hook(std::uint64_t id);
  /// Arms the settle hooks for the current instant. Idempotent; cleared
  /// once the hooks have run.
  void request_settle() { settle_requested_ = true; }

  /// Number of spawned tasks that have not yet finished. Tests use this to
  /// assert that scenarios quiesce (no deadlocked activity).
  [[nodiscard]] std::size_t live_task_count() const { return live_tasks_; }
  /// Number of pending queue entries (timers + ready resumptions),
  /// including far-future entries parked on the timer wheel and excluding
  /// cancelled ones.
  [[nodiscard]] std::size_t pending_event_count() const {
    return queue_.size() + wheel_count_ - cancelled_pending_;
  }

 private:
  friend struct Task::FinalAwaiter;

  static constexpr std::uint32_t kNoCallback = 0xffffffffU;
  /// `callback_seq_` value of a slot whose entry has run or was cancelled.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  /// Heap entry: a trivially-copyable 32-byte key. Callback payloads live
  /// in `callback_pool_` (referenced by `slot`), so heap sifts move plain
  /// PODs — no per-level type-erased relocation — and a callback is moved
  /// exactly once on post and once on pop.
  struct QueueEntry {
    TimePoint at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // resumption entries; null otherwise
    std::uint32_t slot;              // callback entries; kNoCallback otherwise
    bool operator>(const QueueEntry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  PostHandle enqueue(TimePoint at, std::coroutine_handle<> h, EventCallback fn);
  void on_detached_done(std::uint64_t id, std::exception_ptr exception);
  bool step();  // runs due settle hooks + one queue entry; false when empty
  void dispatch_one();  // executes the front queue entry (queue non-empty)
  // Runs the settle hooks if a settle is pending and the current instant is
  // over (no queued entry at `now_`). Same-instant entries defer the settle
  // so all marks from one instant batch into a single hook invocation.
  void maybe_settle();
  void drain_destroy_list();
  QueueEntry pop_next();
  void heap_push(const QueueEntry& e);

  // ---- Hierarchical timer wheel -------------------------------------------
  //
  // Far-future entries (>= kWheelMinDelayNs from `now_`) are parked in a
  // three-level hashed wheel instead of the min-heap, so a large population
  // of distant timers (background-flow completion etas, WAN keepalives) does
  // not inflate every near-term heap sift from O(log n_near) to
  // O(log n_total). Level L buckets entries by bits [shift_L, shift_L+8) of
  // their absolute nanosecond deadline; deltas beyond the top level land in
  // a flat overflow list. Buckets are flushed lazily, on demand: before the
  // kernel inspects the heap front, sync_wheel() promotes every bucket whose
  // minimum deadline is <= the heap front (ties included), so the heap front
  // is always the true global minimum. Promoted entries keep their original
  // `seq`, and all entries of a given instant reach the heap before any of
  // them is popped, so the dispatch order remains the exact (at, seq) total
  // order — the wheel is invisible to simulation results. Bucket vectors,
  // the refile scratch, and the overflow list all retain capacity across
  // flushes, keeping the steady state allocation-free.
  static constexpr int kWheelLevels = 3;
  static constexpr std::size_t kWheelSlots = 256;  // per level; index mask 0xff
  // Level L holds deltas in [2^kWheelShift[L], 2^kWheelShift[L+1]) — roughly
  // [1ms, 268ms), [268ms, 69s), [69s, 4.9h); beyond that: overflow.
  static constexpr std::array<int, kWheelLevels + 1> kWheelShift = {20, 28, 36, 44};
  // Entries closer than this (~2.1ms) go straight to the heap: they are due
  // soon enough that parking + promoting would cost more than one sift.
  static constexpr std::int64_t kWheelMinDelayNs = std::int64_t{1} << 21;

  struct WheelBucket {
    std::vector<QueueEntry> entries;  // unordered; capacity retained
    TimePoint min_at = TimePoint::max();
  };

  // Files `e` into the wheel level matching `at - cursor_ns` (or the heap
  // when nearer than kWheelMinDelayNs, or overflow when beyond the top
  // level). `cursor_ns` is `now_` for fresh entries; refiles from a coarse
  // bucket use the bucket's own minimum so the due entry always reaches the
  // heap and refiled siblings spread by their distance from it (using `now_`
  // there could refile a wrapped entry back into its source bucket forever).
  void wheel_insert(const QueueEntry& e, std::int64_t cursor_ns);
  // Promotes due buckets until the heap front is the global minimum.
  void sync_wheel();
  // Flushes the bucket (or overflow list) holding `wheel_min_at_`.
  void flush_min_bucket();
  // Removes every tombstone from the heap, the wheel buckets and the
  // overflow list, and frees their callback slots.
  void sweep_cancelled();
  // A cancelled callback entry: its slot holds an empty callback.
  [[nodiscard]] bool is_tombstone(const QueueEntry& e) const {
    return !e.handle && !callback_pool_[e.slot];
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_task_id_ = 1;
  // Min-heap on (at, seq), maintained by hand with push_heap/pop_heap
  // (std::priority_queue::top() returns a const reference, which cannot
  // hand ownership of a move-only callback to step()). Pop order — and
  // therefore execution order — is the total order (at, seq) regardless of
  // internal heap layout, so determinism is unaffected.
  std::vector<QueueEntry> queue_;
  // Slab of pending callbacks, free-listed; slots are recycled so the
  // steady state allocates nothing. Destroying the simulation destroys
  // pending callbacks here, releasing whatever they still own.
  std::vector<EventCallback> callback_pool_;
  std::vector<std::uint32_t> free_callback_slots_;
  // Per slot, the `seq` of the pending entry that owns it (kNoSeq once that
  // entry ran or was cancelled): cancel() matches a handle against it, so
  // a recycled slot never lets an old handle reach a newer entry. A
  // cancelled entry keeps its slot, holding an empty callback (the
  // tombstone), until the kernel pops it.
  std::vector<std::uint64_t> callback_seq_;
  std::size_t cancelled_pending_ = 0;

  // Timer-wheel state. `wheel_count_` counts entries parked in buckets plus
  // the overflow list; `wheel_min_at_` caches the global minimum across all
  // bucket minima and `overflow_min_` (TimePoint::max() when empty) so the
  // hot-path sync check is a single comparison.
  std::array<WheelBucket, kWheelLevels * kWheelSlots> wheel_;
  std::vector<QueueEntry> overflow_;
  std::vector<QueueEntry> wheel_scratch_;  // refile staging; capacity retained
  // Indices of non-empty buckets, unordered. Min-finding and min-recompute
  // scan this list instead of all 768 buckets, so a sparsely-populated wheel
  // (the common case: one far completion eta per quiet component) costs O(1)
  // per flush rather than two 24KB sweeps.
  std::vector<std::uint32_t> active_buckets_;
  TimePoint overflow_min_ = TimePoint::max();
  TimePoint wheel_min_at_ = TimePoint::max();
  std::size_t wheel_count_ = 0;

  struct Detached;
  std::map<std::uint64_t, std::unique_ptr<Detached>> detached_;
  std::vector<std::coroutine_handle<>> destroy_list_;
  std::size_t live_tasks_ = 0;
  std::exception_ptr pending_exception_;

  std::vector<std::pair<std::uint64_t, std::function<void()>>> settle_hooks_;
  std::uint64_t next_settle_hook_id_ = 1;
  bool settle_requested_ = false;
};

/// A broadcast event. `set()` wakes every waiter; waiting on an already-set
/// event does not suspend. `reset()` re-arms it.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const { return set_; }

  void set() {
    if (set_) {
      return;
    }
    set_ = true;
    auto tokens = std::move(waiters_);
    waiters_.clear();
    for (auto& tok : tokens) {
      if (!tok->fired) {
        tok->fired = true;
        tok->woken_by_event = true;
        sim_->post_resume(Duration::zero(), tok->handle);
      }
    }
  }

  void reset() { set_ = false; }

  /// Awaitable: suspend until set.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event& ev;
      [[nodiscard]] bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        auto tok = std::make_shared<WaitToken>();
        tok->handle = h;
        ev.waiters_.push_back(std::move(tok));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable: suspend until set or until `timeout` elapses; resumes with
  /// true if the event fired, false on timeout.
  [[nodiscard]] auto wait_for(Duration timeout) {
    struct Awaiter {
      Event& ev;
      Duration timeout;
      std::shared_ptr<WaitToken> tok;
      [[nodiscard]] bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        tok = std::make_shared<WaitToken>();
        tok->handle = h;
        ev.waiters_.push_back(tok);
        ev.sim_->post(timeout, [tok = tok, sim = ev.sim_] {
          if (!tok->fired) {
            tok->fired = true;
            tok->woken_by_event = false;
            sim->post_resume(Duration::zero(), tok->handle);
          }
        });
      }
      [[nodiscard]] bool await_resume() const noexcept {
        return tok == nullptr || tok->woken_by_event;
      }
    };
    return Awaiter{*this, timeout, nullptr};
  }

 private:
  struct WaitToken {
    std::coroutine_handle<> handle;
    bool fired = false;
    bool woken_by_event = false;
  };

  Simulation* sim_;
  bool set_ = false;
  std::vector<std::shared_ptr<WaitToken>> waiters_;
};

}  // namespace nm::sim
