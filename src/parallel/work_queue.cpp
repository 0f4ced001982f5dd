#include "parallel/work_queue.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fpsnr::parallel {

namespace {

/// The process-wide helper threads every multi-worker drain borrows:
/// hardware_concurrency threads (at least 1), started on first use and
/// joined at exit. They are never started per drain, so a short drain (one
/// fpsnrd request, one small field) pays no thread spin-up.
class HelperPool {
 public:
  static HelperPool& instance() {
    static HelperPool pool;
    return pool;
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  /// Queue a job for the next free helper thread. Once the pool is
  /// shutting down (process exit) the job is dropped; the drain caller
  /// runs every task itself anyway.
  void submit(std::function<void()> job) {
    {
      std::lock_guard lock(mutex_);
      if (stopping_) return;
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

 private:
  HelperPool() {
    const std::size_t n =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      threads_.emplace_back([this] { loop(); });
  }

  ~HelperPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stopping and drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();  // never throws: see WorkQueue::State::spawn_helpers
    }
  }

  std::mutex mutex_;
  std::deque<std::function<void()>> jobs_;  ///< guarded by mutex_
  bool stopping_ = false;                   ///< guarded by mutex_
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
};

}  // namespace

struct WorkQueue::State {
  /// One queued unit of work: the task plus its scheduling attributes.
  /// Plain push() leaves the defaults (no deadline), so the FIFO lane's
  /// byte-deterministic pop order is exactly the pre-options behaviour.
  struct Entry {
    Task task;
    Task on_expired;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::uint64_t locality = 0;  ///< 0 = no placement preference
  };

  /// The helpers of one multi-worker drain, all fields under `mutex`.
  /// Shared with the helper jobs, which may sit unscheduled in the pool
  /// long past their drain (between drains, or inside a later drain(1)
  /// that promises strictly-inline execution): the drain clears `active`
  /// the moment it returns, so a stale helper retires without touching
  /// tasks it was never budgeted for.
  struct Crew {
    std::size_t cap = 0;   ///< max_workers - 1: the caller is the last worker
    std::size_t live = 0;  ///< offered and not yet retired (queued or running)
    bool active = true;
  };

  /// How far into the FIFO lane an executor looks for a task whose
  /// locality key it owns. Small and fixed: the scan is O(window) under
  /// the queue lock, and a task can be bypassed at most by tagged tasks
  /// inside this window — never starved behind an unbounded stream.
  static constexpr std::size_t kLocalityWindow = 16;

  std::mutex mutex;
  std::condition_variable idle;  ///< queue empty + nothing running, or new work
  std::deque<Entry> priority_tasks;  ///< drained before the FIFO lane
  std::deque<Entry> tasks;
  std::size_t running = 0;
  std::exception_ptr first_error;
  /// Guards the one-drain-at-a-time contract: set for the duration of a
  /// drain(), so an overlapping drain (another thread, or a task of the
  /// running drain draining its own queue) fails loudly instead of the two
  /// drains stealing each other's error slot and helpers.
  std::atomic<bool> draining{false};
  /// Locality placement state, all under `mutex`. Enabled only for the
  /// duration of a multi-worker drain (a single executor has nothing to
  /// place); the affinity map is cleared when the drain ends, so keys
  /// never alias across drains or leak memory between batches.
  bool locality_enabled = false;
  std::size_t executor_serial = 0;  ///< hands each run_tasks pass an id
  std::unordered_map<std::uint64_t, std::size_t> last_executor;
  /// The running multi-worker drain's helpers (null otherwise). A push
  /// made mid-drain offers one more helper while the crew is below its
  /// cap: retired helpers never rejoin on their own, so without this a
  /// burst of follow-up tasks (e.g. the batch engine's per-field verify
  /// decodes) pushed near the tail would serialize on whichever executor
  /// pushed them.
  std::shared_ptr<Crew> crew;

  bool has_tasks() const { return !priority_tasks.empty() || !tasks.empty(); }

  /// Reserve up to `wanted` helper slots in the running drain's crew, so
  /// caller + live helpers never exceed max_workers. Caller holds `mutex`.
  std::size_t reserve_helpers(std::size_t wanted) {
    if (!crew) return 0;
    const std::size_t n = std::min(wanted, crew->cap - crew->live);
    crew->live += n;
    return n;
  }

  /// Hand `n` reserved helpers to the pool (without holding `mutex`).
  /// Helpers are best effort: if the pool never schedules one, the drain
  /// caller still runs every task, so a drain issued from inside a pool
  /// thread cannot deadlock.
  static void spawn_helpers(const std::shared_ptr<State>& state,
                            const std::shared_ptr<Crew>& crew, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      HelperPool::instance().submit([state, crew] {
        try {
          state->run_tasks(crew.get());
        } catch (...) {
          // Task exceptions are caught inside run_tasks; this is the
          // queue's own bookkeeping failing (bad_alloc). The drain reports it.
          std::lock_guard lock(state->mutex);
          if (!state->first_error)
            state->first_error = std::current_exception();
        }
      });
  }

  /// Pop-and-run until the queue is empty — or, for a helper, until its
  /// drain has ended; a helper then retires from its crew. The drain()
  /// caller passes nullptr (it is always entitled to run) and loops back
  /// in whenever an in-flight task repopulates the queue.
  void run_tasks(Crew* helper_of) {
    std::unique_lock lock(mutex);
    const std::size_t me = ++executor_serial;
    while (has_tasks() && (helper_of == nullptr || helper_of->active)) {
      auto& lane = priority_tasks.empty() ? tasks : priority_tasks;
      // Locality pass (FIFO lane only; the priority lane stays strict):
      // prefer a tagged task near the front whose neighborhood this
      // executor touched last. Untagged tasks are never reordered
      // relative to each other — only tagged tasks may jump the line.
      std::size_t pick = 0;
      if (locality_enabled && priority_tasks.empty()) {
        const std::size_t window = std::min(lane.size(), kLocalityWindow);
        for (std::size_t i = 0; i < window; ++i) {
          const std::uint64_t key = lane[i].locality;
          if (key == 0) continue;
          const auto it = last_executor.find(key);
          if (it != last_executor.end() && it->second == me) {
            pick = i;
            break;
          }
        }
      }
      Entry entry = std::move(lane[pick]);
      lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(pick));
      if (locality_enabled && entry.locality != 0)
        last_executor[entry.locality] = me;
      ++running;
      lock.unlock();
      // Expiry is decided once, at pop time: a task that begins before its
      // deadline runs to completion, an expired one is replaced by its
      // on_expired hook (which reports the rejection to whoever waits on
      // the task's result). Both sides share the drain's exception policy.
      Task& chosen =
          entry.deadline < std::chrono::steady_clock::now() ? entry.on_expired
                                                            : entry.task;
      try {
        if (chosen) chosen();
      } catch (...) {
        lock.lock();
        if (!first_error) first_error = std::current_exception();
        lock.unlock();
      }
      lock.lock();
      --running;
    }
    if (helper_of) --helper_of->live;
    if (running == 0) idle.notify_all();
  }
};

WorkQueue::WorkQueue() : state_(std::make_shared<State>()) {}

WorkQueue::~WorkQueue() = default;

void WorkQueue::push(Task task) { push(std::move(task), TaskOptions{}); }

void WorkQueue::push(Task task, TaskOptions options) {
  std::shared_ptr<State::Crew> crew;
  std::size_t helpers = 0;
  {
    std::lock_guard lock(state_->mutex);
    auto& lane = options.priority ? state_->priority_tasks : state_->tasks;
    lane.push_back({std::move(task), std::move(options.on_expired),
                    options.deadline, options.locality});
    helpers = state_->reserve_helpers(1);
    crew = state_->crew;
  }
  // Wake the drain() caller if it is parked: an in-flight task may have
  // produced follow-up work after the queue looked empty.
  state_->idle.notify_all();
  State::spawn_helpers(state_, crew, helpers);
}

std::size_t WorkQueue::pending() const {
  std::lock_guard lock(state_->mutex);
  return state_->tasks.size() + state_->priority_tasks.size();
}

void WorkQueue::drain(std::size_t max_workers) {
  const std::shared_ptr<State> state = state_;
  if (state->draining.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error(
        "WorkQueue::drain: a drain is already running on this queue "
        "(one drain at a time — overlapping drains would steal each "
        "other's tasks, exceptions, and helpers)");
  struct DrainGuard {
    std::atomic<bool>& flag;
    ~DrainGuard() { flag.store(false, std::memory_order_release); }
  } drain_guard{state->draining};

  std::shared_ptr<State::Crew> crew;
  std::size_t helpers = 0;
  if (max_workers > 1) {
    std::lock_guard lock(state->mutex);
    crew = std::make_shared<State::Crew>();
    crew->cap = max_workers - 1;
    state->crew = crew;
    // With more than one executor, honor locality tags; a drain(1) pops
    // pure FIFO so replays match the queue order exactly.
    state->locality_enabled = true;
    // The caller takes one queued task itself; a helper per further task,
    // up to the cap. Tasks pushed later offer their own helpers.
    const std::size_t queued =
        state->tasks.size() + state->priority_tasks.size();
    helpers = state->reserve_helpers(queued > 0 ? queued - 1 : 0);
  }
  State::spawn_helpers(state, crew, helpers);

  state->run_tasks(nullptr);
  std::unique_lock lock(state->mutex);
  for (;;) {
    if (state->has_tasks()) {
      // A task pushed follow-up work; its helper may be capped out or
      // still unscheduled, so the caller picks the work up itself.
      lock.unlock();
      state->run_tasks(nullptr);
      lock.lock();
      continue;
    }
    if (state->running == 0) break;
    state->idle.wait(lock,
                     [&] { return state->has_tasks() || state->running == 0; });
  }
  // Retire this drain's helpers BEFORE dropping the mutex: they re-check
  // `active` under the same lock, so no helper can pop a task pushed
  // after this drain's completion was decided.
  if (crew) crew->active = false;
  state->crew = nullptr;
  state->locality_enabled = false;
  state->last_executor.clear();
  std::exception_ptr error = std::exchange(state->first_error, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace fpsnr::parallel
