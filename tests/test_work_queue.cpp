// Tests for the global MPMC work queue (parallel/work_queue.h).
#include "parallel/work_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace parallel = fpsnr::parallel;

namespace {

/// The documented size of the helper pool drains borrow from.
std::size_t pool_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Records the largest number of tasks seen running at once.
struct ConcurrencyProbe {
  std::atomic<int> active{0}, peak{0};

  void run_one() {
    const int now = active.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    active.fetch_sub(1);
  }
};

/// Occupies `executors` workers with tasks that block until release(): a
/// side thread drains them with drain(executors), so its pool helpers hold
/// executors - 1 helper threads. The constructor returns once every task
/// has started, i.e. once those helper threads are really taken; the
/// destructor waits for the side drain to finish.
class Occupier {
 public:
  explicit Occupier(std::size_t executors) {
    for (std::size_t i = 0; i < executors; ++i)
      queue_.push([this] {
        started_.fetch_add(1);
        while (!released_.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    side_ = std::thread([this, executors] { queue_.drain(executors); });
    while (started_.load() < executors)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~Occupier() {
    release();
    side_.join();
  }
  Occupier(const Occupier&) = delete;
  Occupier& operator=(const Occupier&) = delete;

  void release() { released_.store(true); }

 private:
  parallel::WorkQueue queue_;
  std::atomic<std::size_t> started_{0};
  std::atomic<bool> released_{false};
  std::thread side_;
};

}  // namespace

TEST(WorkQueue, RunsEveryTask) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i)
    queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(queue.pending(), 1000u);
  queue.drain(8);
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, InlineDrainStaysOnCaller) {
  parallel::WorkQueue queue;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (int i = 0; i < 64; ++i)
    queue.push([&] {
      if (std::this_thread::get_id() != caller) ++off_thread;
    });
  queue.drain(1);  // <= 1 worker: everything runs inline
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(WorkQueue, TasksMayPushFollowUpTasks) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i)
    queue.push([&queue, &ran] {
      ran.fetch_add(1);
      // Two generations of follow-up work, pushed mid-drain.
      queue.push([&queue, &ran] {
        ran.fetch_add(1);
        queue.push([&ran] { ran.fetch_add(1); });
      });
    });
  queue.drain(4);
  EXPECT_EQ(ran.load(), 30);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, ExceptionRethrownAfterAllTasksRan) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  queue.push([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 100; ++i)
    queue.push([&] { ran.fetch_add(1); });
  EXPECT_THROW(queue.drain(4), std::runtime_error);
  // The failing task never cancels the rest: producers with per-task
  // cleanup must see every task either executed or still queued.
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, ReusableAcrossDrains) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i)
      queue.push([&] { ran.fetch_add(1); });
    queue.drain(4);
    EXPECT_EQ(ran.load(), 50 * (round + 1));
  }
}

TEST(WorkQueue, ConcurrentProducers) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 250; ++i)
        queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  for (auto& t : producers) t.join();
  queue.drain(8);
  EXPECT_EQ(ran.load(), 1000);
}

TEST(WorkQueue, ConcurrencyStaysWithinRequestedCap) {
  ConcurrencyProbe probe;
  parallel::WorkQueue queue;
  for (int i = 0; i < 64; ++i) queue.push([&probe] { probe.run_one(); });
  queue.drain(3);
  EXPECT_LE(probe.peak.load(), 3);
  EXPECT_GE(probe.peak.load(), 1);
}

TEST(WorkQueue, CapHoldsForTasksPushedMidDrain) {
  // Every mid-drain push may offer a helper, but only while caller + live
  // helpers < max_workers: follow-up bursts must not grow the crew past
  // the cap (batch verify decodes; fpsnrd requests at threads < nproc).
  for (int trial = 0; trial < 20; ++trial) {
    ConcurrencyProbe probe;
    parallel::WorkQueue queue;
    for (int i = 0; i < 8; ++i)
      queue.push([&queue, &probe] {
        probe.run_one();
        for (int j = 0; j < 4; ++j) queue.push([&probe] { probe.run_one(); });
      });
    queue.drain(2);
    ASSERT_LE(probe.peak.load(), 2) << "trial " << trial;
  }
}

TEST(WorkQueue, NestedDrainInsidePoolWorkerDoesNotDeadlock) {
  // A drain issued from inside a helper thread must complete even when no
  // other helper thread is free: the caller always participates. All but
  // one helper thread are held by a blocking side drain; the two outer
  // tasks wait for each other, so one of them runs on that last helper
  // thread, and both then drain an inner queue whose own helpers can
  // never be scheduled.
  Occupier occupier(pool_threads());
  parallel::WorkQueue outer;
  std::atomic<int> ran{0}, arrived{0}, off_caller{0};
  const auto caller = std::this_thread::get_id();
  for (int i = 0; i < 2; ++i)
    outer.push([&] {
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
      arrived.fetch_add(1);
      while (arrived.load() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      parallel::WorkQueue inner;
      for (int j = 0; j < 20; ++j)
        inner.push([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      inner.drain(4);
    });
  outer.drain(2);
  occupier.release();
  EXPECT_EQ(off_caller.load(), 1);
  EXPECT_EQ(ran.load(), 40);
}

TEST(WorkQueue, StaleHelpersCannotJoinALaterInlineDrain) {
  // drain(8)'s best-effort helpers may still sit in the pool's queue after
  // the drain returns. Hold every helper thread with a blocking side drain
  // so that is guaranteed, then release the side drain DURING a later
  // drain(1): the stale helpers wake mid-drain and must bow out instead
  // of running tasks — drain(1) promises strictly-inline execution.
  Occupier occupier(pool_threads() + 1);

  parallel::WorkQueue queue;
  for (int i = 0; i < 8; ++i) queue.push([] {});
  queue.drain(8);  // its 7 helpers queue behind the occupier and go stale

  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (int i = 0; i < 500; ++i)
    queue.push([&off_thread, caller] {
      if (std::this_thread::get_id() != caller)
        off_thread.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
  occupier.release();
  queue.drain(1);  // stale helpers wake while this drain is running
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(WorkQueue, EmptyDrainReturnsImmediately) {
  parallel::WorkQueue queue;
  queue.drain(8);
  queue.drain(0);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, OverlappingDrainFromInsideATaskThrows) {
  // drain() documents "one drain at a time" — and now enforces it in every
  // build. Re-draining the SAME queue from inside one of its own running
  // tasks must be a loud std::logic_error, not a deadlock or a silent
  // double-execution. (Draining a DIFFERENT queue from inside a task stays
  // legal — NestedDrainInsidePoolWorkerDoesNotDeadlock above covers it.)
  parallel::WorkQueue queue;
  std::atomic<bool> threw{false};
  queue.push([&] {
    try {
      queue.drain(1);
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  });
  queue.drain(1);
  EXPECT_TRUE(threw.load());
  // The queue stays usable after the rejected re-entry.
  std::atomic<int> ran{0};
  queue.push([&] { ran.fetch_add(1); });
  queue.drain(1);
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkQueue, OverlappingDrainFromAnotherThreadThrows) {
  parallel::WorkQueue queue;
  std::atomic<bool> in_task{false}, release{false};
  queue.push([&] {
    in_task.store(true);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::thread drainer([&] { queue.drain(1); });
  while (!in_task.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_THROW(queue.drain(1), std::logic_error);
  release.store(true);
  drainer.join();
  // The guard resets once the first drain finishes.
  queue.push([] {});
  queue.drain(1);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, PriorityLaneRunsBeforeQueuedFifoTasks) {
  parallel::WorkQueue queue;
  std::vector<int> order;  // drain(1) is strictly inline: no races
  parallel::WorkQueue::TaskOptions high;
  high.priority = true;
  queue.push([&] { order.push_back(1); });
  queue.push([&] { order.push_back(2); });
  queue.push([&] { order.push_back(-1); }, high);
  queue.push([&] { order.push_back(-2); }, high);
  EXPECT_EQ(queue.pending(), 4u);  // pending() spans both lanes
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2}));
}

TEST(WorkQueue, ExpiredDeadlineRunsOnExpiredInsteadOfTask) {
  parallel::WorkQueue queue;
  std::atomic<bool> task_ran{false}, expired_ran{false};
  parallel::WorkQueue::TaskOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);  // already past at pop
  expired.on_expired = [&] { expired_ran.store(true); };
  queue.push([&] { task_ran.store(true); }, expired);
  queue.drain(1);
  EXPECT_FALSE(task_ran.load());
  EXPECT_TRUE(expired_ran.load());
}

TEST(WorkQueue, FutureDeadlineRunsTheTaskNormally) {
  parallel::WorkQueue queue;
  std::atomic<bool> task_ran{false}, expired_ran{false};
  parallel::WorkQueue::TaskOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  opts.on_expired = [&] { expired_ran.store(true); };
  queue.push([&] { task_ran.store(true); }, opts);
  queue.drain(1);
  EXPECT_TRUE(task_ran.load());
  EXPECT_FALSE(expired_ran.load());
}

// --- locality-aware placement ------------------------------------------------

TEST(WorkQueue, LocalityDisabledOnSingleWorkerDrainKeepsFifoOrder) {
  // drain(1) never enables locality placement: tagged or not, tasks run in
  // push order (this is what keeps byte-determinism trivially provable for
  // serial runs).
  parallel::WorkQueue queue;
  std::vector<int> order;
  parallel::WorkQueue::TaskOptions tag_a, tag_b;
  tag_a.locality = 7;
  tag_b.locality = 9;
  queue.push([&] { order.push_back(1); }, tag_a);
  queue.push([&] { order.push_back(2); }, tag_b);
  queue.push([&] { order.push_back(3); }, tag_a);
  queue.push([&] { order.push_back(4); });
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(WorkQueue, LocalityNeverDropsOrDuplicatesTasks) {
  // Placement is a pop-order hint, nothing more: every tagged task runs
  // exactly once regardless of key distribution or worker count.
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    parallel::WorkQueue::TaskOptions opts;
    opts.locality = static_cast<std::uint64_t>(1 + i % 7);
    queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); }, opts);
  }
  queue.drain(8);
  EXPECT_EQ(ran.load(), 500);
  EXPECT_EQ(queue.pending(), 0u);

  // The per-drain executor map is cleared between drains, so a second
  // drain with fresh keys behaves identically.
  for (int i = 0; i < 100; ++i) {
    parallel::WorkQueue::TaskOptions opts;
    opts.locality = static_cast<std::uint64_t>(1 + i % 3);
    queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); }, opts);
  }
  queue.drain(4);
  EXPECT_EQ(ran.load(), 600);
}

TEST(WorkQueue, PriorityLaneStaysStrictlyFifoUnderLocalityTags) {
  // Locality placement applies to the FIFO lane only; priority tasks keep
  // their strict submission order even when tagged.
  parallel::WorkQueue queue;
  std::vector<int> order;
  parallel::WorkQueue::TaskOptions high_a, high_b;
  high_a.priority = true;
  high_a.locality = 42;
  high_b.priority = true;
  high_b.locality = 43;
  queue.push([&] { order.push_back(1); });
  queue.push([&] { order.push_back(-1); }, high_a);
  queue.push([&] { order.push_back(-2); }, high_b);
  queue.push([&] { order.push_back(-3); }, high_a);
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{-1, -2, -3, 1}));
}
