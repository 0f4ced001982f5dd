// MPMC work queue — the one parallel executor. Every parallel loop in the
// library runs on it: the block pipeline pushes one task per block, the
// batch engine plans its fields and then interleaves the blocks of *all*
// fields in one queue, and fpsnrd schedules its requests on it.
//
// Interleaving is the point for batches: a whole-dataset batch is many
// loops of very different lengths (CESM-ATM: 79 fields from tiny 2-D
// slices to huge 3-D volumes). Running them one loop at a time serializes
// the workers behind each field's stragglers: a 4-block field can keep at
// most 4 of 8 cores busy, and every field ends with a barrier. One queue
// holding every field's blocks keeps workers busy until the whole dataset
// is drained.
//
// Tasks are coarse (one pipeline block: quantize -> Huffman -> lossless,
// typically >= tens of microseconds), so a single lock-protected deque is
// plenty — the lock is touched twice per task, far from contention, while
// staying trivially work-stealing-friendly: any executor pops from the same
// front, so an idle worker "steals" whatever is next regardless of which
// field produced it.
//
// Executors: drain(k) runs tasks on the calling thread plus at most k - 1
// helpers borrowed from a process-wide set of hardware_concurrency threads
// (created on first use, alive until exit — never started per drain). The
// cap holds for tasks pushed mid-drain too: such a push offers one more
// helper only while caller + live helpers < k. Helpers are best-effort and
// the caller always runs tasks itself, so a drain issued from inside a task
// of another drain can never deadlock, even when every helper thread is
// busy. Tasks may push further tasks (e.g. a field's finalize step) —
// drain() only returns when the queue is empty AND no task is still
// running.
//
// Locality-aware placement: producers may tag tasks with a locality key
// (TaskOptions::locality) naming the data neighborhood the task touches —
// e.g. adjacent pipeline tiles of one field, which share cache lines along
// their faces. During a multi-worker drain, an executor popping from the
// FIFO lane first scans a short window at the front for a tagged task
// whose key it was the last to run, and takes that one instead of the
// front — warm-cache work stays on the worker that warmed it. Strictly
// best-effort and bounded: untagged tasks keep exact FIFO order among
// themselves, the priority lane and deadline semantics are untouched, and
// single-worker drains pop pure FIFO (so a drain(1) replay is exactly the
// queue order). Placement only moves WHERE a task runs, never what it
// computes — archives stay byte-identical regardless.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace fpsnr::parallel {

class WorkQueue {
 public:
  using Task = std::function<void()>;

  /// Scheduling attributes for push(task, options). The defaults are
  /// exactly the plain push(task): FIFO lane, no deadline — the batch
  /// engine's byte-deterministic drain order is untouched unless a caller
  /// explicitly asks for the priority lane.
  struct TaskOptions {
    /// Priority-lane tasks run before every FIFO task still queued; within
    /// the lane they stay FIFO among themselves.
    bool priority = false;
    /// A task whose deadline has passed when an executor pops it is NOT
    /// run; on_expired runs in its place (same exception policy). max() =
    /// no deadline. Expiry is checked at pop time only — a task that
    /// started before its deadline always runs to completion.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    Task on_expired;
    /// Optional data-neighborhood key (0 = none). Tasks sharing a key
    /// prefer the executor that last ran one of them (see the header
    /// comment); purely a placement hint with no effect on results.
    std::uint64_t locality = 0;
  };

  WorkQueue();
  ~WorkQueue();

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Enqueue a task (FIFO). Safe from any thread, including from inside a
  /// task that is currently draining.
  void push(Task task);

  /// Enqueue with explicit scheduling attributes (lane + deadline). The
  /// service front end uses this for per-request priority and
  /// deadline-expiry rejection; push(task) is the two-lane degenerate case.
  void push(Task task, TaskOptions options);

  /// Tasks enqueued but not yet started, across both lanes (snapshot; racy
  /// by nature).
  std::size_t pending() const;

  /// Run tasks until the queue is empty and every started task has
  /// returned. The calling thread always participates; up to
  /// max_workers - 1 pool helpers join best-effort, and no more than
  /// max_workers tasks ever run at once, including tasks pushed mid-drain
  /// (max_workers <= 1 drains everything inline on the caller). Rethrows
  /// the first task exception after the drain completes — remaining tasks
  /// still run, so producers with per-task cleanup always see every task
  /// either executed or still queued, never silently dropped.
  ///
  /// One drain at a time: pushes are MPMC-safe concurrently with a
  /// running drain, but overlapping drain() calls on the same queue are
  /// not supported (the error slot and helper bookkeeping are per-queue,
  /// so two concurrent drains would steal each other's exceptions and
  /// helpers). This is ENFORCED: an overlapping drain — from another
  /// thread, or from inside a task of the running drain — throws
  /// std::logic_error immediately instead of silently corrupting task
  /// ownership. Drain sequentially, or use one queue per drain site.
  void drain(std::size_t max_workers);

 private:
  struct State;
  /// Heap-shared with helpers: a helper may still sit in the pool's queue
  /// after drain() returns (it finds the queue empty and exits), so
  /// the state must be able to outlive the WorkQueue itself.
  std::shared_ptr<State> state_;
};

}  // namespace fpsnr::parallel
