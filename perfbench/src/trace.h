// In-memory span recorder of the traced run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, and the operation id shared by every span of one top-level
// request. Spans are recorded from the benchmark's own code around calls
// into the library's public functions; nothing inside the library is
// instrumented. They stay in memory and are written out when the run ends.
//
// Span always measures (two steady-clock reads — the untraced run needs the
// same timings for its end-to-end metrics); it is only *recorded* when a
// Tracer is installed, so the untraced run pays no recording cost.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id shared by a request's spans
  double start = 0.0;        ///< seconds, steady clock
  double end = 0.0;
};

class Tracer {
 public:
  /// The installed tracer, or nullptr when the run is untraced.
  static Tracer* active();
  static void install(Tracer* tracer);

  std::uint64_t next_id();
  void record(const SpanRecord& span);

  std::vector<SpanRecord> spans() const;
  std::size_t size() const;

  /// Per-name totals — count, wall ms, self ms (duration minus the union of
  /// the intervals its children cover) — as a JSON object.
  std::string self_time_json() const;
  /// Write {"stamp": ..., "self_time": ..., "spans": [...]} to `path`.
  bool write(const std::string& path, const std::string& stamp_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII timer + span. The parent defaults to the innermost open span on
/// this thread; pass one explicitly for work handed to another thread.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  explicit Span(const char* name, std::uint64_t op = 0,
                std::uint64_t parent = kInherit);
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent) and return its duration in seconds.
  double stop();
  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
  bool open_ = true;
};

/// Operation ids for top-level requests (shared counter, process-wide).
std::uint64_t next_op_id();

}  // namespace perfbench
