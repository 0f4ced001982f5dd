#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common.h"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_next_op{1};
thread_local std::uint64_t t_current = 0;

}  // namespace

Tracer* Tracer::active() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::install(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string Tracer::self_time_json() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : all)
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);

  struct Totals {
    std::size_t count = 0;
    double wall = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const SpanRecord& s : all) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    Totals& t = by_name[s.name];
    ++t.count;
    t.wall += s.end - s.start;
    t.self += (s.end - s.start) - covered;
  }

  std::string out = "{";
  bool first = true;
  char buf[160];
  for (const auto& [name, t] : by_name) {
    std::snprintf(buf, sizeof buf,
                  "\"count\": %zu, \"wall_ms\": %.6f, \"self_ms\": %.6f}",
                  t.count, t.wall * 1e3, t.self * 1e3);
    out += (first ? "\n  " : ",\n  ") + json_string(name) + ": {" + buf;
    first = false;
  }
  return out + "\n}";
}

bool Tracer::write(const std::string& path,
                   const std::string& stamp_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"stamp\": %s,\n\"self_time\": %s,\n\"spans\": [",
               stamp_json.c_str(), self_time_json().c_str());
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"op\": %llu, \"start\": %.9f, \"end\": %.9f}",
                 i ? "," : "", s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.start, s.end);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t op, std::uint64_t parent) {
  record_.name = name;
  record_.op = op;
  if (Tracer* tracer = Tracer::active()) {
    record_.id = tracer->next_id();
    record_.parent = parent == kInherit ? t_current : parent;
    saved_current_ = t_current;
    t_current = record_.id;
  }
  record_.start = now_seconds();
}

double Span::stop() {
  if (open_) {
    record_.end = now_seconds();
    open_ = false;
    if (record_.id != 0) {
      t_current = saved_current_;
      if (Tracer* tracer = Tracer::active()) tracer->record(record_);
    }
  }
  return record_.end - record_.start;
}

std::uint64_t next_op_id() {
  return g_next_op.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench
