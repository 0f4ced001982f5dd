// fpsnr_perfbench — the end-to-end fixed-PSNR benchmark binary.
//
//   fpsnr_perfbench --workload snapshot|series|fpsnrd --seed N --seconds S
//                   --trace 0|1 [--trace-out DIR] [--work-dir DIR]
//                   [--tiny] [--inject-corruption]
//
// Prints the host/build stamp, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1. Exits 1 when any
// operation failed or any output did not check out, 2 on a usage error or
// a non-Release build. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kMinLatencySamples = 1000;

double cap_seconds(const Options& o) { return std::min(120.0, 4.0 * o.seconds); }

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: fpsnr_perfbench --workload "
               "snapshot|series|fpsnrd --seed N --seconds S --trace 0|1 "
               "[--trace-out DIR] [--work-dir DIR] [--tiny] "
               "[--inject-corruption]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!*text || *end || text[0] == '-')
    usage((std::string(flag) + " wants a non-negative integer").c_str());
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((a + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = parse_u64("--seed", value());
    else if (a == "--seconds") {
      const char* text = value();
      char* end = nullptr;
      o.seconds = std::strtod(text, &end);
      if (*end || !(o.seconds > 0.0) || o.seconds > 600.0)
        usage("--seconds wants a number in (0, 600]");
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace wants 0 or 1");
      o.trace = t == "1";
    } else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--inject-corruption") o.inject_corruption = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload != "snapshot" && o.workload != "series" &&
      o.workload != "fpsnrd")
    usage("--workload must be snapshot, series or fpsnrd");
  return o;
}

void print_result(const Options& o, const RunOutput& run) {
  const auto& specs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  const Metrics& values = o.trace ? run.layers : run.end_to_end;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + buf +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      run.tally.failed() == 0 ? "true" : "false", run.tally.attempted(),
      run.tally.failed(), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int run_measured_passes(const Options& options, const PassFn& pass,
                        const std::function<std::size_t()>& samples) {
  const double start = now_seconds();
  int p = 0;
  for (;;) {
    const double measured = pass(p);
    std::fprintf(stderr, "perfbench: pass %d measured %.4f s\n", p, measured);
    ++p;
    const double elapsed = now_seconds() - start;
    if (elapsed >= cap_seconds(options)) break;
    if (p >= 2 && elapsed >= options.seconds &&
        samples() >= kMinLatencySamples)
      break;
  }
  return p;
}

int run_traced_passes(const Options& options, const PassFn& pass,
                      RunOutput& out) {
  const double start = now_seconds();
  int n = 0;
  double untraced = 0.0;
  do {
    untraced += pass(n++);
  } while (now_seconds() - start < options.seconds / 2.0);
  Tracer::install(out.tracer);
  double traced = 0.0;
  for (int k = 0; k < n; ++k) traced += pass(n + k);
  out.layers["trace.overhead_frac"] = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  return n;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (numbers from a "
                 "non-Release build are not comparable); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Tracer tracer;
  RunOutput run;
  if (options.trace) run.tracer = &tracer;
  try {
    if (options.workload == "snapshot") run_snapshot(options, run);
    else if (options.workload == "series") run_series(options, run);
    else run_fpsnrd(options, run);
  } catch (const std::exception& e) {
    run.tally.fail(std::string("workload aborted: ") + e.what());
  }
  Tracer::install(nullptr);
  if (options.trace) run.layers["trace.spans"] = static_cast<double>(tracer.size());

  const auto& specs = options.trace ? per_layer_metrics() : end_to_end_metrics();
  const Metrics& values = options.trace ? run.layers : run.end_to_end;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    // A traced run reports 0 for the layers its workload bypasses; every
    // end-to-end metric must be measured.
    if (!options.trace && it == values.end())
      run.tally.fail(std::string("metric ") + spec.name + " was not measured");
    else if (it != values.end() && !std::isfinite(it->second))
      run.tally.fail(std::string("metric ") + spec.name + " is not finite");
  }

  Stamp stamp = host_stamp(options);
  stamp.insert(run.sizes.begin(), run.sizes.end());
  char gap[32];
  std::snprintf(gap, sizeof gap, "%.3g", run.tally.max_psnr_gap_db());
  stamp["psnr_check_max_gap_db"] = gap;
  const std::string stamp_text = stamp_json(stamp);
  std::printf("perfbench-stamp: %s\n", stamp_text.c_str());
  if (options.trace) {
    std::fprintf(stderr, "perfbench-self-time: %s\n",
                 tracer.self_time_json().c_str());
    if (!options.trace_out.empty()) {
      const std::string path = options.trace_out + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".trace.json";
      if (!tracer.write(path, stamp_text))
        run.tally.fail("cannot write the span file " + path);
      else
        std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    }
  }
  print_result(options, run);
  return run.tally.failed() == 0 ? 0 : 1;
}
