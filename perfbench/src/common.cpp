#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "data/dataset.h"
#include "simd/dispatch.h"

namespace perfbench {

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t bench_threads() { return std::min<std::size_t>(4, host_cores()); }

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"compress_MBps", "MB/s"},
      {"decompress_MBps", "MB/s"},
      {"block_read_p50_ms", "ms"},
      {"compression_ratio", "x"},
      {"psnr_dev_db", "dB"},
      {"psnr_shortfall_db", "dB"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"requests_per_s", "1/s"},
      {"peak_rss_MB", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.plan_ms", "ms"},
      {"core.finalize_ms", "ms"},
      {"core.block_compress_ms_p50", "ms"},
      {"core.block_compress_ms_max", "ms"},
      {"core.block_decompress_ms_p50", "ms"},
      {"core.blocks", "count"},
      {"core.psnr_overshoot_db_max", "dB"},
      {"sz.quantize_ms", "ms"},
      {"sz.codec_store_ms", "ms"},
      {"sz.replay_cover_frac", "frac"},
      {"huffman.table_build_ms", "ms"},
      {"huffman.alphabet_used_frac", "frac"},
      {"lossless.deflate_ms", "ms"},
      {"lossless.inflate_ms", "ms"},
      {"lossless.bytes_saved_frac", "frac"},
      {"lossless.bytes_saved_frac_low", "frac"},
      {"lossless.bytes_saved_frac_high", "frac"},
      {"lossless.deflate_time_frac", "frac"},
      {"simd.speedup_x", "x"},
      {"parallel.queue_wait_ms_p50", "ms"},
      {"parallel.busy_frac", "frac"},
      {"parallel.scaling_x", "x"},
      {"io.open_container_ms", "ms"},
      {"io.entry_seek_us", "us"},
      {"io.overhead_bytes_frac", "frac"},
      {"temporal.probe_ms", "ms"},
      {"temporal.push_over_spatial_x", "x"},
      {"temporal.delta_block_frac", "frac"},
      {"temporal.ratio_vs_spatial", "x"},
      {"temporal.feed_ms", "ms"},
      {"service.ping_ms", "ms"},
      {"service.server_latency_ms_mean", "ms"},
      {"service.transport_ms", "ms"},
      {"service.rejected", "count"},
      {"trace.overhead_frac", "frac"},
      {"trace.spans", "count"},
  };
  return specs;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Measured::accuracy(double raw, double archive, double target_db,
                        double achieved_db) {
  raw_bytes += raw;
  archive_bytes += archive;
  dev_sum += std::fabs(achieved_db - target_db);
  shortfall = std::max(shortfall, target_db - achieved_db);
  ++compressions;
}

Metrics Measured::end_to_end(double setup_s) const {
  Metrics m;
  m["setup_s"] = setup_s;
  m["compress_MBps"] = compress.median_rate() / 1e6;
  m["decompress_MBps"] = decompress.median_rate() / 1e6;
  m["block_read_p50_ms"] = median(block_read_s) * 1e3;
  m["compression_ratio"] = raw_bytes / archive_bytes;
  m["psnr_dev_db"] = dev_sum / static_cast<double>(compressions);
  m["psnr_shortfall_db"] = shortfall;  // starts at 0, so max(0, worst)
  m["latency_p50_ms"] = quantile(latency_s, 0.50) * 1e3;
  m["latency_p99_ms"] = quantile(latency_s, 0.99) * 1e3;
  m["requests_per_s"] = requests.median_rate();
  m["peak_rss_MB"] = peak_rss_mb();
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double psnr_db(std::span<const float> original,
               std::span<const float> decoded) {
  if (original.size() != decoded.size() || original.empty())
    return std::numeric_limits<double>::quiet_NaN();
  const auto [lo, hi] = std::minmax_element(original.begin(), original.end());
  const double range = static_cast<double>(*hi) - static_cast<double>(*lo);
  double sse = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double d =
        static_cast<double>(original[i]) - static_cast<double>(decoded[i]);
    sse += d * d;
  }
  if (sse == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sse / static_cast<double>(original.size());
  return 20.0 * std::log10(range) - 10.0 * std::log10(mse);
}

void Tally::fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Tally::check_psnr(const std::string& what, double recomputed,
                       double recorded) {
  if (std::isinf(recomputed) && std::isinf(recorded) &&
      (recomputed > 0) == (recorded > 0))
    return;
  const double gap = std::fabs(recomputed - recorded);
  if (gap <= 1e-6) {
    max_psnr_gap_db_ = std::max(max_psnr_gap_db_, gap);
    return;
  }
  max_psnr_gap_db_ = std::max(max_psnr_gap_db_, std::isnan(gap) ? 1e300 : gap);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ": recomputed PSNR %.9f dB, recorded %.9f dB (gap %.3g dB > "
                "1e-6 dB)",
                recomputed, recorded, gap);
  fail(what + buf);
}

std::vector<std::uint8_t> corrupted_copy(std::span<const std::uint8_t> archive) {
  std::vector<std::uint8_t> out(archive.begin(), archive.end());
  for (std::size_t i = out.size() / 2; i < out.size() && i < out.size() / 2 + 64;
       ++i)
    out[i] ^= 0xA5;
  return out;
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

}  // namespace

Stamp host_stamp(const Options& options) {
  Stamp s;
  s["nproc"] = std::to_string(host_cores());
  s["cpu_model"] = cpu_model();
  s["build_type"] = PERFBENCH_BUILD_TYPE;
  s["compiler"] = PERFBENCH_COMPILER;
  s["simd_backend"] = fpsnr::simd::backend_name(fpsnr::simd::active_backend());
  s["workload"] = options.workload;
  s["seed"] = std::to_string(options.seed);
  s["data_seed"] = std::to_string(fpsnr::data::DatasetConfig{}.seed);
  s["seconds"] = std::to_string(options.seconds);
  s["traced"] = options.trace ? "yes" : "no";
  s["tiny"] = options.tiny ? "yes" : "no";
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string stamp_json(const Stamp& stamp) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

double median_setup_seconds(int reps, const std::function<double()>& setup,
                            Tally& tally) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) {
      tally.fail("setup: pipe() failed");
      continue;
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      tally.fail("setup: fork() failed");
      continue;
    }
    if (pid == 0) {
      ::close(fds[0]);
      double elapsed = -1.0;
      try {
        elapsed = setup();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: setup child: %s\n", e.what());
      }
      const ssize_t n = ::write(fds[1], &elapsed, sizeof elapsed);
      ::close(fds[1]);
      ::_exit(n == sizeof elapsed && elapsed >= 0.0 ? 0 : 1);
    }
    ::close(fds[1]);
    double elapsed = -1.0;
    const ssize_t n = ::read(fds[0], &elapsed, sizeof elapsed);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    tally.attempt();
    if (n != sizeof elapsed || elapsed < 0.0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      tally.fail("setup: repetition " + std::to_string(r) + " failed");
      continue;
    }
    samples.push_back(elapsed);
  }
  return median(samples);
}

std::size_t TileBox::count() const {
  std::size_t n = 1;
  for (std::size_t e : ext) n *= e;
  return n;
}

TileBox tile_box(const std::vector<std::size_t>& dims,
                 const std::vector<std::size_t>& tile, std::size_t b) {
  const std::size_t rank = dims.size();
  std::vector<std::size_t> grid(rank);
  for (std::size_t a = 0; a < rank; ++a)
    grid[a] = (dims[a] + tile[a] - 1) / tile[a];
  TileBox box;
  box.start.assign(rank, 0);
  box.ext.assign(rank, 0);
  for (std::size_t a = rank; a-- > 0;) {
    const std::size_t coord = b % grid[a];
    b /= grid[a];
    box.start[a] = coord * tile[a];
    box.ext[a] = std::min(tile[a], dims[a] - box.start[a]);
  }
  return box;
}

std::vector<float> gather(std::span<const float> field,
                          const std::vector<std::size_t>& dims,
                          const TileBox& box) {
  const std::size_t rank = dims.size();
  std::vector<std::size_t> stride(rank, 1);
  for (std::size_t a = rank - 1; a-- > 0;) stride[a] = stride[a + 1] * dims[a + 1];
  std::vector<float> out;
  out.reserve(box.count());
  const std::size_t run = box.ext[rank - 1];
  std::vector<std::size_t> c(rank, 0);  // odometer over the outer axes
  const std::size_t rows = box.count() / run;
  for (std::size_t row = 0; row < rows; ++row) {
    std::size_t offset = box.start[rank - 1];
    for (std::size_t a = 0; a + 1 < rank; ++a)
      offset += (box.start[a] + c[a]) * stride[a];
    out.insert(out.end(), field.begin() + static_cast<std::ptrdiff_t>(offset),
               field.begin() + static_cast<std::ptrdiff_t>(offset + run));
    for (std::size_t a = rank - 1; a-- > 0;) {
      if (++c[a] < box.ext[a]) break;
      c[a] = 0;
    }
  }
  return out;
}

}  // namespace perfbench
