// Shared plumbing of the fpsnr end-to-end benchmark: command-line options,
// the metric catalogue, sample statistics, the correctness tally, the
// host/build stamp, and the fork-per-repetition set-up timer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrunk to run in about a second.
  bool tiny = false;
  /// Corrupt one archive on the decode path (self-test of the failure
  /// accounting): the run must count it as a failed operation.
  bool inject_corruption = false;
  /// Directory the traced run writes its span file into ("" = none).
  std::string trace_out;
  /// Directory for the fpsnrd workload's unix socket.
  std::string work_dir = ".";
};

/// min(4, nproc) — the Session worker cap of the snapshot and series
/// workloads.
std::size_t bench_threads();
std::size_t host_cores();

// --- metric catalogue --------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed by every untraced run), in BENCHMARK.json
/// order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics (printed by every traced run).
const std::vector<MetricSpec>& per_layer_metrics();

/// Metric values of one run, keyed by catalogue name.
using Metrics = std::map<std::string, double>;

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1]; NaN for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);

double now_seconds();  ///< steady clock, seconds

/// A rate measured pass by pass: amounts and seconds accumulate within a
/// pass, close_pass() turns them into one sample, and the run reports the
/// median sample — one disturbed pass cannot drag the figure.
class PassRate {
 public:
  void add(double amount, double seconds) {
    amount_ += amount;
    seconds_ += seconds;
  }
  void close_pass() {
    if (seconds_ > 0.0) samples_.push_back(amount_ / seconds_);
    amount_ = seconds_ = 0.0;
  }
  double median_rate() const { return median(samples_); }

 private:
  double amount_ = 0.0;
  double seconds_ = 0.0;
  std::vector<double> samples_;
};

/// What an untraced run measures. The three workloads fill it the same way,
/// so every end-to-end metric has one definition (see README.md).
struct Measured {
  PassRate compress;    ///< raw bytes per second of compress call time
  PassRate decompress;  ///< raw bytes per second of full-decode call time
  PassRate requests;    ///< calls per second
  std::vector<double> block_read_s;
  std::vector<double> latency_s;  ///< every timed call
  // Accuracy of the first pass (deterministic).
  double raw_bytes = 0.0, archive_bytes = 0.0, dev_sum = 0.0, shortfall = 0.0;
  std::size_t compressions = 0;

  /// One timed call of a single-caller workload.
  void call(double seconds) {
    requests.add(1.0, seconds);
    latency_s.push_back(seconds);
  }
  /// One compression of the first pass.
  void accuracy(double raw, double archive, double target_db,
                double achieved_db);
  void close_pass() {
    compress.close_pass();
    decompress.close_pass();
    requests.close_pass();
  }
  Metrics end_to_end(double setup_s) const;
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

// --- correctness --------------------------------------------------------------

/// PSNR of `decoded` against `original`, recomputed from the values: value
/// range of the original, double-precision SSE.
double psnr_db(std::span<const float> original, std::span<const float> decoded);

/// Running tally of timed operations and failures; failures are printed to
/// stderr with what was checked.
class Tally {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  /// Record a PSNR comparison; fails when |recomputed - recorded| > 1e-6 dB.
  void check_psnr(const std::string& what, double recomputed, double recorded);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  /// Largest |recomputed - recorded| PSNR seen by check_psnr (dB).
  double max_psnr_gap_db() const { return max_psnr_gap_db_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  double max_psnr_gap_db_ = 0.0;
};

/// A copy of `archive` with a run of 64 bytes in its middle flipped — the
/// deliberately corrupted input of the self-test's failure accounting.
std::vector<std::uint8_t> corrupted_copy(std::span<const std::uint8_t> archive);

// --- host and build stamp ----------------------------------------------------

/// Key/value stamp every result carries (printed before the result line and
/// written into the trace file).
using Stamp = std::map<std::string, std::string>;
Stamp host_stamp(const Options& options);
bool release_build();
std::string json_string(const std::string& s);
std::string stamp_json(const Stamp& stamp);

// --- set-up timing ----------------------------------------------------------

/// Run `setup` in `reps` freshly forked children, one after another, and
/// return the median of the set-up seconds the children report (`setup`
/// returns the time it measured). Each child starts from this process's
/// state (inputs generated, no library state touched yet), so every
/// repetition pays the cold first operation. A child that fails is
/// recorded in `tally`.
double median_setup_seconds(int reps, const std::function<double()>& setup,
                            Tally& tally);

// --- tiles ---------------------------------------------------------------------

/// Origin and extents of tile `b` of a field cut into `tile`-sized tiles in
/// C order (trailing tiles on an axis may be short).
struct TileBox {
  std::vector<std::size_t> start, ext;
  std::size_t count() const;
};
TileBox tile_box(const std::vector<std::size_t>& dims,
                 const std::vector<std::size_t>& tile, std::size_t b);
/// Copy tile `box` out of a C-order field.
std::vector<float> gather(std::span<const float> field,
                          const std::vector<std::size_t>& dims,
                          const TileBox& box);

/// Seeded generator for request orders and block picks.
using Rng = std::mt19937_64;

}  // namespace perfbench
