#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distortion_model.h"
#include "core/tile_layout.h"
#include "io/archive.h"
#include "io/streaming_archive.h"
#include "metrics/metrics.h"
#include "parallel/work_queue.h"
#include "sz/stream_format.h"
#include "transform/fixed_rate.h"

namespace fpsnr::core {

namespace {

/// Resolve any uniform-budget control request to the absolute per-point
/// budget every block shares. Throws for modes without one. Validation is
/// delegated to resolve_control so bad requests (non-positive bounds,
/// non-finite PSNR targets) are rejected exactly as the serial facade
/// rejects them. (FixedRate never reaches here — plan_blocks branches to
/// the per-block rate search first.)
template <typename T>
double resolve_budget(const ControlRequest& request, std::span<const T> values,
                      std::optional<double> vr_override,
                      double* value_range_out) {
  // The temporal layer compresses a delta/raw composite whose error
  // contract is against the ORIGINAL snapshot; it overrides the range so
  // the budget (and the recorded header range) stay anchored to it.
  const double vr = vr_override ? *vr_override : metrics::value_range(values);
  if (value_range_out) *value_range_out = vr;
  const ResolvedControl rc = resolve_control(request);
  if (rc.sz_mode == sz::ErrorBoundMode::PointwiseRelative)
    throw std::invalid_argument(
        "block pipeline: only uniform-budget control modes are supported "
        "(fixed-psnr / abs / rel / nrmse)");
  double eb = rc.sz_mode == sz::ErrorBoundMode::Absolute ? rc.sz_bound
                                                         : rc.sz_bound * vr;
  if (!(eb > 0.0)) {
    // Constant field (vr == 0): any tiny budget keeps every point exact.
    eb = std::numeric_limits<double>::min() * 1e6;
  }
  return eb;
}

data::Dims dims_from_header(const io::BlockContainerHeader& h) {
  std::vector<std::size_t> extents(h.extents.begin(), h.extents.end());
  return data::Dims(std::move(extents));
}

template <typename T>
void check_scalar(const io::BlockContainerHeader& h) {
  if (h.scalar != static_cast<std::uint8_t>(sz::scalar_type_of<T>()))
    throw io::StreamError("block pipeline: scalar type mismatch");
}

}  // namespace

bool is_block_stream(std::span<const std::uint8_t> stream) {
  return io::is_block_container(stream);
}

BlockStreamInfo inspect_block_stream(std::span<const std::uint8_t> stream) {
  const auto view = io::open_block_container(stream);
  BlockStreamInfo info;
  info.version = view.header.version;
  info.codec = view.header.codec;
  const BlockCodec* codec = CodecRegistry::instance().find(view.header.codec);
  info.codec_name = codec ? codec->name() : "unknown";
  info.dims = dims_from_header(view.header);
  info.tile.assign(view.header.tile.begin(), view.header.tile.end());
  info.block_count = view.header.block_count;
  info.eb_abs = view.header.eb_abs;
  info.value_range = view.header.value_range;
  info.control_mode = static_cast<ControlMode>(view.header.control_mode);
  info.control_value = view.header.control_value;
  info.budget_mode = static_cast<BudgetMode>(view.header.budget_mode);
  if (view.header.has_temporal_chain()) {
    info.temporal = true;
    info.delta = view.header.is_delta_frame();
    info.series_id = view.header.series_id;
    info.timestep = view.header.timestep;
    info.ref_hash = view.header.ref_hash;
    for (std::size_t b = 0; b < view.header.block_count; ++b)
      if (view.header.block_is_temporal(b)) ++info.temporal_blocks;
  }
  if (view.header.has_block_sse()) {
    double total = 0.0;
    for (double s : view.block_sse) total += s;
    info.achieved_sse = total;
    const double mse = total / static_cast<double>(info.dims.count());
    // vr == 0 follows metrics::compare: +inf only for exact reconstruction.
    info.achieved_psnr_db =
        info.value_range > 0.0
            ? metrics::psnr_from_mse(mse, info.value_range)
            : (total == 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
  } else {
    info.achieved_psnr_db = std::numeric_limits<double>::quiet_NaN();
  }
  return info;
}

namespace {

/// Everything the block loop needs, resolved once per call. Both the
/// in-memory and the streaming entry points build the same plan, so layout,
/// budgets, and header bytes cannot drift between the two paths.
struct BlockPlan {
  double vr = 0.0;
  double eb_abs = 0.0;  ///< base (uniform-equivalent) bound; 0 in rate mode
  TileLayout layout;
  CodecId codec_id = 0;
  const BlockCodec* codec = nullptr;
  BlockParams bp;
  /// Per-block absolute bounds; all equal to eb_abs under Uniform budgets.
  std::vector<double> block_eb;
  /// FixedRate mode: each block bisects its own bound toward this many
  /// compressed bits per value (run_block performs the search, so the
  /// searches parallelize like any other block work).
  bool rate_mode = false;
  double target_bits_per_value = 0.0;
  io::BlockContainerHeader header;
};

/// Adaptive per-block bounds (Eq. 3's general form, reverse-water-filling
/// flavour). A cheap rank-aware probe — per-axis RMS first differences
/// inside each tile — estimates each block's residual scale r_b as the
/// MINIMUM across axes: the neighborhood predictors (Lorenzo,
/// interpolation, transform groups) exploit the smoothest direction, so a
/// tile that is flat along any axis codes at the entropy floor even when a
/// 1-D C-order scan (which crosses row seams) would call it rough — this
/// is exactly the donor class the old 1-D probe missed on 2-D/3-D fields.
/// A block with r_b << eb never spends its allowance anyway: its residuals
/// quantize to the zero bin at any nearby bound, its rate sits at the
/// entropy floor, and its actual SSE is ~n*r^2, not n*eb^2/3. Such blocks
/// donate ledger budget (they are re-encoded at a tightened bound of
/// ~4*r_b, floored so no residual — not even an isolated spike on ANY axis
/// (the peak is the max across axes) — leaves the quantizable range,
/// keeping their rate at the entropy floor), and blocks ON the rate curve
/// (r_b >= eb/2) share the donations as one uniformly wider bin (the
/// log-rate model's optimum is equal bounds across coded blocks), so their
/// bits shrink log-linearly. Bounds stay within [eb/4, 4*eb] and the
/// aggregate worst-case SSE never exceeds the uniform plan's
/// N * eb^2 / 3 — the fixed-PSNR guarantee is preserved verbatim. The
/// probe depends only on the data and the layout, never the thread count.
///
/// Returns per-block bounds, or {} when the plan degenerates to uniform
/// (no block is on the rate curve, or there is nothing to donate).
template <typename T>
std::vector<double> adaptive_budgets(std::span<const T> values,
                                     const data::Dims& dims,
                                     const TileLayout& layout, double eb,
                                     std::uint32_t quantization_bins) {
  const std::size_t count = layout.block_count;
  if (count < 2) return {};
  const std::size_t rank = dims.rank();
  std::size_t stride[3];
  field_strides(dims, stride);
  std::vector<double> residual(count, 0.0);
  std::vector<double> peak(count, 0.0);
  std::vector<double> n_of(count, 0.0);
  for (std::size_t b = 0; b < count; ++b) {
    const TileRegion r = tile_region(layout, dims, b);
    double acc[3] = {0.0, 0.0, 0.0};
    std::size_t pairs[3] = {0, 0, 0};
    double max_d = 0.0;
    // One C-order walk over the tile; every point diffs against its
    // predecessor along each axis it has one (so each axis sees exactly
    // (ext_a - 1) * count / ext_a pairs, all interior to the tile — no
    // cross-row seams).
    std::size_t c[3] = {0, 0, 0};
    for (std::size_t i = 0; i < r.count; ++i) {
      std::size_t offset = 0;
      for (std::size_t a = 0; a < rank; ++a)
        offset += (r.start[a] + c[a]) * stride[a];
      const double v = static_cast<double>(values[offset]);
      for (std::size_t a = 0; a < rank; ++a) {
        if (c[a] == 0) continue;
        const double d =
            v - static_cast<double>(values[offset - stride[a]]);
        acc[a] += d * d;
        ++pairs[a];
        max_d = std::max(max_d, std::abs(d));
      }
      for (std::size_t a = rank; a-- > 0;) {
        if (++c[a] < r.ext[a]) break;
        c[a] = 0;
      }
    }
    double best = std::numeric_limits<double>::infinity();
    bool measured = false, have_pairs = false;
    for (std::size_t a = 0; a < rank; ++a) {
      if (pairs[a] == 0) continue;
      have_pairs = true;
      const double rms = std::sqrt(acc[a] / static_cast<double>(pairs[a]));
      if (std::isfinite(rms)) {
        best = std::min(best, rms);
        measured = true;
      }
    }
    // No pairs at all (single-point tile): a definitive flat donor. Pairs
    // that all went non-finite (NaN samples): keep NaN so the block stays
    // neutral below — exactly the old probe's behaviour on poisoned data.
    residual[b] = measured
                      ? best
                      : (have_pairs ? std::numeric_limits<double>::quiet_NaN()
                                    : 0.0);
    peak[b] = max_d;
    n_of[b] = static_cast<double>(r.count);
  }

  // Tightening a donor must never push one of its residuals outside the
  // quantizable range (|d| <= radius * 2 * eb_b), or an isolated spike in
  // an otherwise flat block would demote to an exactly-stored outlier and
  // grow the block. Keep a 4x safety margin over the block's peak
  // first difference relative to that range.
  const double radius = static_cast<double>(quantization_bins / 2);

  std::vector<double> block_eb(count, eb);
  double donated = 0.0;      // ledger budget freed by floor blocks
  double receiver_n = 0.0;   // values in rate-curve blocks
  for (std::size_t b = 0; b < count; ++b) {
    if (residual[b] < eb / 4.0) {
      // Floor block: tighten the recorded bound toward 4x its residual
      // scale (never below eb/4, never below the spike floor above);
      // typical residuals stay deep inside the zero bin, so the coded
      // bytes barely move while the ledger frees budget.
      const double spike_floor = 2.0 * peak[b] / radius;
      block_eb[b] =
          std::min(eb, std::max({4.0 * residual[b], spike_floor, eb / 4.0}));
      donated += n_of[b] * (eb * eb - block_eb[b] * block_eb[b]);
    } else if (residual[b] >= eb / 2.0) {
      receiver_n += n_of[b];
    }
  }
  if (receiver_n == 0.0 || donated <= 0.0) return {};

  const double widened =
      std::min(std::sqrt(eb * eb + donated / receiver_n), 4.0 * eb);
  for (std::size_t b = 0; b < count; ++b)
    if (residual[b] >= eb / 2.0) block_eb[b] = widened;
  return block_eb;
}

template <typename T>
BlockPlan plan_blocks(std::span<const T> values, const data::Dims& dims,
                      const ControlRequest& request,
                      const CompressOptions& options) {
  if (values.size() != dims.count())
    throw std::invalid_argument("block pipeline: value count does not match dims");

  BlockPlan plan;
  if (request.mode == ControlMode::FixedRate) {
    // Rate mode has no global error budget to split: every block bisects
    // its own bound in run_block. eb_abs = 0 in the header says "per-block,
    // see the self-describing block payloads" (each block stream records
    // the bound it was coded at).
    if (!(request.value > 0.0) || !std::isfinite(request.value))
      throw std::invalid_argument(
          "block pipeline: fixed-rate target must be positive and finite "
          "bits per value");
    plan.vr = options.value_range_override
                  ? *options.value_range_override
                  : metrics::value_range(values);
    plan.rate_mode = true;
    plan.target_bits_per_value = request.value;
  } else {
    plan.eb_abs = resolve_budget(request, values, options.value_range_override,
                                 &plan.vr);
  }
  plan.layout = make_layout(dims, options.parallel.tile);

  plan.codec_id = static_cast<CodecId>(options.engine);
  plan.codec = &CodecRegistry::instance().at(plan.codec_id);

  plan.bp.eb_abs = plan.eb_abs;
  plan.bp.quantization_bins = options.quantization_bins;
  plan.bp.backend = options.backend;
  plan.bp.predictor = options.sz_predictor;
  plan.bp.haar_levels = options.haar_levels;
  plan.bp.dct_block = options.dct_block;

  plan.block_eb.assign(plan.layout.block_count, plan.eb_abs);
  BudgetMode budget = options.budget;
  // Adaptive reallocation trades pointwise slack for aggregate rate, so it
  // only applies to the aggregate-distortion control modes (fixed-PSNR /
  // fixed-NRMSE). Absolute and value-range-relative requests are pointwise
  // |err| <= bound contracts — widening any block would break them, so
  // those plans stay uniform no matter what the option says.
  const bool aggregate_mode = request.mode == ControlMode::FixedPsnr ||
                              request.mode == ControlMode::FixedNrmse;
  if (budget == BudgetMode::Adaptive) {
    auto bounds = aggregate_mode && plan.vr > 0.0
                      ? adaptive_budgets(values, dims, plan.layout, plan.eb_abs,
                                         plan.bp.quantization_bins)
                      : std::vector<double>{};
    if (bounds.empty())
      budget = BudgetMode::Uniform;  // degenerate field: nothing to shift
    else
      plan.block_eb = std::move(bounds);
  }

  plan.header.codec = plan.codec_id;
  plan.header.scalar = static_cast<std::uint8_t>(sz::scalar_type_of<T>());
  plan.header.extents.assign(dims.extents.begin(), dims.extents.end());
  plan.header.tile.assign(plan.layout.tile.begin(), plan.layout.tile.end());
  plan.header.block_count = plan.layout.block_count;
  plan.header.eb_abs = plan.eb_abs;
  plan.header.value_range = plan.vr;
  plan.header.control_mode = static_cast<std::uint8_t>(request.mode);
  plan.header.control_value = request.value;
  plan.header.budget_mode = static_cast<std::uint8_t>(budget);
  if (options.temporal.enabled) {
    // Series frame: stamp the container v4 and carry the chain identity.
    // The bitmap must match THIS plan's block layout — the temporal layer
    // computes it from the same make_layout, but a caller handing in a
    // stale bitmap would silently mislabel blocks, so size-check it here.
    const TemporalLink& link = options.temporal;
    if (link.block_modes.size() != (plan.layout.block_count + 7) / 8)
      throw std::invalid_argument(
          "block pipeline: temporal mode bitmap does not match the block "
          "layout");
    plan.header.version = io::kBlockContainerVersionTemporal;
    plan.header.temporal_flags =
        static_cast<std::uint8_t>(io::kTemporalFlagSeries |
                                  (link.delta ? io::kTemporalFlagDelta : 0));
    plan.header.series_id = link.series_id;
    plan.header.timestep = link.timestep;
    plan.header.ref_hash = link.ref_hash;
    plan.header.block_modes = link.block_modes;
  }
  return plan;
}

/// Per-block fixed-rate search: bisect the block's absolute bound until the
/// codec's output lands on `target_bits` compressed bits per value.
///
/// The seed is closed-form, not a blind probe: a zfpr-style width census at
/// a reference bound eb0 (transform::fixed_rate_bits_estimate — one forward
/// DCT plus a per-group max-|index| scan, no encoding) gives rate(eb0), and
/// since every halving of the bound widens each bit-packed group by ~1 bit,
/// rate(eb) ~= rate(eb0) + log2(eb0/eb). Inverting that law lands the seed
/// within a bit or two of the target for any codec (the DCT census is a
/// decorrelation proxy even for the predictor paths), so the geometric
/// bisection that follows converges in a handful of real encodes.
///
/// Deterministic by construction: the search depends only on the block's
/// data and the plan — never on scheduling — so fixed-rate archives are
/// byte-identical at any thread count like every other mode.
template <typename T>
std::vector<std::uint8_t> rate_search_block(const BlockPlan& plan,
                                            std::span<const T> slice,
                                            const data::Dims& tile_dims,
                                            BlockInfo* info) {
  const double n = static_cast<double>(slice.size());
  const double target_bytes = plan.target_bits_per_value * n / 8.0;
  if (plan.vr == 0.0) {
    // Degenerate (constant) field: its rate sits at the entropy floor for
    // any bound, so searching could only trade exactness for nothing —
    // encode once with the same tiny budget the error-bounded modes use
    // and keep the field exact. (A NaN range — NaN samples in a varying
    // field — is NOT degenerate; it falls through to the search, which
    // re-derives its scale from the finite samples below.)
    BlockParams bp = plan.bp;
    bp.eb_abs = std::numeric_limits<double>::min() * 1e6;
    return plan.codec->compress(slice, tile_dims, bp, info);
  }
  // A single NaN/Inf sample makes the plan's value range non-finite, which
  // would poison every derived bound below (eb_min/eb_max = Inf, and the
  // census seed would reject its own Inf error bound). The search only
  // needs a magnitude scale, so fall back to the largest finite |value| in
  // the block (or 1.0 when nothing is finite) — the codecs themselves
  // store non-finite samples as exact outliers at any bound.
  double scale = plan.vr;
  if (!std::isfinite(scale)) {
    double max_abs = 0.0;
    for (const T v : slice) {
      const double d = std::abs(static_cast<double>(v));
      if (std::isfinite(d) && d > max_abs) max_abs = d;
    }
    scale = max_abs > 0.0 ? max_abs : 1.0;
  }
  // Bounds outside this window are degenerate: below eb_min the quantizer
  // is at float-precision resolution; above eb_max the whole range fits in
  // one bin and the rate cannot drop further.
  const double eb_min = scale * 1e-12;
  const double eb_max = scale * 4.0;

  auto encode = [&](double eb, BlockInfo* bi) {
    BlockParams bp = plan.bp;
    bp.eb_abs = eb;
    return plan.codec->compress(slice, tile_dims, bp, bi);
  };

  // Closed-form seed from the per-group width census.
  transform::FixedRateParams census;
  census.eb_abs = scale * 1e-4;
  census.dct_block = plan.bp.dct_block;
  const double est_bits =
      transform::fixed_rate_bits_estimate(slice, tile_dims, census);
  double eb = std::clamp(
      census.eb_abs * std::exp2(est_bits - plan.target_bits_per_value),
      eb_min, eb_max);
  // std::clamp passes NaN through (and a non-finite census on pathological
  // data can produce one); restart the bisection from the window's
  // geometric midpoint instead of feeding NaN to the codec.
  if (!std::isfinite(eb)) eb = std::sqrt(eb_min * eb_max);

  BlockInfo best_info;
  std::vector<std::uint8_t> best_bytes = encode(eb, &best_info);
  double best_gap = std::abs(static_cast<double>(best_bytes.size()) -
                             target_bytes);
  double best_eb = eb;

  // Keep the encode whose size sits closest to the target; ties go to the
  // smaller bound (same bytes, less distortion).
  auto consider = [&](double cand_eb, std::vector<std::uint8_t>&& bytes,
                      const BlockInfo& bi) {
    const double gap =
        std::abs(static_cast<double>(bytes.size()) - target_bytes);
    if (gap < best_gap || (gap == best_gap && cand_eb < best_eb)) {
      best_gap = gap;
      best_eb = cand_eb;
      best_bytes = std::move(bytes);
      best_info = bi;
    }
  };

  // Bracket the target: rate decreases monotonically as the bound grows.
  double lo = eb, hi = eb;  // bytes(lo) >= target >= bytes(hi)
  if (static_cast<double>(best_bytes.size()) > target_bytes) {
    while (hi < eb_max) {
      hi = std::min(hi * 4.0, eb_max);
      BlockInfo bi;
      auto bytes = encode(hi, &bi);
      const bool done = static_cast<double>(bytes.size()) <= target_bytes;
      consider(hi, std::move(bytes), bi);
      if (done) break;
      lo = hi;  // still over target: the bracket floor moves up with it
    }
  } else {
    while (lo > eb_min) {
      lo = std::max(lo / 4.0, eb_min);
      BlockInfo bi;
      auto bytes = encode(lo, &bi);
      const bool done = static_cast<double>(bytes.size()) >= target_bytes;
      consider(lo, std::move(bytes), bi);
      if (done) break;
      hi = lo;  // still under target: the bracket ceiling moves down
    }
  }

  // Geometric bisection inside the bracket; keep the closest encode seen.
  for (int iter = 0; iter < 14 && hi / lo > 1.0 + 1e-3; ++iter) {
    const double mid = std::sqrt(lo * hi);
    BlockInfo bi;
    auto bytes = encode(mid, &bi);
    const bool over = static_cast<double>(bytes.size()) > target_bytes;
    consider(mid, std::move(bytes), bi);
    if (over)
      lo = mid;
    else
      hi = mid;
  }

  if (info) *info = best_info;
  return best_bytes;
}

/// Per-block budget accounting: every value must be covered exactly once,
/// and the per-block SSE budgets must sum back to the serial model
/// N * eb^2 / 3 — i.e. blocking spent exactly the global budget, no more.
/// Both entry points call this BEFORE finalizing their output (serializing
/// / renaming onto the target path), so a validation failure never
/// installs an archive. Size-dependent fields are filled by
/// set_size_info once the container size is known.
template <typename T>
CompressResult account_blocks(const BlockPlan& plan, std::span<const T> values,
                              const ControlRequest& request,
                              const std::vector<BlockInfo>& block_infos) {
  CompressResult out;
  out.request = request;
  out.block_count = plan.layout.block_count;
  out.tile = plan.layout.tile;
  std::size_t covered = 0;
  double sse_budget = 0.0;
  double achieved_sse = 0.0;
  for (const BlockInfo& bi : block_infos) {
    covered += bi.value_count;
    sse_budget += bi.sse_budget;
    achieved_sse += bi.achieved_sse;
    out.info.outlier_count += bi.outlier_count;
  }
  if (covered != values.size())
    throw std::logic_error("block pipeline: blocks do not cover the field");
  if (plan.rate_mode) {
    // Fixed-rate mode has no global error budget to enforce: each block
    // chose its own bound to land on the rate target, so the only honest
    // PSNR is the measured one from the per-block SSE column.
    out.predicted_psnr_db = std::numeric_limits<double>::quiet_NaN();
    // vr == 0 follows metrics::compare's convention: +inf only when the
    // reconstruction is exact.
    out.achieved_psnr_db =
        plan.vr > 0.0
            ? metrics::psnr_from_mse(
                  achieved_sse / static_cast<double>(values.size()), plan.vr)
            : (achieved_sse == 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0);
    out.rel_bound_used = 0.0;
    out.info.eb_abs_used = 0.0;
    out.info.value_range = plan.vr;
    out.info.value_count = values.size();
    out.info.achieved_sse = achieved_sse;
    return out;
  }
  const double global_budget =
      static_cast<double>(values.size()) * plan.eb_abs * plan.eb_abs / 3.0;
  if (sse_budget > global_budget * (1.0 + 1e-9))
    throw std::logic_error("block pipeline: per-block budgets exceed the "
                           "global error budget");

  out.predicted_psnr_db = plan.vr > 0.0
                              ? psnr_for_abs_bound(plan.eb_abs, plan.vr)
                              : std::numeric_limits<double>::infinity();
  out.achieved_psnr_db =
      plan.vr > 0.0
          ? metrics::psnr_from_mse(
                achieved_sse / static_cast<double>(values.size()), plan.vr)
          : std::numeric_limits<double>::infinity();
  out.rel_bound_used = plan.vr > 0.0 ? plan.eb_abs / plan.vr : 0.0;
  out.info.eb_abs_used = plan.eb_abs;
  out.info.value_range = plan.vr;
  out.info.value_count = values.size();
  out.info.achieved_sse = achieved_sse;
  return out;
}

void set_size_info(CompressResult& out, std::size_t raw_bytes,
                   std::size_t compressed_bytes) {
  out.info.compressed_bytes = compressed_bytes;
  out.info.compression_ratio =
      metrics::compression_ratio(raw_bytes, compressed_bytes);
  out.info.bit_rate = metrics::bit_rate(compressed_bytes, out.info.value_count);
}

}  // namespace

/// All job state behind the pimpl. Exactly one of `mem` / `file` is
/// engaged, chosen by which constructor ran. `remaining` is the only
/// cross-thread coordination run_block needs: the writers do their own
/// locking, block_infos slots are per-index, and the plan is immutable
/// after construction.
template <typename T>
struct FieldCompressor<T>::Impl {
  std::span<const T> values;
  data::Dims dims;
  ControlRequest request;
  BlockPlan plan;
  std::vector<BlockInfo> block_infos;
  std::optional<io::BlockContainerWriter> mem;
  std::optional<io::StreamingArchiveWriter> file;
  std::atomic<std::size_t> remaining{0};
  bool finalized = false;

  Impl(std::span<const T> v, const data::Dims& d, const ControlRequest& r,
       const CompressOptions& options)
      : values(v), dims(d), request(r),
        plan(plan_blocks(v, d, r, options)),
        block_infos(plan.layout.block_count),
        remaining(plan.layout.block_count) {}
};

template <typename T>
FieldCompressor<T>::FieldCompressor(std::span<const T> values,
                                    const data::Dims& dims,
                                    const ControlRequest& request,
                                    const CompressOptions& options)
    : impl_(std::make_unique<Impl>(values, dims, request, options)) {
  impl_->mem.emplace(impl_->plan.header);
}

template <typename T>
FieldCompressor<T>::FieldCompressor(std::span<const T> values,
                                    const data::Dims& dims,
                                    const ControlRequest& request,
                                    const CompressOptions& options,
                                    std::string path)
    : impl_(std::make_unique<Impl>(values, dims, request, options)) {
  impl_->file.emplace(std::move(path), impl_->plan.header);
}

template <typename T>
FieldCompressor<T>::~FieldCompressor() = default;

template <typename T>
FieldCompressor<T>::FieldCompressor(FieldCompressor&&) noexcept = default;

template <typename T>
FieldCompressor<T>& FieldCompressor<T>::operator=(FieldCompressor&&) noexcept =
    default;

template <typename T>
std::size_t FieldCompressor<T>::block_count() const {
  return impl_->plan.layout.block_count;
}

template <typename T>
bool FieldCompressor<T>::complete() const {
  return impl_->remaining.load(std::memory_order_acquire) == 0;
}

template <typename T>
bool FieldCompressor<T>::run_block(std::size_t b) {
  Impl& im = *impl_;
  const BlockPlan& plan = im.plan;
  if (b >= plan.layout.block_count)
    throw std::out_of_range("block pipeline: run_block index out of range");
  const TileRegion region = tile_region(plan.layout, im.dims, b);
  const data::Dims tile_dims = region_dims(region, im.dims.rank());
  // Slab-shaped tiles (the only geometry v1/v2 had) are contiguous runs of
  // the field buffer and are borrowed in place; true multi-axis tiles are
  // gathered into a scratch copy the codec sees as a dense C-order field.
  std::vector<T> gathered;
  std::span<const T> slice;
  if (region_contiguous(region, im.dims)) {
    slice = im.values.subspan(region.start[0] * plan.layout.row_stride,
                              region.count);
  } else {
    gathered.resize(region.count);
    gather_tile(im.values, im.dims, region, std::span<T>(gathered));
    slice = gathered;
  }
  std::vector<std::uint8_t> bytes;
  if (plan.rate_mode) {
    bytes = rate_search_block(plan, slice, tile_dims, &im.block_infos[b]);
  } else {
    BlockParams bp = plan.bp;
    bp.eb_abs = plan.block_eb[b];
    bytes = plan.codec->compress(slice, tile_dims, bp, &im.block_infos[b]);
  }
  // A block whose primary encoding is no smaller than the raw passthrough
  // is demoted to the store codec — the decision depends only on the data,
  // so output bytes stay schedule- and thread-count independent.
  if (plan.codec_id != kCodecStore &&
      bytes.size() >= store_encoded_size(slice.size(), sizeof(T))) {
    im.block_infos[b] = BlockInfo{};
    // The store stand-in must account the block's OWN bound (adaptive
    // plans tighten/widen per block; rate mode records 0) or the
    // sse_budget sum drifts from the plan the accounting validates.
    BlockParams store_bp = plan.bp;
    store_bp.eb_abs = plan.block_eb[b];
    bytes = CodecRegistry::instance().at(kCodecStore).compress(
        slice, tile_dims, store_bp, &im.block_infos[b]);
  }
  // Non-finite samples poison the block's SSE (NaN - NaN = NaN even when
  // the sample was stored as an exact outlier), and the container's SSE
  // column is finite by contract. Record 0 for such a block: pointwise
  // codecs really did reproduce the poisoned samples exactly, and any
  // aggregate distortion metric over a non-finite field is meaningless
  // regardless of what we record.
  if (!std::isfinite(im.block_infos[b].achieved_sse))
    im.block_infos[b].achieved_sse = 0.0;
  // The writers reject duplicate indices, so a double-run can never reach
  // the counter and mis-report completion.
  if (im.mem)
    im.mem->add_block(b, std::move(bytes), im.block_infos[b].achieved_sse);
  else
    im.file->add_block(b, std::move(bytes), im.block_infos[b].achieved_sse);
  return im.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

template <typename T>
std::uint64_t FieldCompressor<T>::locality_key(std::size_t b) const {
  // Coarsen the tile grid by 2 per axis: the 2^rank tiles of one coarse
  // cell share faces (and the rows flanking them share cache lines), so a
  // locality-aware queue keeps them on one worker. +1 keeps the key
  // non-zero — 0 means "no affinity" to the scheduler.
  const TileLayout& l = impl_->plan.layout;
  const std::size_t rank = impl_->dims.rank();
  std::uint64_t key = 0;
  std::size_t rem = b;
  for (std::size_t a = rank; a-- > 0;) {
    const std::size_t c = rem % l.grid[a];
    rem /= l.grid[a];
    const std::uint64_t coarse_count = (l.grid[a] + 1) / 2;
    key = key * coarse_count + (c / 2);
  }
  return key + 1;
}

template <typename T>
CompressResult FieldCompressor<T>::finalize(io::StreamingStats* stats) {
  Impl& im = *impl_;
  if (im.finalized)
    throw std::logic_error("block pipeline: finalize called twice");
  if (!complete())
    throw std::logic_error("block pipeline: finalize before every block ran");
  // Validate the budget accounting BEFORE finishing the writer: if it
  // fails, the streaming writer is destroyed unfinished and the partial
  // file removed — nothing is ever installed at the target path for a run
  // the API reports as failed.
  CompressResult out =
      account_blocks(im.plan, im.values, im.request, im.block_infos);
  if (im.mem) {
    out.stream = im.mem->finish();
    set_size_info(out, im.values.size() * sizeof(T), out.stream.size());
  } else {
    const std::uint64_t total = im.file->finish();
    if (stats) *stats = im.file->stats();
    set_size_info(out, im.values.size() * sizeof(T),
                  static_cast<std::size_t>(total));
  }
  im.finalized = true;
  return out;
}

template <typename T>
CompressResult compress_blocked(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options) {
  FieldCompressor<T> job(values, dims, request, options);
  parallel::WorkQueue queue;
  for (std::size_t b = 0; b < job.block_count(); ++b)
    queue.push([&job, b] { job.run_block(b); });
  queue.drain(options.parallel.threads);
  return job.finalize();
}

template <typename T>
CompressResult compress_to_file(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options,
                                const std::string& path,
                                io::StreamingStats* stats) {
  FieldCompressor<T> job(values, dims, request, options, path);
  parallel::WorkQueue queue;
  for (std::size_t b = 0; b < job.block_count(); ++b)
    queue.push([&job, b] { job.run_block(b); });
  queue.drain(options.parallel.threads);
  return job.finalize(stats);
}

template <typename T>
sz::Decompressed<T> decompress_blocked(std::span<const std::uint8_t> stream,
                                       std::size_t threads) {
  const auto view = io::open_block_container(stream);
  check_scalar<T>(view.header);
  const data::Dims dims = dims_from_header(view.header);
  const std::vector<std::size_t> tile(view.header.tile.begin(),
                                      view.header.tile.end());
  const TileLayout layout = make_layout(dims, tile);
  if (layout.block_count != view.blocks.size())
    throw io::StreamError("block pipeline: index/block-count mismatch");
  const BlockCodec& codec = CodecRegistry::instance().at(view.header.codec);
  const BlockCodec& store = CodecRegistry::instance().at(kCodecStore);

  sz::Decompressed<T> out;
  out.dims = dims;
  out.values.resize(dims.count());
  std::span<T> all(out.values);
  parallel::WorkQueue queue;
  for (std::size_t b = 0; b < layout.block_count; ++b)
    queue.push([&, b] {
      const TileRegion region = tile_region(layout, dims, b);
      // Incompressible blocks are store-demoted at compress time; each
      // block's own magic says which codec wrote it.
      const BlockCodec& c =
          is_store_block_stream(view.blocks[b]) ? store : codec;
      if (region_contiguous(region, dims)) {
        c.decompress(view.blocks[b],
                     all.subspan(region.start[0] * layout.row_stride,
                                 region.count));
      } else {
        std::vector<T> scratch(region.count);
        c.decompress(view.blocks[b], std::span<T>(scratch));
        scatter_tile(std::span<const T>(scratch), dims, region, all);
      }
    });
  queue.drain(threads);
  return out;
}

template <typename T>
sz::Decompressed<T> decompress_block(std::span<const std::uint8_t> stream,
                                     std::size_t block_index) {
  const io::BlockContainerHeader header = io::block_container_header(stream);
  check_scalar<T>(header);
  const auto bytes = io::block_container_entry(stream, block_index);
  const data::Dims dims = dims_from_header(header);
  const std::vector<std::size_t> tile(header.tile.begin(), header.tile.end());
  const TileLayout layout = make_layout(dims, tile);
  const TileRegion region = tile_region(layout, dims, block_index);
  const BlockCodec& codec = CodecRegistry::instance().at(
      is_store_block_stream(bytes) ? kCodecStore : header.codec);

  sz::Decompressed<T> out;
  out.dims = region_dims(region, dims.rank());
  out.values.resize(out.dims.count());
  codec.decompress(bytes, std::span<T>(out.values));
  return out;
}

template <typename T>
sz::Decompressed<T> decompress_file(const std::string& path,
                                    std::size_t threads) {
  const io::MmapArchiveReader reader(path);
  return decompress_blocked<T>(reader.bytes(), threads);
}

template <typename T>
sz::Decompressed<T> decompress_file_block(const std::string& path,
                                          std::size_t block_index) {
  const io::MmapArchiveReader reader(path);
  return decompress_block<T>(reader.bytes(), block_index);
}

template class FieldCompressor<float>;
template class FieldCompressor<double>;
template CompressResult compress_blocked<float>(std::span<const float>,
                                                const data::Dims&,
                                                const ControlRequest&,
                                                const CompressOptions&);
template CompressResult compress_blocked<double>(std::span<const double>,
                                                 const data::Dims&,
                                                 const ControlRequest&,
                                                 const CompressOptions&);
template sz::Decompressed<float> decompress_blocked<float>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<double> decompress_blocked<double>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<float> decompress_block<float>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<double> decompress_block<double>(
    std::span<const std::uint8_t>, std::size_t);
template CompressResult compress_to_file<float>(
    std::span<const float>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
template CompressResult compress_to_file<double>(
    std::span<const double>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
template sz::Decompressed<float> decompress_file<float>(const std::string&,
                                                        std::size_t);
template sz::Decompressed<double> decompress_file<double>(const std::string&,
                                                          std::size_t);
template sz::Decompressed<float> decompress_file_block<float>(
    const std::string&, std::size_t);
template sz::Decompressed<double> decompress_file_block<double>(
    const std::string&, std::size_t);

}  // namespace fpsnr::core
