// fpsnr::TimeSeriesSession / TimeSeriesDecoder — the temporal facade.
//
// The encoder keeps the chain bit-synchronized with every decoder by
// closed-loop prediction: after emitting each frame it decodes its OWN
// archive and applies the reference with the same float operations the
// decoder will run, so the reconstruction it predicts the next frame from
// is the decoder's reconstruction, bit for bit. Keyframes therefore exist
// for random access (they bound the replay chain), not for error control —
// each frame's budget is resolved against its own original snapshot.
#include "fpsnr/timeseries.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "facade/facade_detail.h"
#include "io/archive.h"
#include "io/bytebuffer.h"
#include "metrics/metrics.h"
#include "temporal/temporal.h"

namespace fpsnr {

namespace {

data::Dims to_dims(const std::vector<std::size_t>& extents) {
  return data::Dims(std::vector<std::size_t>(extents));
}

/// True when snapshot `t` of a series with this keyframe interval is coded
/// spatially. One shared predicate so push() and decode_range()'s replay
/// start can never disagree.
bool is_keyframe(std::size_t t, std::size_t interval) {
  return t == 0 || (interval > 0 && t % interval == 0);
}

}  // namespace

// --- TimeSeriesSession ------------------------------------------------------

struct TimeSeriesSession::Impl {
  TimeSeriesOptions opts;
  core::ControlRequest request;
  core::CompressOptions base;
  std::size_t threads = 1;
  std::uint64_t series_id = 0;

  // Chain state, locked by the first push.
  bool started = false;
  bool is_double = false;
  data::Dims dims;
  std::vector<float> ref32;   ///< previous reconstruction (f32 series)
  std::vector<double> ref64;  ///< previous reconstruction (f64 series)
  std::size_t count = 0;      ///< snapshots pushed
  std::vector<std::vector<std::uint8_t>> archives;  ///< keep_archives only

  Impl(const Target& target, TimeSeriesOptions o)
      : opts(std::move(o)), request(facade::to_request(target)) {
    if (std::holds_alternative<PointwiseRel>(target))
      throw std::invalid_argument(
          "TimeSeriesSession: pointwise-relative targets are not supported "
          "(the temporal chain runs the block pipeline)");
    if (opts.series.empty())
      throw std::invalid_argument("TimeSeriesSession: series name is empty");
    base = facade::resolve_session_options(opts.session, &threads);
    series_id = temporal::hash_series_name(opts.series);
  }

  template <typename T>
  SnapshotRecord push_values(std::span<const T> values);
  std::span<const float> ref_f32() const { return ref32; }
  std::span<const double> ref_f64() const { return ref64; }
};

template <typename T>
SnapshotRecord TimeSeriesSession::Impl::push_values(std::span<const T> values) {
  const std::size_t t = count;
  const bool keyframe = is_keyframe(t, opts.keyframe_interval);
  const core::TileLayout layout = core::make_layout(dims, base.parallel.tile);

  std::span<const T> ref;
  if constexpr (std::is_same_v<T, double>)
    ref = ref64;
  else
    ref = ref32;

  core::CompressOptions copts = base;
  copts.temporal.enabled = true;
  copts.temporal.series_id = series_id;
  copts.temporal.timestep = t;

  temporal::CompositePlan<T> composite;
  std::span<const T> coded = values;
  if (keyframe) {
    copts.temporal.delta = false;
    copts.temporal.ref_hash = 0;
    copts.temporal.block_modes.assign((layout.block_count + 7) / 8, 0);
  } else {
    composite = temporal::build_composite<T>(values, ref, dims, layout);
    copts.temporal.delta = true;
    copts.temporal.ref_hash = temporal::hash_values<T>(ref);
    copts.temporal.block_modes = composite.block_modes;
    // The composite mixes deltas and raw tiles; the error contract — and
    // the recorded range the archive reports PSNR against — belong to the
    // original snapshot.
    copts.value_range_override = metrics::value_range(values);
    coded = composite.values;
  }

  core::CompressResult result =
      core::compress_blocked<T>(coded, dims, request, copts);

  // Closed loop: replay the decoder on our own frame so the stored
  // reference is the decoder's reconstruction, bit for bit.
  auto decoded = core::decompress_blocked<T>(result.stream, threads);
  if (!keyframe)
    temporal::apply_reference<T>(std::span<T>(decoded.values), ref, dims,
                                 layout, copts.temporal.block_modes);
  // The pipeline's own figure measures the coded composite (deltas rounded
  // to T); what a reader of this frame gets is `decoded`, so report that.
  const double achieved_psnr_db =
      metrics::compare<T>(values, decoded.values).psnr_db;
  if constexpr (std::is_same_v<T, double>)
    ref64 = std::move(decoded.values);
  else
    ref32 = std::move(decoded.values);

  SnapshotRecord rec;
  rec.timestep = t;
  rec.keyframe = keyframe;
  rec.temporal_blocks = keyframe ? 0 : composite.temporal_blocks;
  rec.block_count = layout.block_count;
  rec.report.value_count = result.info.value_count;
  rec.report.compressed_bytes = result.info.compressed_bytes;
  rec.report.compression_ratio = result.info.compression_ratio;
  rec.report.bit_rate = result.info.bit_rate;
  rec.report.predicted_psnr_db = result.predicted_psnr_db;
  rec.report.achieved_psnr_db = achieved_psnr_db;
  rec.report.rel_bound_used = result.rel_bound_used;
  rec.report.outlier_count = result.info.outlier_count;
  rec.report.block_count = result.block_count;
  rec.report.tile = result.tile;
  rec.report.archive = std::move(result.stream);
  if (opts.keep_archives) archives.push_back(rec.report.archive);
  ++count;
  return rec;
}

TimeSeriesSession::TimeSeriesSession(Target target, TimeSeriesOptions options)
    : impl_(std::make_unique<Impl>(target, std::move(options))) {}

TimeSeriesSession::~TimeSeriesSession() = default;
TimeSeriesSession::TimeSeriesSession(TimeSeriesSession&&) noexcept = default;
TimeSeriesSession& TimeSeriesSession::operator=(TimeSeriesSession&&) noexcept =
    default;

const TimeSeriesOptions& TimeSeriesSession::options() const {
  return impl_->opts;
}

SnapshotRecord TimeSeriesSession::push(const Field& snapshot) {
  Impl& im = *impl_;
  const bool has32 = !snapshot.f32.empty();
  const bool has64 = !snapshot.f64.empty();
  if (has32 == has64)
    throw std::invalid_argument(
        "TimeSeriesSession::push: exactly one of f32/f64 must be filled");
  const data::Dims dims = to_dims(snapshot.dims);  // validates rank 1..3
  const std::size_t n = has64 ? snapshot.f64.size() : snapshot.f32.size();
  if (n != dims.count())
    throw std::invalid_argument(
        "TimeSeriesSession::push: value count does not match dims");
  if (!im.started) {
    im.dims = dims;
    im.is_double = has64;
    im.started = true;
  } else if (dims.extents != im.dims.extents || has64 != im.is_double) {
    throw std::invalid_argument(
        "TimeSeriesSession::push: snapshot dims/scalar differ from the "
        "series' first snapshot");
  }
  return has64 ? im.push_values<double>(snapshot.f64)
               : im.push_values<float>(snapshot.f32);
}

std::size_t TimeSeriesSession::snapshots() const { return impl_->count; }

const std::vector<std::uint8_t>& TimeSeriesSession::archive(
    std::size_t t) const {
  if (!impl_->opts.keep_archives)
    throw std::logic_error(
        "TimeSeriesSession::archive: session was built with keep_archives = "
        "false");
  if (t >= impl_->archives.size())
    throw std::out_of_range("TimeSeriesSession::archive: timestep out of "
                            "range");
  return impl_->archives[t];
}

std::vector<Field> TimeSeriesSession::decode_range(std::size_t t0,
                                                   std::size_t t1) const {
  const Impl& im = *impl_;
  if (!im.opts.keep_archives)
    throw std::logic_error(
        "TimeSeriesSession::decode_range: session was built with "
        "keep_archives = false");
  if (t0 > t1)
    throw std::invalid_argument("TimeSeriesSession::decode_range: t0 > t1");
  if (t1 > im.count)
    throw std::out_of_range(
        "TimeSeriesSession::decode_range: range past the last snapshot");
  std::vector<Field> out;
  if (t0 == t1) return out;
  // Replay from the nearest keyframe at or before t0 — the shortest chain
  // that reaches t0 with the correct reference state.
  std::size_t start = t0;
  while (!is_keyframe(start, im.opts.keyframe_interval)) --start;
  TimeSeriesDecoder decoder(im.threads);
  out.reserve(t1 - t0);
  for (std::size_t t = start; t < t1; ++t) {
    Field f = decoder.feed(im.archives[t]);
    if (t >= t0) out.push_back(std::move(f));
  }
  return out;
}

// --- TimeSeriesDecoder ------------------------------------------------------

struct TimeSeriesDecoder::Impl {
  std::size_t threads;
  bool started = false;
  std::uint64_t series_id = 0;
  std::uint64_t next_timestep = 0;
  std::uint8_t scalar = 0;
  data::Dims dims;
  std::vector<float> ref32;
  std::vector<double> ref64;
  std::size_t frames = 0;

  explicit Impl(std::size_t t) : threads(t) {}

  template <typename T>
  std::vector<T> decode(std::span<const std::uint8_t> archive,
                        const io::BlockContainerHeader& h,
                        const data::Dims& frame_dims, std::span<const T> ref) {
    auto decoded = core::decompress_blocked<T>(archive, threads);
    if (h.is_delta_frame()) {
      const core::TileLayout layout = core::make_layout(
          frame_dims,
          std::vector<std::size_t>(h.tile.begin(), h.tile.end()));
      temporal::apply_reference<T>(std::span<T>(decoded.values), ref,
                                   frame_dims, layout, h.block_modes);
    }
    return std::move(decoded.values);
  }
};

TimeSeriesDecoder::TimeSeriesDecoder(std::size_t threads)
    : impl_(std::make_unique<Impl>(threads)) {}

TimeSeriesDecoder::~TimeSeriesDecoder() = default;
TimeSeriesDecoder::TimeSeriesDecoder(TimeSeriesDecoder&&) noexcept = default;
TimeSeriesDecoder& TimeSeriesDecoder::operator=(TimeSeriesDecoder&&) noexcept =
    default;

std::size_t TimeSeriesDecoder::frames() const { return impl_->frames; }

Field TimeSeriesDecoder::feed(std::span<const std::uint8_t> archive) {
  Impl& im = *impl_;
  const io::BlockContainerHeader h = io::block_container_header(archive);
  if (!h.has_temporal_chain())
    throw io::StreamError(
        "time series: archive is not a temporal (v4) series frame");
  const bool delta = h.is_delta_frame();
  const data::Dims frame_dims = to_dims(
      std::vector<std::size_t>(h.extents.begin(), h.extents.end()));
  if (!im.started) {
    // A chain may start at ANY keyframe (random access), but never at a
    // delta frame — there is no reference state to apply it to.
    if (delta)
      throw io::StreamError(
          "time series: chain must start at a keyframe, got a delta frame");
  } else {
    if (h.series_id != im.series_id)
      throw io::StreamError(
          "time series: frame belongs to a different series");
    if (h.timestep != im.next_timestep)
      throw io::StreamError("time series: timestep gap in the chain");
    if (h.scalar != im.scalar || frame_dims.extents != im.dims.extents)
      throw io::StreamError(
          "time series: frame geometry differs from the chain");
    if (delta) {
      // The frame names the exact reconstruction it was coded against;
      // refuse anything else rather than silently decode garbage.
      const std::uint64_t have =
          im.scalar == 1 ? temporal::hash_values<double>(im.ref64)
                         : temporal::hash_values<float>(im.ref32);
      if (h.ref_hash != have)
        throw io::StreamError(
            "time series: reference hash mismatch (frame was coded against "
            "a different reconstruction)");
    }
  }

  Field out;
  out.dims.assign(h.extents.begin(), h.extents.end());
  if (h.scalar == 1) {
    auto values = im.decode<double>(archive, h, frame_dims,
                                    std::span<const double>(im.ref64));
    im.ref64 = values;
    out.f64 = std::move(values);
  } else {
    auto values = im.decode<float>(archive, h, frame_dims,
                                   std::span<const float>(im.ref32));
    im.ref32 = values;
    out.f32 = std::move(values);
  }
  im.started = true;
  im.series_id = h.series_id;
  im.next_timestep = h.timestep + 1;
  im.scalar = h.scalar;
  im.dims = frame_dims;
  ++im.frames;
  return out;
}

}  // namespace fpsnr
