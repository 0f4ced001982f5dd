// Tests for the temporal-compression subsystem: TimeSeriesSession /
// TimeSeriesDecoder (fpsnr/timeseries.h), the FPBK v4 chain contract, the
// per-tile temporal/spatial planner, and the ratio win over spatial-only
// coding on temporally coherent data.
#include "fpsnr/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "data/timeseries.h"
#include "fpsnr/session.h"
#include "io/bitstream.h"
#include "metrics/metrics.h"

namespace {

using namespace fpsnr;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

/// A slowly evolving series — consecutive snapshots are close, so the
/// temporal planner should pick delta mode almost everywhere.
std::vector<data::Field> slow_series(std::size_t snapshots,
                                     data::Dims dims = data::Dims{48, 48}) {
  data::TimeSeriesConfig cfg;
  cfg.dims = std::move(dims);
  cfg.snapshots = snapshots;
  cfg.dt = 0.02;
  return data::make_advected_series(cfg);
}

Field to_public(const data::Field& f) {
  Field out;
  out.dims = f.dims.extents;
  out.f32 = f.values;
  return out;
}

double psnr_vs(const std::vector<float>& original, const Field& decoded) {
  return metrics::compare<float>(original, decoded.f32).psnr_db;
}

}  // namespace

TEST(Temporal, ChainDecodesBitExactlyAndMeetsTargetEveryFrame) {
  const auto series = slow_series(9);
  const double target_db = 64.0;

  TimeSeriesOptions opts;
  opts.series = "vx";
  opts.keyframe_interval = 4;
  TimeSeriesSession session(FixedPsnr{target_db}, opts);

  std::vector<SnapshotRecord> records;
  for (const auto& snap : series) records.push_back(session.push(to_public(snap)));

  ASSERT_EQ(session.snapshots(), series.size());
  for (std::size_t t = 0; t < records.size(); ++t) {
    EXPECT_EQ(records[t].timestep, t);
    EXPECT_EQ(records[t].keyframe, t % 4 == 0);
    EXPECT_FALSE(records[t].report.archive.empty());
    if (records[t].keyframe) EXPECT_EQ(records[t].temporal_blocks, 0u);
  }

  // An independent decoder fed the frames in order must agree bit-for-bit
  // with the session's own replay path (decode_range), and every frame
  // must meet the PSNR target measured against its ORIGINAL snapshot —
  // errors anchor per frame, they never accumulate along the chain.
  TimeSeriesDecoder decoder;
  const auto replay = session.decode_range(0, series.size());
  ASSERT_EQ(replay.size(), series.size());
  for (std::size_t t = 0; t < series.size(); ++t) {
    const Field frame = decoder.feed(records[t].report.archive);
    ASSERT_EQ(frame.f32.size(), series[t].values.size());
    EXPECT_EQ(frame.f32, replay[t].f32) << "frame " << t;
    EXPECT_GT(psnr_vs(series[t].values, frame), target_db - 1.0) << "frame " << t;
  }
  EXPECT_EQ(decoder.frames(), series.size());
}

TEST(Temporal, RecordedPsnrIsThatOfTheDecodedFrame) {
  // A delta frame is coded as a composite (x - ref, rounded to f32), so
  // the pipeline's own PSNR figure is the composite's. The record must
  // report what a decoder reconstructs, measured against the original.
  const auto series = slow_series(12);
  TimeSeriesOptions opts;
  opts.keyframe_interval = 6;
  TimeSeriesSession session(FixedPsnr{80.0}, opts);
  TimeSeriesDecoder decoder;
  for (std::size_t t = 0; t < series.size(); ++t) {
    const SnapshotRecord rec = session.push(to_public(series[t]));
    const Field frame = decoder.feed(rec.report.archive);
    EXPECT_NEAR(rec.report.achieved_psnr_db, psnr_vs(series[t].values, frame),
                1e-9)
        << "frame " << t;
  }
}

TEST(Temporal, DecodeRangeReplaysFromNearestKeyframe) {
  const auto series = slow_series(8);
  TimeSeriesOptions opts;
  opts.keyframe_interval = 3;  // keyframes at 0, 3, 6
  TimeSeriesSession session(FixedPsnr{60.0}, opts);
  for (const auto& snap : series) session.push(to_public(snap));

  const auto whole = session.decode_range(0, 8);
  const auto tail = session.decode_range(4, 7);  // replays 3..6, returns 4..6
  ASSERT_EQ(tail.size(), 3u);
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].f32, whole[4 + i].f32) << "offset " << i;

  EXPECT_TRUE(session.decode_range(5, 5).empty());
  EXPECT_THROW(session.decode_range(5, 4), std::invalid_argument);
  EXPECT_THROW(session.decode_range(0, 9), std::out_of_range);
  EXPECT_THROW(session.archive(8), std::out_of_range);
}

TEST(Temporal, PerTileFallbackEngagesOnTurbulentData) {
  // Half the field is static between frames, half is replaced with fresh
  // noise: the static tiles must choose temporal-delta mode, the churned
  // tiles must fall back to spatial coding (their delta has MORE energy
  // than the raw values), so temporal_blocks sits strictly between 0 and
  // block_count.
  const data::Dims dims{64, 64};
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> noise(-1.0f, 1.0f);
  std::vector<float> bottom;  // regenerated when refreshed
  auto make_frame = [&](bool refresh_bottom) {
    std::vector<float> values(dims.count());
    for (std::size_t i = 0; i < 32 * 64; ++i)
      values[i] = std::sin(static_cast<float>(i) * 0.01f);  // static half
    if (bottom.empty() || refresh_bottom) {
      bottom.resize(32 * 64);
      for (auto& v : bottom) v = noise(rng);
    }
    std::copy(bottom.begin(), bottom.end(), values.begin() + 32 * 64);
    return values;
  };

  TimeSeriesOptions opts;
  opts.session.tile = TileShape({32, 32});  // 4 blocks: 2 static, 2 churned
  TimeSeriesSession session(FixedPsnr{60.0}, opts);

  Field f0;
  f0.dims = dims.extents;
  f0.f32 = make_frame(false);
  session.push(f0);

  Field f1;
  f1.dims = dims.extents;
  f1.f32 = make_frame(true);  // bottom half churns, top half unchanged
  const SnapshotRecord rec = session.push(f1);

  EXPECT_FALSE(rec.keyframe);
  EXPECT_EQ(rec.block_count, 4u);
  EXPECT_GT(rec.temporal_blocks, 0u);
  EXPECT_LT(rec.temporal_blocks, rec.block_count);
}

TEST(Temporal, DecoderRejectsEveryChainViolation) {
  const auto series = slow_series(5);
  TimeSeriesOptions opts;
  opts.series = "chain";
  opts.keyframe_interval = 0;  // only frame 0 is a keyframe
  TimeSeriesSession session(FixedPsnr{60.0}, opts);
  for (const auto& snap : series) session.push(to_public(snap));

  // A chain cannot start at a delta frame.
  {
    TimeSeriesDecoder d;
    EXPECT_THROW(d.feed(session.archive(1)), io::StreamError);
    EXPECT_EQ(d.frames(), 0u);
  }
  // A timestep gap is refused, and the failed feed leaves the decoder
  // usable — the correct next frame still decodes.
  {
    TimeSeriesDecoder d;
    d.feed(session.archive(0));
    EXPECT_THROW(d.feed(session.archive(2)), io::StreamError);
    EXPECT_EQ(d.frames(), 1u);
    EXPECT_NO_THROW(d.feed(session.archive(1)));
  }
  // Replaying the same delta frame twice is a reference mismatch (the
  // reconstruction has moved on), not a silent wrong decode.
  {
    TimeSeriesDecoder d;
    d.feed(session.archive(0));
    d.feed(session.archive(1));
    EXPECT_THROW(d.feed(session.archive(1)), io::StreamError);
  }
  // Frames from a different series are refused by identity.
  {
    TimeSeriesOptions other;
    other.series = "other";
    other.keyframe_interval = 0;
    TimeSeriesSession foreign(FixedPsnr{60.0}, other);
    for (std::size_t t = 0; t < 2; ++t) foreign.push(to_public(series[t]));
    TimeSeriesDecoder d;
    d.feed(session.archive(0));
    EXPECT_THROW(d.feed(foreign.archive(1)), io::StreamError);
  }
  // A plain spatial (v3) archive is not a series frame at all.
  {
    Session spatial;
    const auto report =
        spatial.compress(Source::memory(std::span<const float>(series[0].values),
                                        series[0].dims.extents),
                         FixedPsnr{60.0}, Sink::memory());
    TimeSeriesDecoder d;
    EXPECT_THROW(d.feed(report.archive), io::StreamError);
  }
}

TEST(Temporal, SessionValidatesItsInputs) {
  EXPECT_THROW(TimeSeriesSession(PointwiseRel{1e-3}, {}),
               std::invalid_argument);
  TimeSeriesOptions no_name;
  no_name.series = "";
  EXPECT_THROW(TimeSeriesSession(FixedPsnr{60.0}, no_name),
               std::invalid_argument);

  const auto series = slow_series(2, data::Dims{16, 16});
  TimeSeriesSession session(FixedPsnr{60.0}, {});
  Field bad;  // neither f32 nor f64
  bad.dims = {16, 16};
  EXPECT_THROW(session.push(bad), std::invalid_argument);
  session.push(to_public(series[0]));

  Field wrong_dims;
  wrong_dims.dims = {8, 32};
  wrong_dims.f32.assign(8 * 32, 0.0f);
  EXPECT_THROW(session.push(wrong_dims), std::invalid_argument);

  Field wrong_scalar;
  wrong_scalar.dims = {16, 16};
  wrong_scalar.f64.assign(16 * 16, 0.0);
  EXPECT_THROW(session.push(wrong_scalar), std::invalid_argument);

  TimeSeriesOptions transient;
  transient.keep_archives = false;
  TimeSeriesSession ephemeral(FixedPsnr{60.0}, transient);
  const auto rec = ephemeral.push(to_public(series[0]));
  EXPECT_FALSE(rec.report.archive.empty());  // the caller still gets bytes
  EXPECT_THROW(ephemeral.archive(0), std::logic_error);
  EXPECT_THROW(ephemeral.decode_range(0, 1), std::logic_error);
}

TEST(Temporal, DoublePrecisionSeriesRoundTrips) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{32, 32};
  cfg.snapshots = 5;
  cfg.dt = 0.05;
  const auto series = data::make_advected_series_f64(cfg);

  TimeSeriesOptions opts;
  opts.series = "rho64";
  opts.keyframe_interval = 4;
  TimeSeriesSession session(FixedPsnr{80.0}, opts);
  TimeSeriesDecoder decoder;
  for (const auto& snap : series) {
    Field f;
    f.dims = snap.dims.extents;
    f.f64 = snap.values;
    const SnapshotRecord rec = session.push(f);
    const Field out = decoder.feed(rec.report.archive);
    ASSERT_TRUE(out.is_double());
    EXPECT_GT(metrics::compare<double>(snap.values, out.f64).psnr_db, 79.0);
  }
  // Mixed scalars in one chain are a geometry violation for the decoder
  // too: an f32 frame from another series cannot continue an f64 chain.
  const auto f32_series = slow_series(1, data::Dims{32, 32});
  TimeSeriesSession f32_session(FixedPsnr{80.0}, opts);
  f32_session.push(to_public(f32_series[0]));
  EXPECT_THROW(decoder.feed(f32_session.archive(0)), io::StreamError);
}

TEST(Temporal, Rank3SeriesRoundTrips) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{12, 16, 20};
  cfg.snapshots = 4;
  cfg.dt = 0.05;
  const auto series = data::make_advected_series(cfg);

  TimeSeriesSession session(FixedPsnr{62.0}, {});
  for (const auto& snap : series) session.push(to_public(snap));
  const auto decoded = session.decode_range(0, series.size());
  ASSERT_EQ(decoded.size(), series.size());
  for (std::size_t t = 0; t < series.size(); ++t) {
    ASSERT_EQ(decoded[t].dims, cfg.dims.extents);
    EXPECT_GT(psnr_vs(series[t].values, decoded[t]), 61.0) << "frame " << t;
  }
}

TEST(Temporal, BeatsSpatialOnlyOnSlowlyEvolvingData) {
  // The reason this subsystem exists: at the same PSNR target, coding the
  // slow-evolution series as deltas must use substantially fewer bytes
  // than coding every snapshot spatially. The CI bench gate enforces a
  // 1.4x series-ratio win; this in-tree check uses a softer 1.2x floor so
  // a marginal codec tweak fails the bench gate before it fails the tests.
  const auto series = slow_series(12);
  const double target_db = 60.0;

  Session spatial;
  std::size_t spatial_bytes = 0;
  for (const auto& snap : series)
    spatial_bytes +=
        spatial
            .compress(Source::memory(std::span<const float>(snap.values),
                                     snap.dims.extents),
                      FixedPsnr{target_db}, Sink::memory())
            .compressed_bytes;

  TimeSeriesOptions opts;
  opts.keyframe_interval = 12;  // one keyframe, eleven deltas
  TimeSeriesSession temporal(FixedPsnr{target_db}, opts);
  std::size_t temporal_bytes = 0;
  std::size_t delta_blocks = 0;
  for (const auto& snap : series) {
    const SnapshotRecord rec = temporal.push(to_public(snap));
    temporal_bytes += rec.report.compressed_bytes;
    delta_blocks += rec.temporal_blocks;
  }

  EXPECT_GT(delta_blocks, 0u);
  EXPECT_LT(static_cast<double>(temporal_bytes),
            static_cast<double>(spatial_bytes) / 1.2)
      << "temporal " << temporal_bytes << " vs spatial " << spatial_bytes;

  // And the chain still holds the per-frame guarantee.
  const auto decoded = temporal.decode_range(0, series.size());
  for (std::size_t t = 0; t < series.size(); ++t)
    EXPECT_GT(psnr_vs(series[t].values, decoded[t]), target_db - 1.0);
}

TEST(Temporal, InspectReportsTheChain) {
  const auto series = slow_series(3);
  TimeSeriesOptions opts;
  opts.series = "vx";
  TimeSeriesSession session(FixedPsnr{60.0}, opts);
  for (const auto& snap : series) session.push(to_public(snap));

  Session plain;
  const Inspection key = plain.inspect(Source::memory(
      std::span<const std::uint8_t>(session.archive(0))));
  EXPECT_TRUE(key.block_container);
  EXPECT_EQ(key.version, 4);
  EXPECT_TRUE(key.temporal);
  EXPECT_FALSE(key.delta);
  EXPECT_EQ(key.timestep, 0u);
  EXPECT_EQ(key.ref_hash, 0u);
  EXPECT_EQ(key.temporal_blocks, 0u);

  const Inspection delta = plain.inspect(Source::memory(
      std::span<const std::uint8_t>(session.archive(2))));
  EXPECT_TRUE(delta.temporal);
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.timestep, 2u);
  EXPECT_EQ(delta.series_id, key.series_id);
  EXPECT_NE(delta.ref_hash, 0u);
  EXPECT_GT(delta.temporal_blocks, 0u);

  // Spatial archives keep reporting a zeroed chain.
  const auto spatial_report =
      plain.compress(Source::memory(std::span<const float>(series[0].values),
                                    series[0].dims.extents),
                     FixedPsnr{60.0}, Sink::memory());
  const Inspection spatial = plain.inspect(
      Source::memory(std::span<const std::uint8_t>(spatial_report.archive)));
  EXPECT_FALSE(spatial.temporal);
  EXPECT_EQ(spatial.version, 3);
  EXPECT_EQ(spatial.series_id, 0u);
}
