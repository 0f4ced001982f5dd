// `series`: the only workload that runs the temporal layer. A rank-3
// advected series (64^3 x 24 snapshots, dt 0.02) goes through one
// TimeSeriesSession per target (keyframe interval 8, keep_archives off,
// min(4, nproc) workers) at 60 dB and at 80 dB; each chain is replayed
// through a TimeSeriesDecoder, and every keyframe gets 16 seeded random
// Session::decompress_block reads.
#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "core/tile_layout.h"
#include "data/timeseries.h"
#include "fpsnr/session.h"
#include "fpsnr/timeseries.h"
#include "layers.h"
#include "temporal/temporal.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTargets[] = {60.0, 80.0};
constexpr std::size_t kKeyframeInterval = 8;
constexpr std::size_t kBlockReads = 16;
constexpr int kSetupReps = 21;

/// One frame of one chain, as the traced run needs it for its replays.
struct FrameRecord {
  double push_s = 0.0;
  double feed_s = 0.0;
  bool keyframe = false;
  std::size_t temporal_blocks = 0;
  std::size_t block_count = 0;
  std::vector<std::size_t> tile;
  std::size_t archive_bytes = 0;
  fpsnr::Field decoded;
};

}  // namespace

void run_series(const Options& o, RunOutput& out) {
  Tally& tally = out.tally;
  fpsnr::data::TimeSeriesConfig config;
  const std::size_t edge = o.tiny ? 16 : 64;
  config.dims = fpsnr::data::Dims{edge, edge, edge};
  config.snapshots = o.tiny ? 6 : 24;
  config.dt = 0.02;
  std::vector<fpsnr::Field> frames;
  for (auto& f : fpsnr::data::make_advected_series(config)) {
    fpsnr::Field frame;
    frame.dims = f.dims.extents;
    frame.f32 = std::move(f.values);
    frames.push_back(std::move(frame));
  }
  const std::size_t frame_values = frames.front().size();
  out.sizes["workload_frames"] = std::to_string(frames.size());
  out.sizes["workload_values"] = std::to_string(frame_values * frames.size());
  out.sizes["workload_bytes"] =
      std::to_string(frame_values * frames.size() * sizeof(float));

  fpsnr::TimeSeriesOptions to;
  to.session.threads = bench_threads();
  to.session.engine = "sz-lorenzo";
  to.series = "perfbench";
  to.keyframe_interval = kKeyframeInterval;
  to.keep_archives = false;
  out.sizes["session_threads"] = std::to_string(to.session.threads);

  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        const double t0 = now_seconds();
        fpsnr::TimeSeriesSession chain(fpsnr::FixedPsnr{kTargets[0]}, to);
        const auto record = chain.push(frames.front());
        const double elapsed = now_seconds() - t0;
        return record.report.archive.empty() ? -1.0 : elapsed;
      },
      tally);

  const fpsnr::Session session(to.session);
  Rng rng(o.seed);
  const double frame_bytes = static_cast<double>(frame_values * sizeof(float));

  Measured measured;
  bool corrupt_next = o.inject_corruption;
  // Per-target frame records of the pass the traced run keeps.
  std::vector<std::vector<FrameRecord>> kept(std::size(kTargets));

  // One chain at one target: push every frame, then feed the chain to a
  // decoder and read random blocks of every keyframe. Returns the seconds
  // spent inside the timed public calls.
  auto run_chain = [&](std::size_t ti, std::size_t count, bool timed,
                       bool accuracy, bool keep) {
    const double target = kTargets[ti];
    const std::string chain_label =
        "series@" + std::to_string(static_cast<int>(target)) + "dB";
    double call_s = 0.0;
    std::vector<FrameRecord> records(count);
    std::vector<std::vector<std::uint8_t>> archives(count);
    std::vector<double> achieved(count, 0.0);

    fpsnr::TimeSeriesSession chain(fpsnr::FixedPsnr{target}, to);
    for (std::size_t t = 0; t < count; ++t) {
      tally.attempt();
      try {
        Span s("series.push", next_op_id());
        auto record = chain.push(frames[t]);
        const double elapsed = s.stop();
        call_s += elapsed;
        if (timed) {
          measured.compress.add(frame_bytes, elapsed);
          measured.call(elapsed);
        }
        FrameRecord& r = records[t];
        r.push_s = elapsed;
        r.keyframe = record.keyframe;
        r.temporal_blocks = record.temporal_blocks;
        r.block_count = record.block_count;
        r.tile = record.report.tile;
        r.archive_bytes = record.report.archive.size();
        achieved[t] = record.report.achieved_psnr_db;
        archives[t] = std::move(record.report.archive);
        if (accuracy)
          measured.accuracy(frame_bytes, static_cast<double>(r.archive_bytes),
                            target, achieved[t]);
      } catch (const std::exception& e) {
        tally.fail(chain_label + " frame " + std::to_string(t) +
                   ": push threw: " + e.what());
        return call_s;  // the chain cannot continue
      }
    }

    fpsnr::TimeSeriesDecoder decoder(to.session.threads);
    for (std::size_t t = 0; t < count; ++t) {
      const std::string label = chain_label + " frame " + std::to_string(t);
      FrameRecord& r = records[t];
      std::vector<std::uint8_t> corrupted;
      std::span<const std::uint8_t> to_feed(archives[t]);
      if (corrupt_next && !r.keyframe) {
        corrupted = corrupted_copy(archives[t]);
        to_feed = corrupted;
        corrupt_next = false;
      }
      const std::uint64_t op = next_op_id();
      tally.attempt();
      try {
        Span s("series.feed", op);
        r.decoded = decoder.feed(to_feed);
        const double elapsed = s.stop();
        call_s += elapsed;
        r.feed_s = elapsed;
        if (timed) {
          measured.decompress.add(frame_bytes, elapsed);
          measured.call(elapsed);
        }
        tally.check_psnr(label + " decode",
                         psnr_db(frames[t].f32, r.decoded.f32), achieved[t]);
      } catch (const std::exception& e) {
        tally.fail(label + ": feed threw: " + e.what());
        continue;
      }
      if (!r.keyframe || r.block_count == 0) continue;
      for (std::size_t k = 0; k < kBlockReads; ++k) {
        const std::size_t b = rng() % r.block_count;
        tally.attempt();
        try {
          Span s("session.decompress_block", op);
          const auto block = session.decompress_block(
              fpsnr::Source::memory(archives[t]), b);
          const double elapsed = s.stop();
          call_s += elapsed;
          if (timed) {
            measured.block_read_s.push_back(elapsed);
            measured.call(elapsed);
          }
          if (block.f32 != gather(r.decoded.f32, frames[t].dims,
                                  tile_box(frames[t].dims, r.tile, b)))
            tally.fail(label + ": block " + std::to_string(b) +
                       " differs from the same tile of the chain decode");
        } catch (const std::exception& e) {
          tally.fail(label + ": block " + std::to_string(b) +
                     " read threw: " + e.what());
        }
      }
    }
    if (keep) kept[ti] = std::move(records);
    return call_s;
  };

  // Warm-up (untimed): the first keyframe interval plus one delta frame.
  for (std::size_t ti = 0; ti < std::size(kTargets); ++ti)
    run_chain(ti, std::min(frames.size(), kKeyframeInterval + 1), false, false,
              false);

  // The first traced pass keeps its frame records for the replays.
  bool kept_pass = false;
  const PassFn pass = [&](int p) {
    const bool keep = Tracer::active() != nullptr && !kept_pass;
    double call_s = 0.0;
    for (std::size_t ti = 0; ti < std::size(kTargets); ++ti)
      call_s += run_chain(ti, frames.size(), true, p == 0, keep);
    kept_pass = kept_pass || keep;
    measured.close_pass();
    return call_s;
  };

  if (!o.trace) {
    out.sizes["passes"] = std::to_string(run_measured_passes(
        o, pass, [&] { return measured.latency_s.size(); }));
    out.sizes["latency_samples"] = std::to_string(measured.latency_s.size());
    out.end_to_end = measured.end_to_end(setup_s);
    return;
  }

  run_traced_passes(o, pass, out);

  // Temporal layer: spatial-only baseline, probe replay, chain counters.
  std::vector<ReplayEntry> replay;
  double pushed = 0.0, spatial = 0.0, temporal_bytes = 0.0, spatial_bytes = 0.0;
  double delta_blocks = 0.0, all_blocks = 0.0;
  std::vector<double> probe_ms, feed_ms;
  for (std::size_t ti = 0; ti < std::size(kTargets); ++ti) {
    const double target = kTargets[ti];
    const auto& records = kept[ti];
    for (std::size_t t = 0; t < records.size(); ++t) {
      const FrameRecord& r = records[t];
      const std::string label = "series@" +
                                std::to_string(static_cast<int>(target)) +
                                "dB frame " + std::to_string(t);
      pushed += r.push_s;
      temporal_bytes += static_cast<double>(r.archive_bytes);
      delta_blocks += static_cast<double>(r.temporal_blocks);
      all_blocks += static_cast<double>(r.block_count);
      feed_ms.push_back(r.feed_s * 1e3);

      tally.attempt();
      try {
        Span s("session.compress", next_op_id());
        auto report = session.compress(
            fpsnr::Source::memory(std::span<const float>(frames[t].f32),
                                  frames[t].dims),
            fpsnr::FixedPsnr{target}, fpsnr::Sink::memory());
        spatial += s.stop();
        spatial_bytes += static_cast<double>(report.archive.size());
        ReplayEntry entry;
        entry.label = label;
        entry.values = frames[t].f32;
        entry.dims = frames[t].dims;
        entry.target_db = target;
        entry.high_target = ti == 1;
        entry.achieved_db = report.achieved_psnr_db;
        entry.archive = std::move(report.archive);
        replay.push_back(std::move(entry));
      } catch (const std::exception& e) {
        tally.fail(label + ": spatial compress threw: " + e.what());
      }

      if (r.keyframe || t == 0 || records[t - 1].decoded.f32.empty()) continue;
      tally.attempt();
      try {
        const fpsnr::data::Dims dims(frames[t].dims);
        const auto layout = fpsnr::core::make_layout(dims, r.tile);
        Span s("temporal.build_composite", next_op_id());
        const auto plan = fpsnr::temporal::build_composite<float>(
            frames[t].f32, records[t - 1].decoded.f32, dims, layout);
        probe_ms.push_back(s.stop() * 1e3);
        if (plan.temporal_blocks != r.temporal_blocks)
          tally.fail(label + ": probe replay picks " +
                     std::to_string(plan.temporal_blocks) +
                     " delta blocks, the chain recorded " +
                     std::to_string(r.temporal_blocks));
      } catch (const std::exception& e) {
        tally.fail(label + ": probe replay threw: " + e.what());
      }
    }
  }
  Metrics& m = out.layers;
  m["temporal.probe_ms"] = median(probe_ms);
  m["temporal.push_over_spatial_x"] = spatial > 0.0 ? pushed / spatial : 0.0;
  m["temporal.delta_block_frac"] = all_blocks > 0.0 ? delta_blocks / all_blocks : 0.0;
  m["temporal.ratio_vs_spatial"] =
      temporal_bytes > 0.0 ? spatial_bytes / temporal_bytes : 0.0;
  m["temporal.feed_ms"] = median(feed_ms);

  ReplayConfig rc;
  rc.threads = to.session.threads;
  rc.subset_entries = 6;
  rc.block_picks = kBlockReads;
  replay_layers(replay, rc, rng, tally, out.layers);
}

}  // namespace perfbench
