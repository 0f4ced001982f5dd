#include "layers.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "core/codec_registry.h"
#include "core/pipeline.h"
#include "facade/facade_detail.h"
#include "fpsnr/session.h"
#include "huffman/huffman.h"
#include "io/archive.h"
#include "lossless/backend.h"
#include "parallel/work_queue.h"
#include "simd/dispatch.h"
#include "sz/codec.h"
#include "sz/quantizer.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kBins = 65536;
/// Tiles in the seeded stage-replay sample.
constexpr std::size_t kStageTiles = 256;

fpsnr::SessionOptions session_options(const ReplayEntry& e,
                                      std::size_t threads) {
  fpsnr::SessionOptions so;
  so.threads = threads;
  so.engine = e.engine;
  return so;
}

/// One FieldCompressor job over an entry, its blocks submitted to a
/// WorkQueue by the benchmark and drained by `workers` executors.
struct CoreRun {
  double plan_s = 0.0;
  double drain_s = 0.0;
  double finalize_s = 0.0;
  std::vector<double> block_s;  ///< run_block time per block index
  std::vector<double> wait_s;   ///< push -> start per block index

  double total_s() const { return plan_s + drain_s + finalize_s; }
};

CoreRun run_core(const ReplayEntry& e, std::size_t workers, Tally& tally) {
  CoreRun run;
  tally.attempt();
  try {
    const std::uint64_t op = next_op_id();
    Span root("replay.field_compressor", op);
    std::size_t threads = 0;
    const auto options = fpsnr::facade::resolve_session_options(
        session_options(e, workers), &threads);
    const auto request =
        fpsnr::facade::to_request(fpsnr::FixedPsnr{e.target_db});

    Span plan("core.plan", op);
    fpsnr::core::FieldCompressor<float> job(
        e.values, fpsnr::data::Dims(e.dims), request, options);
    run.plan_s = plan.stop();

    const std::size_t blocks = job.block_count();
    run.block_s.assign(blocks, 0.0);
    run.wait_s.assign(blocks, 0.0);
    fpsnr::parallel::WorkQueue queue;
    Span drain("parallel.drain", op);
    const std::uint64_t drain_id = drain.id();
    for (std::size_t b = 0; b < blocks; ++b) {
      const double pushed = now_seconds();
      queue.push([&run, &job, b, pushed, op, drain_id] {
        run.wait_s[b] = now_seconds() - pushed;
        Span s("core.run_block", op, drain_id);
        job.run_block(b);
        run.block_s[b] = s.stop();
      });
    }
    queue.drain(workers);
    run.drain_s = drain.stop();

    Span fin("core.finalize", op);
    const auto result = job.finalize();
    run.finalize_s = fin.stop();
    if (result.stream != e.archive)
      tally.fail(e.label + ": FieldCompressor replay archive differs from "
                           "the workload's archive");
  } catch (const std::exception& ex) {
    tally.fail(e.label + ": FieldCompressor replay threw: " + ex.what());
  }
  return run;
}

std::vector<std::size_t> tile_of(const fpsnr::io::BlockContainerHeader& h) {
  return std::vector<std::size_t>(h.tile.begin(), h.tile.end());
}

double tile_sse(std::span<const float> a, std::span<const float> b) {
  double sse = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sse += d * d;
  }
  return sse;
}

/// Evenly spaced indices of `count` entries out of `n`.
std::vector<std::size_t> spread_subset(std::size_t n, std::size_t count) {
  std::vector<std::size_t> out;
  count = std::min(count, n);
  for (std::size_t k = 0; k < count; ++k) out.push_back(k * n / count);
  return out;
}

}  // namespace

void replay_layers(const std::vector<ReplayEntry>& entries,
                   const ReplayConfig& config, Rng& rng, Tally& tally,
                   Metrics& out) {
  namespace io = fpsnr::io;
  const std::size_t workers = config.threads;

  // --- core + parallel: every entry at the workload's worker cap ----------
  std::vector<CoreRun> runs;
  runs.reserve(entries.size());
  std::vector<double> plan_ms, finalize_ms, block_ms, wait_ms;
  double busy = 0.0, capacity = 0.0, blocks = 0.0, overshoot = -1e300;
  for (const ReplayEntry& e : entries) {
    runs.push_back(run_core(e, workers, tally));
    const CoreRun& r = runs.back();
    plan_ms.push_back(r.plan_s * 1e3);
    finalize_ms.push_back(r.finalize_s * 1e3);
    for (double s : r.block_s) block_ms.push_back(s * 1e3);
    for (double s : r.wait_s) wait_ms.push_back(s * 1e3);
    busy += sum(r.block_s);
    capacity += r.drain_s * static_cast<double>(workers);
    blocks += static_cast<double>(r.block_s.size());
    overshoot = std::max(overshoot, e.achieved_db - e.target_db);
  }
  out["core.plan_ms"] = median(plan_ms);
  out["core.finalize_ms"] = median(finalize_ms);
  out["core.block_compress_ms_p50"] = median(block_ms);
  out["core.block_compress_ms_max"] = quantile(block_ms, 1.0);
  out["core.blocks"] = blocks;
  out["core.psnr_overshoot_db_max"] = overshoot;
  out["parallel.queue_wait_ms_p50"] = median(wait_ms);
  out["parallel.busy_frac"] = capacity > 0.0 ? busy / capacity : 0.0;

  // --- parallel scaling and simd speed-up on an evenly spaced subset ------
  const auto subset = spread_subset(entries.size(), config.subset_entries);
  double one_worker = 0.0, many_workers = 0.0, scalar = 0.0, dispatched = 0.0;
  for (std::size_t idx : subset) {
    const ReplayEntry& e = entries[idx];
    one_worker += run_core(e, 1, tally).total_s();
    many_workers += run_core(e, workers, tally).total_s();

    const fpsnr::Session session(session_options(e, workers));
    const auto source = fpsnr::Source::memory(e.values, e.dims);
    for (const bool force_scalar : {false, true}) {
      tally.attempt();
      try {
        if (force_scalar)
          fpsnr::simd::force_backend(fpsnr::simd::Backend::Scalar);
        Span s(force_scalar ? "simd.compress_scalar"
                            : "simd.compress_dispatched",
               next_op_id());
        const auto report = session.compress(
            source, fpsnr::FixedPsnr{e.target_db}, fpsnr::Sink::memory());
        (force_scalar ? scalar : dispatched) += s.stop();
        fpsnr::simd::reset_backend();
        if (report.archive != e.archive)
          tally.fail(e.label + ": archive differs under the " +
                     (force_scalar ? "scalar" : "dispatched") +
                     " SIMD backend");
      } catch (const std::exception& ex) {
        fpsnr::simd::reset_backend();
        tally.fail(e.label + ": simd replay threw: " + ex.what());
      }
    }
  }
  out["parallel.scaling_x"] = many_workers > 0.0 ? one_worker / many_workers : 0.0;
  out["simd.speedup_x"] = dispatched > 0.0 ? scalar / dispatched : 0.0;

  // --- io + core decode: container open, index seek, single-block decode --
  std::vector<io::BlockContainerView> views(entries.size());
  std::vector<double> open_ms, seek_us, decode_ms;
  double archive_bytes = 0.0, payload_bytes = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ReplayEntry& e = entries[i];
    const std::span<const std::uint8_t> archive(e.archive);
    tally.attempt();
    try {
      Span o("io.open_block_container", next_op_id());
      views[i] = io::open_block_container(archive);
      open_ms.push_back(o.stop() * 1e3);
    } catch (const std::exception& ex) {
      tally.fail(e.label + ": open_block_container threw: " + ex.what());
      continue;
    }
    const io::BlockContainerView& view = views[i];
    archive_bytes += static_cast<double>(archive.size());
    for (const auto& block : view.blocks)
      payload_bytes += static_cast<double>(block.size());

    const auto tile = tile_of(view.header);
    const std::size_t count = view.blocks.size();
    for (std::size_t k = 0; k < config.block_picks && count > 0; ++k) {
      const std::size_t b = rng() % count;
      tally.attempt();
      try {
        const std::uint64_t op = next_op_id();
        Span s("io.block_container_entry", op);
        const auto entry = io::block_container_entry(archive, b);
        seek_us.push_back(s.stop() * 1e6);
        if (entry.data() != view.blocks[b].data() ||
            entry.size() != view.blocks[b].size())
          tally.fail(e.label + ": block_container_entry(" +
                     std::to_string(b) + ") disagrees with the index walk");

        Span d("core.decompress_block", op);
        const auto decoded = fpsnr::core::decompress_block<float>(archive, b);
        decode_ms.push_back(d.stop() * 1e3);
        const auto original = gather(e.values, e.dims, tile_box(e.dims, tile, b));
        const double sse = tile_sse(original, decoded.values);
        const double recorded = view.block_sse.at(b);
        if (decoded.values.size() != original.size() ||
            !(std::fabs(sse - recorded) <= 1e-6 * recorded + 1e-30))
          tally.fail(e.label + ": block " + std::to_string(b) +
                     " decodes to SSE " + std::to_string(sse) +
                     ", index records " + std::to_string(recorded));
      } catch (const std::exception& ex) {
        tally.fail(e.label + ": block " + std::to_string(b) +
                   " read threw: " + ex.what());
      }
    }
  }
  out["io.open_container_ms"] = median(open_ms);
  out["io.entry_seek_us"] = median(seek_us);
  out["io.overhead_bytes_frac"] =
      archive_bytes > 0.0 ? (archive_bytes - payload_bytes) / archive_bytes : 0.0;
  out["core.block_decompress_ms_p50"] = median(decode_ms);

  // --- codec stages on a seeded sample of sz-lorenzo tiles ----------------
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (entries[i].engine == "sz-lorenzo" && !views[i].blocks.empty())
      for (std::size_t b = 0; b < views[i].blocks.size(); ++b)
        candidates.emplace_back(i, b);
  const std::size_t picks = std::min(kStageTiles, candidates.size());
  for (std::size_t k = 0; k < picks; ++k)
    std::swap(candidates[k], candidates[k + rng() % (candidates.size() - k)]);
  candidates.resize(picks);
  std::sort(candidates.begin(), candidates.end());

  const auto& codec = fpsnr::core::CodecRegistry::instance().at(
      fpsnr::core::kCodecSzLorenzo);
  std::vector<double> quantize_ms, store_ms, table_ms, deflate_ms, inflate_ms,
      used_frac;
  double replay_s = 0.0, replayed_block_s = 0.0, deflate_s = 0.0;
  double stored[2] = {0.0, 0.0}, deflated[2] = {0.0, 0.0};
  for (const auto& [i, b] : candidates) {
    const ReplayEntry& e = entries[i];
    const io::BlockContainerView& view = views[i];
    const auto box = tile_box(e.dims, tile_of(view.header), b);
    const auto values = gather(e.values, e.dims, box);
    const fpsnr::data::Dims tile_dims(box.ext);
    const double eb = view.header.eb_abs;
    tally.attempt();
    try {
      const std::uint64_t op = next_op_id();
      Span tile_span("replay.tile_stages", op);

      Span q("sz.prediction_trace", op);
      const auto trace = fpsnr::sz::prediction_trace<float>(
          std::span<const float>(values), tile_dims, eb, kBins);
      quantize_ms.push_back(q.stop() * 1e3);

      std::vector<std::uint64_t> hist(kBins, 0);
      const fpsnr::sz::LinearQuantizer quantizer(eb, kBins);
      for (double pe : trace.pe) ++hist[quantizer.quantize(pe)];
      Span h("huffman.from_frequencies", op);
      const auto encoder = fpsnr::huffman::Encoder::from_frequencies(hist);
      table_ms.push_back(h.stop() * 1e3);
      used_frac.push_back(
          static_cast<double>(std::count_if(hist.begin(), hist.end(),
                                            [](std::uint64_t f) { return f; })) /
          kBins);

      fpsnr::core::BlockParams params;
      params.eb_abs = eb;
      params.quantization_bins = kBins;
      params.backend = fpsnr::lossless::Method::Store;
      fpsnr::core::BlockInfo info;
      Span c("sz.codec_store", op);
      const auto payload = codec.compress(std::span<const float>(values),
                                          tile_dims, params, &info);
      const double store_s = c.stop();
      store_ms.push_back(store_s * 1e3);

      Span d("lossless.deflate", op);
      const auto packed = fpsnr::lossless::backend_compress(
          payload, fpsnr::lossless::Method::Deflate);
      const double def_s = d.stop();
      deflate_ms.push_back(def_s * 1e3);

      Span inf("lossless.inflate", op);
      const auto unpacked = fpsnr::lossless::backend_decompress(packed);
      inflate_ms.push_back(inf.stop() * 1e3);
      if (unpacked != payload)
        tally.fail(e.label + ": block " + std::to_string(b) +
                   " does not survive a Deflate round trip");

      const int side = e.high_target ? 1 : 0;
      stored[side] += static_cast<double>(payload.size());
      deflated[side] += static_cast<double>(packed.size());
      replay_s += store_s + def_s;
      deflate_s += def_s;
      replayed_block_s += runs[i].block_s.at(b);
    } catch (const std::exception& ex) {
      tally.fail(e.label + ": stage replay of block " + std::to_string(b) +
                 " threw: " + ex.what());
    }
  }
  auto saved = [](double s, double d) { return s > 0.0 ? 1.0 - d / s : 0.0; };
  out["sz.quantize_ms"] = median(quantize_ms);
  out["sz.codec_store_ms"] = median(store_ms);
  out["sz.replay_cover_frac"] =
      replayed_block_s > 0.0 ? replay_s / replayed_block_s : 0.0;
  out["huffman.table_build_ms"] = median(table_ms);
  out["huffman.alphabet_used_frac"] = median(used_frac);
  out["lossless.deflate_ms"] = median(deflate_ms);
  out["lossless.inflate_ms"] = median(inflate_ms);
  out["lossless.bytes_saved_frac"] =
      saved(stored[0] + stored[1], deflated[0] + deflated[1]);
  out["lossless.bytes_saved_frac_low"] = saved(stored[0], deflated[0]);
  out["lossless.bytes_saved_frac_high"] = saved(stored[1], deflated[1]);
  out["lossless.deflate_time_frac"] = replay_s > 0.0 ? deflate_s / replay_s : 0.0;
}

}  // namespace perfbench
