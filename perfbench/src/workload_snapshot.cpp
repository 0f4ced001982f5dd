// `snapshot`: the paper's own use. The Hurricane stand-in (13 fields) and
// the NYX stand-in (6 fields) at DatasetConfig.scale = 2.0 go through one
// sz-lorenzo Session (uniform budget, auto tiles, min(4, nproc) workers).
// Each pass compresses every field at 40 dB and at 80 dB, decodes each
// archive in full, and reads 16 seeded random blocks per archive.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fpsnr/session.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTargets[] = {40.0, 80.0};
constexpr std::size_t kBlockReads = 16;
constexpr int kSetupReps = 21;

struct NamedField {
  std::string label;
  const fpsnr::data::Field* field;
};

std::string target_label(double target) {
  return "@" + std::to_string(static_cast<int>(target)) + "dB";
}

}  // namespace

void run_snapshot(const Options& o, RunOutput& out) {
  Tally& tally = out.tally;
  fpsnr::data::DatasetConfig config;
  config.scale = o.tiny ? 0.5 : 2.0;
  const auto hurricane = fpsnr::data::make_hurricane(config);
  const auto nyx = fpsnr::data::make_nyx(config);
  std::vector<NamedField> fields;
  std::size_t values = 0;
  for (const auto* ds : {&hurricane, &nyx})
    for (const auto& f : ds->fields) {
      fields.push_back({ds->name + "/" + f.name, &f});
      values += f.size();
    }
  out.sizes["workload_fields"] = std::to_string(fields.size());
  out.sizes["workload_values"] = std::to_string(values);
  out.sizes["workload_bytes"] = std::to_string(values * sizeof(float));

  fpsnr::SessionOptions so;
  so.threads = bench_threads();
  so.engine = "sz-lorenzo";
  so.budget = "uniform";
  out.sizes["session_threads"] = std::to_string(so.threads);

  const fpsnr::data::Field& first = *fields.front().field;
  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        const double t0 = now_seconds();
        const fpsnr::Session session(so);
        const auto report = session.compress(
            fpsnr::Source::memory(first.span(), first.dims.extents),
            fpsnr::FixedPsnr{kTargets[0]}, fpsnr::Sink::memory());
        const double elapsed = now_seconds() - t0;
        return report.archive.empty() ? -1.0 : elapsed;
      },
      tally);

  const fpsnr::Session session(so);
  Rng rng(o.seed);

  Measured measured;
  bool corrupt_next = o.inject_corruption;
  std::vector<ReplayEntry> replay;

  // One field at one target: compress, full decode, random block reads.
  // Returns the seconds spent inside the timed public calls.
  auto run_field = [&](const NamedField& nf, double target, bool timed,
                       bool accuracy, bool keep) {
    const fpsnr::data::Field& f = *nf.field;
    const std::string label = nf.label + target_label(target);
    const std::uint64_t op = next_op_id();
    double call_s = 0.0;

    fpsnr::CompressReport report;
    tally.attempt();
    try {
      Span s("session.compress", op);
      report = session.compress(fpsnr::Source::memory(f.span(), f.dims.extents),
                                fpsnr::FixedPsnr{target}, fpsnr::Sink::memory());
      const double t = s.stop();
      call_s += t;
      if (timed) {
        measured.compress.add(static_cast<double>(f.bytes()), t);
        measured.call(t);
      }
    } catch (const std::exception& e) {
      tally.fail(label + ": compress threw: " + e.what());
      return call_s;
    }
    if (accuracy)
      measured.accuracy(static_cast<double>(f.bytes()),
                        static_cast<double>(report.archive.size()), target,
                        report.achieved_psnr_db);

    std::vector<std::uint8_t> corrupted;
    std::span<const std::uint8_t> to_decode(report.archive);
    if (corrupt_next) {
      corrupted = corrupted_copy(report.archive);
      to_decode = corrupted;
      corrupt_next = false;
    }
    fpsnr::Field full;
    tally.attempt();
    try {
      Span s("session.decompress", op);
      full = session.decompress(fpsnr::Source::memory(to_decode));
      const double t = s.stop();
      call_s += t;
      if (timed) {
        measured.decompress.add(static_cast<double>(f.bytes()), t);
        measured.call(t);
      }
      if (full.f32.size() != f.size())
        tally.fail(label + ": full decode has " +
                   std::to_string(full.f32.size()) + " values, want " +
                   std::to_string(f.size()));
      else
        tally.check_psnr(label + " full decode", psnr_db(f.span(), full.f32),
                         report.achieved_psnr_db);
    } catch (const std::exception& e) {
      tally.fail(label + ": full decode threw: " + e.what());
    }

    for (std::size_t k = 0; k < kBlockReads && report.block_count > 0; ++k) {
      const std::size_t b = rng() % report.block_count;
      tally.attempt();
      try {
        Span s("session.decompress_block", op);
        const auto block = session.decompress_block(
            fpsnr::Source::memory(report.archive), b);
        const double t = s.stop();
        call_s += t;
        if (timed) {
          measured.block_read_s.push_back(t);
          measured.call(t);
        }
        if (full.f32.size() == f.size() &&
            block.f32 != gather(full.f32, f.dims.extents,
                                tile_box(f.dims.extents, report.tile, b)))
          tally.fail(label + ": block " + std::to_string(b) +
                     " differs from the same tile of the full decode");
      } catch (const std::exception& e) {
        tally.fail(label + ": block " + std::to_string(b) +
                   " read threw: " + e.what());
      }
    }

    if (keep) {
      ReplayEntry entry;
      entry.label = label;
      entry.values = f.span();
      entry.dims = f.dims.extents;
      entry.target_db = target;
      entry.high_target = target == kTargets[1];
      entry.achieved_db = report.achieved_psnr_db;
      entry.archive = std::move(report.archive);
      replay.push_back(std::move(entry));
    }
    return call_s;
  };

  // Warm-up (untimed): one field of each dataset at both targets.
  for (double target : kTargets) {
    run_field(fields.front(), target, false, false, false);
    run_field(fields.back(), target, false, false, false);
  }

  // The first traced pass keeps its archives for the replays.
  bool kept_pass = false;
  const PassFn pass = [&](int p) {
    const bool keep = Tracer::active() != nullptr && !kept_pass;
    double call_s = 0.0;
    for (double target : kTargets)
      for (const NamedField& nf : fields)
        call_s += run_field(nf, target, true, p == 0, keep);
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

  // Per dataset and target: mean achieved PSNR of the kept pass (stderr).
  for (double target : kTargets)
    for (const auto* ds : {&hurricane, &nyx}) {
      double achieved = 0.0;
      std::size_t n = 0;
      for (const ReplayEntry& e : replay)
        if (e.target_db == target && e.label.rfind(ds->name + "/", 0) == 0) {
          achieved += e.achieved_db;
          ++n;
        }
      if (n > 0)
        std::fprintf(stderr,
                     "perfbench: %s at %.0f dB: mean achieved %.3f dB over %zu "
                     "fields\n",
                     ds->name.c_str(), target, achieved / static_cast<double>(n),
                     n);
    }

  ReplayConfig rc;
  rc.threads = so.threads;
  rc.subset_entries = 6;
  rc.block_picks = kBlockReads;
  replay_layers(replay, rc, rng, tally, out.layers);
}

}  // namespace perfbench
