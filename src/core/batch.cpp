#include "core/batch.h"

#include <cctype>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "metrics/metrics.h"
#include "parallel/work_queue.h"

namespace fpsnr::core {

metrics::RunningStats BatchResult::psnr_stats() const {
  metrics::RunningStats s;
  for (const FieldOutcome& f : fields) s.add(f.actual_psnr_db);
  return s;
}

double BatchResult::met_fraction() const {
  if (fields.empty()) return 0.0;
  std::size_t met = 0;
  for (const FieldOutcome& f : fields)
    if (f.met_target) ++met;
  return static_cast<double>(met) / static_cast<double>(fields.size());
}

double BatchResult::mean_abs_deviation_db() const {
  if (fields.empty()) return 0.0;
  double acc = 0.0;
  for (const FieldOutcome& f : fields)
    acc += std::abs(f.actual_psnr_db - f.target_psnr_db);
  return acc / static_cast<double>(fields.size());
}

namespace {

/// Streaming target for one field, or "" for in-memory runs. Separators
/// in a field name would escape the directory (':' makes a Windows
/// drive-relative root-name that discards stream_dir); flatten them.
std::string archive_path_for(const BatchOptions& options,
                             const std::string& field_name) {
  if (options.stream_dir.empty()) return {};
  std::string name = field_name;
  for (char& c : name)
    if (c == '/' || c == '\\' || c == ':') c = '_';
  return (std::filesystem::path(options.stream_dir) / (name + ".fpbk"))
      .string();
}

/// Turn one field's finished CompressResult into its FieldOutcome. Runs on
/// whichever worker finalized the field; writes only this field's slot.
void fill_outcome(FieldOutcome& out, const data::FieldView& field,
                  double target_psnr_db, CompressResult cr,
                  const BatchOptions& options, const std::string& path) {
  out.field_name = field.name;
  out.target_psnr_db = target_psnr_db;
  out.predicted_psnr_db = cr.predicted_psnr_db;
  out.rel_bound_used = cr.rel_bound_used;
  out.compression_ratio = cr.info.compression_ratio;
  out.bit_rate = cr.info.bit_rate;
  out.outlier_count = cr.info.outlier_count;
  out.compressed_bytes = cr.info.compressed_bytes;
  out.archive_path = path;
  if (options.verify) {
    // Independent check: decode the archive and measure. Decoding stays
    // single-threaded here — the batch scheduler owns the parallelism.
    const auto decoded = path.empty()
                             ? decompress_blocked<float>(cr.stream, 1)
                             : decompress_file<float>(path, 1);
    const auto rep = metrics::compare<float>(field.span(), decoded.values);
    out.actual_psnr_db = rep.psnr_db;
    out.max_abs_error = rep.max_abs_error;
  } else {
    // The FPBK v2 index records every block's exact achieved SSE, so the
    // compress-time PSNR IS the decoded measurement — no decode needed.
    out.actual_psnr_db = cr.achieved_psnr_db;
  }
  out.met_target = out.actual_psnr_db >= target_psnr_db;
  if (options.keep_streams) out.stream = std::move(cr.stream);
}

}  // namespace

std::string fold_archive_name(std::string_view name) {
  std::string out(name);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool archive_name_ascii(std::string_view name) {
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u > 0x7E) return false;
  }
  return true;
}

BatchResult run_fixed_psnr_batch(const data::Dataset& dataset, double target_psnr_db,
                                 const BatchOptions& options) {
  std::vector<data::FieldView> views;
  views.reserve(dataset.fields.size());
  for (const data::Field& f : dataset.fields)
    views.push_back({f.name, f.dims, f.span()});
  return run_fixed_psnr_batch(views, dataset.name, target_psnr_db, options);
}

BatchResult run_fixed_psnr_batch(std::span<const data::FieldView> fields,
                                 std::string_view dataset_name,
                                 double target_psnr_db,
                                 const BatchOptions& options) {
  BatchResult result;
  result.dataset_name = std::string(dataset_name);
  result.target_psnr_db = target_psnr_db;
  const std::size_t field_count = fields.size();
  result.fields.resize(field_count);
  if (field_count == 0) return result;

  if (!options.stream_dir.empty())
    std::filesystem::create_directories(options.stream_dir);

  // Resolve every field's streaming target up front and reject collisions:
  // name flattening, duplicate field names, or case-folding on the
  // filesystem (fold_archive_name) mapping two fields to one path would
  // race two archive writers on the same file. Conservative on
  // case-sensitive filesystems, but a portability-dependent writer race
  // is worse than a portable rejection.
  std::vector<std::string> paths(field_count);
  for (std::size_t i = 0; i < field_count; ++i) {
    paths[i] = archive_path_for(options, fields[i].name);
    if (paths[i].empty()) continue;
    // ASCII case folding cannot predict how the volume folds Unicode
    // names ("Ä" vs "ä" is one APFS file); keep filesystem-bound names
    // inside the range the collision guard actually covers.
    if (!archive_name_ascii(fields[i].name))
      throw std::invalid_argument(
          "batch: field '" + fields[i].name +
          "' cannot be streamed: archive names must be printable ASCII");
    for (std::size_t j = 0; j < i; ++j)
      if (fold_archive_name(paths[j]) == fold_archive_name(paths[i]))
        throw std::invalid_argument(
            "batch: fields '" + fields[j].name + "' and '" +
            fields[i].name + "' both stream to " + paths[i] +
            (paths[j] == paths[i]
                 ? " (names map to one archive after separator flattening)"
                 : " (archive names collide case-insensitively)"));
  }

  const ControlRequest request = ControlRequest::fixed_psnr(target_psnr_db);
  CompressOptions copts = options.compress;
  copts.parallel.block_pipeline = true;

  if (!options.global_queue) {
    // Pre-queue baseline: one field at a time, each fanning its blocks out
    // on its own, with a full barrier between fields. Same plans, same
    // bytes — only the schedule (and the idle cores on small fields)
    // differ.
    copts.parallel.threads = options.threads;
    for (std::size_t i = 0; i < field_count; ++i) {
      const data::FieldView& field = fields[i];
      CompressResult cr =
          paths[i].empty()
              ? compress_blocked<float>(field.span(), field.dims, request, copts)
              : compress_to_file<float>(field.span(), field.dims, request,
                                        copts, paths[i]);
      fill_outcome(result.fields[i], field, target_psnr_db, std::move(cr),
                   options, paths[i]);
    }
    return result;
  }

  // Streaming opens every in-flight field's `.partial` at plan time (and
  // the round-robin enqueue runs every field's first block early), so an
  // unbounded wave would hold one fd per field — a multi-thousand-field
  // manifest would hit EMFILE. In-memory runs have no such cap.
  copts.parallel.threads = 0;  // the queue owns all scheduling
  const std::size_t wave_limit =
      options.stream_dir.empty()
          ? field_count
          : (options.max_open_streams ? options.max_open_streams
                                      : std::size_t{256});

  for (std::size_t wave_begin = 0; wave_begin < field_count;
       wave_begin += wave_limit) {
    const std::size_t wave_end =
        std::min(field_count, wave_begin + wave_limit);

    // Phase 1 — plan every field of the wave up front (budgets, layouts,
    // headers, output writers). Plans depend only on data and options, so
    // this is the point after which the bytes are already determined.
    // Planning itself scans every value (range resolution; a second probe
    // pass under adaptive budgets), so the independent per-field plans
    // are fanned out too — otherwise a CESM-scale dataset pays an
    // O(total values) serial prefix before the first block task runs.
    std::vector<std::unique_ptr<FieldCompressor<float>>> jobs(wave_end -
                                                              wave_begin);
    parallel::WorkQueue planning;
    for (std::size_t w = 0; w < jobs.size(); ++w)
      planning.push([&, w] {
        const std::size_t i = wave_begin + w;
        const data::FieldView& field = fields[i];
        jobs[w] = paths[i].empty()
                      ? std::make_unique<FieldCompressor<float>>(
                            field.span(), field.dims, request, copts)
                      : std::make_unique<FieldCompressor<float>>(
                            field.span(), field.dims, request, copts,
                            paths[i]);
      });
    planning.drain(options.threads);
    std::size_t max_blocks = 0;
    for (const auto& job : jobs)
      max_blocks = std::max(max_blocks, job->block_count());

    // Phase 2 — enqueue every block of every field in the wave,
    // round-robin across fields so small fields complete (and finalize,
    // freeing their writers) early instead of queueing behind a huge
    // field's tail.
    parallel::WorkQueue queue;
    for (std::size_t r = 0; r < max_blocks; ++r) {
      for (std::size_t w = 0; w < jobs.size(); ++w) {
        if (r >= jobs[w]->block_count()) continue;
        const std::size_t i = wave_begin + w;
        // Tag each block with its field + coarse tile neighborhood so the
        // queue's locality pass keeps adjacent tiles — which share cache
        // lines along their faces — on the worker that last touched them.
        // The field index is folded in high bits so neighborhoods of
        // different fields never share a key. Advisory only: plans and
        // bytes are fixed by Phase 1 regardless of placement.
        parallel::WorkQueue::TaskOptions topts;
        topts.locality = (static_cast<std::uint64_t>(w) + 1) << 40 ^
                         jobs[w]->locality_key(r);
        queue.push([&queue, &result, &fields, &jobs, &paths, &options,
                    target_psnr_db, i, w, r] {
          // Phase 3 — the worker that completes a field's last block
          // finalizes its archive right here, inside the drain: when the
          // queue runs dry, every archive is done. The verify decode (a
          // full single-threaded pass over the field) goes back on the
          // queue as a follow-up task instead of running inline, so the
          // biggest field's verification overlaps the remaining
          // compression on other workers rather than serializing the
          // tail.
          if (jobs[w]->run_block(r)) {
            auto cr = std::make_shared<CompressResult>(jobs[w]->finalize());
            if (options.verify)
              queue.push([&result, &fields, &paths, &options,
                          target_psnr_db, i, cr] {
                fill_outcome(result.fields[i], fields[i],
                             target_psnr_db, std::move(*cr), options,
                             paths[i]);
              });
            else
              fill_outcome(result.fields[i], fields[i],
                           target_psnr_db, std::move(*cr), options, paths[i]);
          }
        }, topts);
      }
    }
    queue.drain(options.threads);
  }
  return result;
}

std::vector<BatchResult> run_fixed_psnr_sweep(const data::Dataset& dataset,
                                              std::span<const double> targets,
                                              const BatchOptions& options) {
  std::vector<BatchResult> out;
  out.reserve(targets.size());
  for (double t : targets)
    out.push_back(run_fixed_psnr_batch(dataset, t, options));
  return out;
}

}  // namespace fpsnr::core
