// Ablation — parallel scaling of the two production axes.
//
// Within a field, the block-parallel pipeline engine (core/pipeline) runs one
// WorkQueue task per block; its FPBK container also gives random-access
// decode. Across fields, core/batch interleaves every field's blocks on one
// queue. The block layout is fixed by the data, never by the worker count,
// so every arm's output is byte-identical and the timing difference is pure
// execution parallelism.
#include <benchmark/benchmark.h>

#include "core/batch.h"
#include "core/pipeline.h"
#include "data/dataset.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

core::CompressResult compress_fixed_psnr(std::span<const float> values,
                                         const fpsnr::data::Dims& dims,
                                         double target,
                                         const core::CompressOptions& opts = {}) {
  return core::compress<float>(values, dims,
                               core::ControlRequest::fixed_psnr(target), opts);
}

// The headline scaling curve: the block-parallel pipeline engine at 1..N
// worker threads (auto block layout).
void BM_PipelineCompress(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  opts.parallel.block_pipeline = true;
  opts.parallel.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = compress_fixed_psnr(f.span(), f.dims, 80.0, opts);
    benchmark::DoNotOptimize(result.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_PipelineCompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineDecompress(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  opts.parallel.block_pipeline = true;
  const auto stream =
      compress_fixed_psnr(f.span(), f.dims, 80.0, opts).stream;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto out = core::decompress_blocked<float>(stream, threads);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_PipelineDecompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineRandomAccessBlock(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  opts.parallel.block_pipeline = true;
  const auto stream =
      compress_fixed_psnr(f.span(), f.dims, 80.0, opts).stream;
  const auto info = core::inspect_block_stream(stream);
  std::size_t b = 0;
  for (auto _ : state) {
    auto out = core::decompress_block<float>(stream, b);
    benchmark::DoNotOptimize(out.values.data());
    b = (b + 1) % info.block_count;
  }
}
BENCHMARK(BM_PipelineRandomAccessBlock)->Unit(benchmark::kMillisecond);

void BM_BatchAcrossFields(benchmark::State& state) {
  const auto ds = data::make_hurricane({0.5, 20180713});
  const auto threads = static_cast<std::size_t>(state.range(0));
  core::BatchOptions opts;
  opts.threads = threads;
  for (auto _ : state) {
    auto batch = core::run_fixed_psnr_batch(ds, 80.0, opts);
    benchmark::DoNotOptimize(batch.fields.data());
  }
}
BENCHMARK(BM_BatchAcrossFields)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
