// Per-layer replays of the traced run, shared by every workload.
//
// Each replay re-runs one slice of a workload's own compressions through
// one module's public functions, inside spans, and turns the span times
// and byte counts into per-layer metrics:
//
//   core + parallel  FieldCompressor plan / run_block / finalize, the blocks
//                    submitted to a parallel::WorkQueue by the benchmark;
//                    core::decompress_block on seeded random blocks
//   sz / huffman /   per-tile stage replay on a seeded tile sample:
//   lossless         sz::prediction_trace, BlockCodec::compress with the
//                    Store backend, huffman::Encoder::from_frequencies,
//                    lossless backend_compress / backend_decompress
//   io               io::open_block_container, io::block_container_entry
//   simd             Session::compress under simd::force_backend(Scalar)
//
// Every replayed archive must be byte-identical to the one the workload
// produced through the public surface; a mismatch is a failed operation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One compression of the workload: its input, its spec, and the archive
/// the workload's public call produced for it.
struct ReplayEntry {
  std::string label;
  std::span<const float> values;
  std::vector<std::size_t> dims;
  double target_db = 0.0;
  std::string engine = "sz-lorenzo";
  /// true for the workload's higher PSNR target (80 dB everywhere).
  bool high_target = false;
  std::vector<std::uint8_t> archive;
  double achieved_db = 0.0;
};

struct ReplayConfig {
  std::size_t threads = 1;          ///< WorkQueue / Session worker cap
  std::size_t subset_entries = 6;   ///< entries timed for scaling and simd
  std::size_t block_picks = 16;     ///< random blocks read per archive
};

/// Run every replay over `entries` and fill the core.*, sz.*, huffman.*,
/// lossless.*, simd.*, parallel.* and io.* metrics of `out`.
void replay_layers(const std::vector<ReplayEntry>& entries,
                   const ReplayConfig& config, Rng& rng, Tally& tally,
                   Metrics& out);

}  // namespace perfbench
