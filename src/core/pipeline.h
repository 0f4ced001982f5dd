// Block-parallel fixed-PSNR pipeline engine.
//
// The field is sharded into full-rank tiles ("blocks"): a per-axis tile
// shape — near-cubic by default, so neighborhood prediction stays compact
// in every dimension — induces a C-order tile grid, and each tile runs the
// full quantize -> Huffman -> lossless pipeline independently through a
// BlockCodec (core/codec_registry.h) on a thread pool. The results are
// assembled into the FPBK block-indexed container (io/archive.h), which
// tolerates out-of-order completion and supports random-access decode of
// single blocks. Tiles that span the field on every axis but the first
// (axis-0 slabs — the v1/v2 geometry) are borrowed straight from the field
// buffer; true multi-axis tiles are gathered into a contiguous scratch
// buffer for the codec and scattered back on decode.
//
// Error-budget accounting: the user's control request is resolved ONCE
// against the global value range to an absolute per-point budget eb_abs
// (bin width 2*eb_abs). Under BudgetMode::Uniform every block inherits
// that same budget, so
//   * the SZ path keeps its pointwise |err| <= eb_abs guarantee, and
//   * the global fixed-PSNR model is untouched: each block of n_b values
//     contributes at most n_b * eb_abs^2 / 3 to the total SSE (Eq. 6), and
//     sum_b n_b * eb^2/3 / N = eb^2/3 — exactly the serial model. The
//     engine sums the per-block budgets and cross-checks the identity.
// Under BudgetMode::Adaptive a per-block residual probe reallocates the
// bounds, exploiting Eq. 3's general form: any allocation with
// sum_b n_b * eb_b^2 <= N * eb^2 preserves the fixed-PSNR guarantee.
// Blocks whose residuals sit far below their allowance (already coding at
// the entropy floor) donate the budget they never spend; blocks on the
// rate curve share it as uniformly wider bins, so their bits shrink
// log-linearly at the same global PSNR target. The engine still
// cross-checks the aggregate against the uniform-plan budget.
//
// Every block's exact achieved SSE is measured at compress time and stored
// in the FPBK v2 index column, so readers report the *measured* global
// PSNR of an archive, not just the model bound. Blocks whose compressed
// form would be no smaller than raw are auto-demoted to the `store`
// passthrough codec (self-describing per-block magic).
//
// Determinism: the block layout, budget split, and store fallback depend
// only on the data, dims, and tile shape — never on the thread count — so
// compress() output is byte-identical for any `threads` value.
//
// INTERNAL engine surface: external callers use the fpsnr::Session facade
// (include/fpsnr/session.h), which emits byte-identical archives through
// these same internals.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/codec_registry.h"
#include "core/compressor.h"
#include "core/tile_layout.h"

namespace fpsnr::io {
struct StreamingStats;  // io/streaming_archive.h
}

namespace fpsnr::core {

/// Parsed summary of an FPBK stream (inspect support).
struct BlockStreamInfo {
  std::uint8_t version = 0;  ///< container version (1..4)
  CodecId codec = 0;
  std::string_view codec_name;
  data::Dims dims;
  /// Per-axis tile extents (v1/v2 slabs surface as {block_rows, dims...}).
  std::vector<std::size_t> tile;
  std::size_t block_count = 0;
  double eb_abs = 0.0;
  double value_range = 0.0;
  ControlMode control_mode = ControlMode::FixedPsnr;
  double control_value = 0.0;
  BudgetMode budget_mode = BudgetMode::Uniform;
  /// Total achieved SSE from the v2 per-block index column; -1 for v1
  /// streams (not recorded).
  double achieved_sse = -1.0;
  /// Measured global PSNR implied by achieved_sse (+inf for lossless);
  /// NaN for v1 streams.
  double achieved_psnr_db = 0.0;
  /// v4 temporal-chain metadata (all zero / false for v1..v3 streams).
  bool temporal = false;  ///< stream is a series member (v4)
  bool delta = false;     ///< frame codes deltas against a reference
  std::uint64_t series_id = 0;
  std::uint64_t timestep = 0;
  std::uint64_t ref_hash = 0;  ///< FNV-1a of the reference reconstruction
  std::size_t temporal_blocks = 0;  ///< blocks coded in temporal-delta mode
};

/// True if `stream` is a block-pipeline (FPBK) container.
bool is_block_stream(std::span<const std::uint8_t> stream);

BlockStreamInfo inspect_block_stream(std::span<const std::uint8_t> stream);

/// Resumable per-field compression job — the pipeline decomposed into its
/// three phases so callers can schedule the middle one themselves:
///
///   plan      the constructor resolves the budget, block layout, adaptive
///             split, and container header (all data-dependent only, never
///             thread-dependent), and opens the output writer;
///   enqueue   run_block(b) compresses block b and hands it to the writer —
///             safe to call concurrently for distinct b, in any order, from
///             any thread;
///   finalize  finalize() validates the budget accounting and finishes the
///             archive once every block has run.
///
/// compress_blocked / compress_to_file are thin wrappers that push one
/// task per block onto a local parallel::WorkQueue and drain it; core/batch
/// instead interleaves the blocks of MANY FieldCompressors onto one queue and
/// finalizes each field as its last block completes. Because the plan and
/// the per-block bytes depend only on the data and options, the archive is
/// byte-identical however the blocks were scheduled.
template <typename T>
class FieldCompressor {
 public:
  /// In-memory plan: finalize() returns the FPBK stream in
  /// CompressResult::stream. Throws exactly like compress_blocked for
  /// invalid dims / control modes.
  FieldCompressor(std::span<const T> values, const data::Dims& dims,
                  const ControlRequest& request,
                  const CompressOptions& options);
  /// Streaming plan: blocks spill to `path` as their prefix completes
  /// (io::StreamingArchiveWriter); finalize() renames the finished archive
  /// onto `path` and leaves CompressResult::stream empty. The partial file
  /// is removed if the job is destroyed unfinalized.
  FieldCompressor(std::span<const T> values, const data::Dims& dims,
                  const ControlRequest& request,
                  const CompressOptions& options, std::string path);
  ~FieldCompressor();

  FieldCompressor(FieldCompressor&&) noexcept;
  FieldCompressor& operator=(FieldCompressor&&) noexcept;

  std::size_t block_count() const;

  /// Compress block `b` and hand it to the writer. Thread-safe for
  /// distinct indices; running the same index twice throws. Returns true
  /// exactly once — when this call completed the field's LAST outstanding
  /// block — so the completing worker knows to finalize.
  bool run_block(std::size_t b);

  /// Scheduling hint for block `b`: a non-zero key shared by the tiles of
  /// one coarse grid neighborhood (2 tiles per axis), so a locality-aware
  /// queue (parallel::WorkQueue) can keep adjacent tiles — which share
  /// cache lines along their faces — on the worker that last touched the
  /// neighborhood. Purely advisory: archive bytes never depend on it.
  std::uint64_t locality_key(std::size_t b) const;

  /// True once every block has run.
  bool complete() const;

  /// Validate the per-block budget accounting and finish the archive.
  /// Must be called exactly once, after complete(). `stats` reports the
  /// streaming writer's layout/high-water marks (ignored in-memory).
  CompressResult finalize(io::StreamingStats* stats = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compress through the block pipeline. Supports every uniform-budget
/// control mode (FixedPsnr / Absolute / ValueRangeRelative / FixedNrmse)
/// plus FixedRate (each block bisects its own bound toward the requested
/// bits/value, seeded by a zfpr-style width census — the searches run
/// per block, so they parallelize like any other block work);
/// PointwiseRelative throws std::invalid_argument.
template <typename T>
CompressResult compress_blocked(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options);

/// Streaming variant: identical block layout, budgets, and bytes as
/// compress_blocked, but each block is spilled to `path` as its worker
/// finishes (io::StreamingArchiveWriter) — peak memory is the in-flight
/// reorder buffer, never the whole container. The returned result carries
/// the usual accounting with an empty `stream`; `stats` (optional) reports
/// the final size and the reorder-buffer high-water mark.
template <typename T>
CompressResult compress_to_file(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options,
                                const std::string& path,
                                io::StreamingStats* stats = nullptr);

/// Decode a whole archive file through a read-only memory map.
template <typename T>
sz::Decompressed<T> decompress_file(const std::string& path,
                                    std::size_t threads = 0);

/// Random-access decode of one block straight from the mapped file: only
/// the header, two index entries, and that block's extent are ever read.
template <typename T>
sz::Decompressed<T> decompress_file_block(const std::string& path,
                                          std::size_t block_index);

/// Decompress a full FPBK stream; blocks are decoded concurrently when
/// threads > 1.
template <typename T>
sz::Decompressed<T> decompress_blocked(std::span<const std::uint8_t> stream,
                                       std::size_t threads = 0);

/// Random-access decode of one block: only that block's payload is parsed.
/// The result's dims are the tile's per-axis extents (trailing tiles on an
/// axis may be short).
template <typename T>
sz::Decompressed<T> decompress_block(std::span<const std::uint8_t> stream,
                                     std::size_t block_index);

extern template class FieldCompressor<float>;
extern template class FieldCompressor<double>;
extern template CompressResult compress_blocked<float>(
    std::span<const float>, const data::Dims&, const ControlRequest&,
    const CompressOptions&);
extern template CompressResult compress_blocked<double>(
    std::span<const double>, const data::Dims&, const ControlRequest&,
    const CompressOptions&);
extern template sz::Decompressed<float> decompress_blocked<float>(
    std::span<const std::uint8_t>, std::size_t);
extern template sz::Decompressed<double> decompress_blocked<double>(
    std::span<const std::uint8_t>, std::size_t);
extern template sz::Decompressed<float> decompress_block<float>(
    std::span<const std::uint8_t>, std::size_t);
extern template sz::Decompressed<double> decompress_block<double>(
    std::span<const std::uint8_t>, std::size_t);
extern template CompressResult compress_to_file<float>(
    std::span<const float>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
extern template CompressResult compress_to_file<double>(
    std::span<const double>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
extern template sz::Decompressed<float> decompress_file<float>(
    const std::string&, std::size_t);
extern template sz::Decompressed<double> decompress_file<double>(
    const std::string&, std::size_t);
extern template sz::Decompressed<float> decompress_file_block<float>(
    const std::string&, std::size_t);
extern template sz::Decompressed<double> decompress_file_block<double>(
    const std::string&, std::size_t);

}  // namespace fpsnr::core
