// Shared checkpoint (de)serialization for the NN cost models.
//
// Format: uint32 magic, then each matrix as [uint64 rows, uint64 cols,
// float32 payload row-major] in a fixed serialization order.
//
// Threat model of load_checkpoint(): the bytes come from a shared cache or
// a remote peer, not necessarily from our own save_checkpoint(). A missing
// file or a foreign/stale magic is a cache miss (return false, caller
// retrains). Once the magic matches, the file claims to be this exact
// checkpoint — from that point any structural mismatch throws
// util::ContractViolation:
//
//   * the total file size is validated against the expected layout BEFORE
//     any payload is read (truncated and oversized files die here);
//   * each dimension header is validated against sane maxima and the
//     expected shape BEFORE any buffer is sized, so a forged size field can
//     never drive a huge allocation (ContractViolation, not bad_alloc);
//   * every payload float must be finite (a bit-flipped exponent must not
//     silently poison every subsequent prediction);
//   * weights are staged and committed only after the whole file validates,
//     so a throwing load leaves the live model untouched.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "nn/mat.h"

namespace comet::cost {

/// Serialized byte footprint of one matrix record (dims header + payload).
inline std::uint64_t mat_record_bytes(const nn::Mat& m) {
  return 2 * sizeof(std::uint64_t) + sizeof(float) * m.size();
}

/// Largest per-axis dimension a checkpoint header may claim. Far above any
/// real model here (the embedding is the biggest matrix at a few thousand
/// rows) and far below anything that could size a harmful allocation.
inline constexpr std::uint64_t kMaxCheckpointDim = 1u << 20;

/// Write `magic` + `mats` (in order) to `path`, creating its parent
/// directory if needed. The bytes go to a sibling temp file that is then
/// renamed over `path`, so a concurrent load_checkpoint never reads a
/// partial file. Throws std::runtime_error on open failure, short write or
/// failed rename, and leaves no temp file behind.
void save_checkpoint(const std::filesystem::path& path, std::uint32_t magic,
                     const char* what, const std::vector<const nn::Mat*>& mats);

/// Load `path` into `mats` (in order). Returns false when the file is
/// missing or carries a different magic (cache miss / stale format).
/// Throws util::ContractViolation when the file matches the magic but is
/// structurally corrupt (see the threat-model notes above). On success the
/// staged weights are committed into `mats` atomically; on any failure the
/// targets are left untouched.
bool load_checkpoint(const std::filesystem::path& path, std::uint32_t magic,
                     const char* what, const std::vector<nn::Mat*>& mats);

}  // namespace comet::cost
