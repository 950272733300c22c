// The benchmark's inputs and its correctness oracle.
//
// Every explanation the benchmark runs is a catalog entry: a block from a
// fixed, seeded bhive::BlockGenerator draw (alternating the Clang and
// OpenBLAS profiles), an explanation seed, and a model. The catalog is
// finite so that reference fingerprints can be committed for all of it;
// the workload seed given on the command line chooses the order in which
// a run explains the entries and, when served, when they arrive
// (workloads.cpp).
//
// A fingerprint is everything an explanation decides: its features,
// precision, coverage, met_threshold, and the broker's requested /
// evaluated / cache_hits ledger. batch_calls is left out on purpose, so a
// change that only regroups model queries into fewer batches still checks
// clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/comet.h"
#include "core/explanation.h"
#include "x86/instruction.h"

namespace perfbench {

enum class ModelId { UiCA, Ithemal };
const char* model_name(ModelId model);

/// One explanation job.
struct Item {
  ModelId model = ModelId::UiCA;
  comet::x86::BasicBlock block;
  std::uint64_t seed = 0;  ///< CometOptions::seed
};

/// The sweep catalog: kSweepBlocks blocks, each with its own seed. Both
/// sweeps explain the same entries; only the model differs.
inline constexpr std::size_t kSweepBlocks = 128;
std::vector<Item> sweep_catalog(ModelId model);

/// The serving catalog: kServeEntries requests over a pool of
/// kServePoolBlocks blocks drawn with a skew (block r has weight
/// 1/sqrt(r+1)), so blocks repeat across requests. Even entries go to
/// uiCA, odd ones to Ithemal, and every entry has a distinct seed. (With 8
/// blocks weighted 1/(r+1), a third of the requests shared one block and
/// the latencies fell in a few clusters; the median sat in a gap between
/// two of them and jumped by a fifth from seed to seed.)
inline constexpr std::size_t kServePoolBlocks = 32;
inline constexpr std::size_t kServeEntries = 120;
std::vector<Item> serve_catalog();

/// A seeded permutation of [0, n).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// Engine options for every explanation in the benchmark: the repository's
/// setting for real cost models (epsilon = 0.5 cycles, coverage pool 600,
/// batches of 8, 80 pulls per level, 120 final-precision samples).
comet::core::CometOptions explain_options(std::uint64_t seed);

struct Fingerprint {
  std::string features;
  double precision = 0.0;
  double coverage = 0.0;
  bool met_threshold = false;
  std::size_t requested = 0;
  std::size_t evaluated = 0;
  std::size_t cache_hits = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const comet::core::Explanation& e);

/// Lookup key of an item: model, FNV-1a of the block text, seed.
std::string item_key(const Item& item);

/// Reference fingerprints, keyed by item_key.
class Oracle {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  static Oracle load(const std::string& path);
  /// Write `table` to `path` in the format load() reads.
  static void save(const std::string& path,
                   const std::map<std::string, Fingerprint>& table);

  /// True when `e` matches the committed fingerprint of `item`.
  bool check(const Item& item, const comet::core::Explanation& e) const;

 private:
  std::map<std::string, Fingerprint> table_;
};

}  // namespace perfbench
