#include "catalog.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bhive/generator.h"
#include "util/rng.h"

namespace perfbench {

namespace bhive = comet::bhive;
namespace util = comet::util;
namespace x86 = comet::x86;

namespace {

constexpr std::uint64_t kSweepDrawSeed = 0xC0E7'0001;
constexpr std::uint64_t kServeDrawSeed = 0xC0E7'0002;
constexpr std::uint64_t kServeSkewSeed = 0xC0E7'0003;
constexpr std::uint64_t kSweepSeedBase = 1000;
constexpr std::uint64_t kServeSeedBase = 5000;

// Half Clang-profile, half OpenBLAS-profile blocks of 4-10 instructions,
// the mix of the repository's canonical dataset.
std::vector<x86::BasicBlock> draw_blocks(std::size_t n, std::uint64_t seed) {
  bhive::GeneratorOptions clang;
  clang.source = bhive::BlockSource::Clang;
  bhive::GeneratorOptions blas;
  blas.source = bhive::BlockSource::OpenBLAS;
  const bhive::BlockGenerator generators[2] = {bhive::BlockGenerator(clang),
                                               bhive::BlockGenerator(blas)};
  util::Rng rng(seed);
  std::vector<x86::BasicBlock> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(generators[i % 2].generate(rng));
  }
  return blocks;
}

}  // namespace

const char* model_name(ModelId model) {
  return model == ModelId::UiCA ? "uica" : "ithemal";
}

std::vector<Item> sweep_catalog(ModelId model) {
  std::vector<Item> items;
  std::uint64_t seed = kSweepSeedBase;
  for (auto& block : draw_blocks(kSweepBlocks, kSweepDrawSeed)) {
    items.push_back({model, std::move(block), seed++});
  }
  return items;
}

std::vector<Item> serve_catalog() {
  const auto pool = draw_blocks(kServePoolBlocks, kServeDrawSeed);
  const auto weight = [](std::size_t r) { return 1.0 / std::sqrt(r + 1.0); };
  double total = 0.0;
  for (std::size_t r = 0; r < pool.size(); ++r) total += weight(r);
  util::Rng rng(kServeSkewSeed);
  std::vector<Item> items;
  for (std::size_t j = 0; j < kServeEntries; ++j) {
    double u = rng.uniform() * total;
    std::size_t r = 0;
    while (r + 1 < pool.size() && (u -= weight(r)) >= 0.0) ++r;
    items.push_back({j % 2 == 0 ? ModelId::UiCA : ModelId::Ithemal, pool[r],
                     kServeSeedBase + j});
  }
  return items;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

comet::core::CometOptions explain_options(std::uint64_t seed) {
  comet::core::CometOptions opt;
  opt.epsilon = 0.5;
  opt.coverage_samples = 600;
  opt.batch_size = 8;
  opt.max_pulls_per_level = 80;
  opt.final_precision_samples = 120;
  opt.seed = seed;
  return opt;
}

Fingerprint fingerprint_of(const comet::core::Explanation& e) {
  Fingerprint f;
  f.features = e.features.to_string();
  f.precision = e.precision;
  f.coverage = e.coverage;
  f.met_threshold = e.met_threshold;
  f.requested = e.query_stats.requested;
  f.evaluated = e.query_stats.evaluated;
  f.cache_hits = e.query_stats.cache_hits;
  return f;
}

std::string item_key(const Item& item) {
  char buf[80];
  std::snprintf(buf, sizeof buf, "%s:%016" PRIx64 ":%" PRIu64,
                model_name(item.model),
                util::fnv1a64(item.block.to_string().c_str()), item.seed);
  return buf;
}

// File format, one fingerprint per line, tab-separated:
//   key  precision  coverage  met_threshold  requested  evaluated
//   cache_hits  features
// Doubles are written with 17 significant digits, so they read back
// exactly.
Oracle Oracle::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fingerprints " + path);
  Oracle oracle;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, precision, coverage, met, requested, evaluated, hits;
    Fingerprint f;
    if (!std::getline(fields, key, '\t') ||
        !std::getline(fields, precision, '\t') ||
        !std::getline(fields, coverage, '\t') ||
        !std::getline(fields, met, '\t') ||
        !std::getline(fields, requested, '\t') ||
        !std::getline(fields, evaluated, '\t') ||
        !std::getline(fields, hits, '\t') ||
        !std::getline(fields, f.features)) {
      throw std::runtime_error("malformed fingerprint line: " + line);
    }
    f.precision = std::stod(precision);
    f.coverage = std::stod(coverage);
    f.met_threshold = met == "1";
    f.requested = std::stoull(requested);
    f.evaluated = std::stoull(evaluated);
    f.cache_hits = std::stoull(hits);
    oracle.table_[key] = f;
  }
  if (oracle.table_.empty()) {
    throw std::runtime_error("no fingerprints in " + path);
  }
  return oracle;
}

void Oracle::save(const std::string& path,
                  const std::map<std::string, Fingerprint>& table) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out,
               "# key\tprecision\tcoverage\tmet_threshold\trequested\t"
               "evaluated\tcache_hits\tfeatures\n");
  for (const auto& [key, f] : table) {
    std::fprintf(out, "%s\t%.17g\t%.17g\t%d\t%zu\t%zu\t%zu\t%s\n",
                 key.c_str(), f.precision, f.coverage,
                 f.met_threshold ? 1 : 0, f.requested, f.evaluated,
                 f.cache_hits, f.features.c_str());
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

bool Oracle::check(const Item& item, const comet::core::Explanation& e) const {
  const auto it = table_.find(item_key(item));
  return it != table_.end() && it->second == fingerprint_of(e);
}

}  // namespace perfbench
