#include "bhive/dataset.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/models.h"
#include "util/contract.h"
#include "util/str.h"
#include "x86/parser.h"

namespace comet::bhive {

Dataset::Dataset(std::vector<LabeledBlock> blocks)
    : blocks_(std::move(blocks)) {}

Dataset Dataset::by_source(BlockSource source) const {
  std::vector<LabeledBlock> out;
  for (const auto& b : blocks_) {
    if (b.source == source) out.push_back(b);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::by_category(BlockCategory category) const {
  std::vector<LabeledBlock> out;
  for (const auto& b : blocks_) {
    if (b.category == category) out.push_back(b);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::sample(std::size_t n, util::Rng& rng) const {
  std::vector<std::size_t> idx(blocks_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  std::vector<LabeledBlock> out;
  for (std::size_t i = 0; i < std::min(n, idx.size()); ++i) {
    out.push_back(blocks_[idx[i]]);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::head(std::size_t n) const {
  std::vector<LabeledBlock> out(blocks_.begin(),
                                blocks_.begin() + std::min(n, blocks_.size()));
  return Dataset(std::move(out));
}

std::vector<x86::BasicBlock> Dataset::block_views() const {
  std::vector<x86::BasicBlock> out;
  out.reserve(blocks_.size());
  for (const auto& b : blocks_) out.push_back(b.block);
  return out;
}

std::vector<double> Dataset::label_views(cost::MicroArch uarch) const {
  std::vector<double> out;
  out.reserve(blocks_.size());
  for (const auto& b : blocks_) out.push_back(b.measured(uarch));
  return out;
}

Dataset generate_dataset(const DatasetOptions& options) {
  util::Rng rng(options.seed);
  std::vector<LabeledBlock> blocks;
  blocks.reserve(options.size);
  const std::size_t n_clang = options.size / 2;
  for (std::size_t i = 0; i < options.size; ++i) {
    GeneratorOptions gopt;
    gopt.source = i < n_clang ? BlockSource::Clang : BlockSource::OpenBLAS;
    const BlockGenerator gen(gopt);
    LabeledBlock lb;
    lb.block = gen.generate(rng);
    lb.source = gopt.source;
    lb.category = classify(lb.block);
    lb.measured_hsw =
        sim::measured_throughput(lb.block, cost::MicroArch::Haswell);
    lb.measured_skl =
        sim::measured_throughput(lb.block, cost::MicroArch::Skylake);
    blocks.push_back(std::move(lb));
  }
  return Dataset(std::move(blocks));
}

Dataset explanation_test_set(const Dataset& dataset, std::size_t n,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return dataset.sample(n, rng);
}

namespace {

constexpr std::string_view kTextHeader = "comet-bhive v1";

std::string format_label(double v) {
  char buf[64];
  // %.17g round-trips any finite double through from_chars.
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

double parse_label(std::string_view field, std::size_t line_no) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), v);
  COMET_CHECK_MSG(ec == std::errc{} && ptr == field.data() + field.size(),
                  "dataset line " << line_no << ": bad throughput label '"
                                  << std::string(field) << "'");
  // Reject the absurd before it propagates: a NaN label would poison every
  // MAPE downstream, and 1e300 "cycles" is a forged field, not a
  // measurement.
  COMET_CHECK_MSG(std::isfinite(v) && v >= 0.0 && v <= kMaxMeasuredCycles,
                  "dataset line " << line_no << ": throughput label "
                                  << std::string(field)
                                  << " outside [0, " << kMaxMeasuredCycles
                                  << "]");
  return v;
}

BlockSource parse_source(std::string_view field, std::size_t line_no) {
  for (const BlockSource s : {BlockSource::Clang, BlockSource::OpenBLAS}) {
    if (field == source_name(s)) return s;
  }
  COMET_CHECK_MSG(false, "dataset line " << line_no
                                         << ": unknown block source '"
                                         << std::string(field) << "'");
  return BlockSource::Clang;  // unreachable
}

BlockCategory parse_category(std::string_view field, std::size_t line_no) {
  for (const BlockCategory c :
       {BlockCategory::Load, BlockCategory::Store, BlockCategory::LoadStore,
        BlockCategory::Scalar, BlockCategory::Vector,
        BlockCategory::ScalarVector}) {
    if (field == category_name(c)) return c;
  }
  COMET_CHECK_MSG(false, "dataset line " << line_no
                                         << ": unknown block category '"
                                         << std::string(field) << "'");
  return BlockCategory::Scalar;  // unreachable
}

}  // namespace

std::string to_text(const Dataset& dataset) {
  std::string out(kTextHeader);
  out += '\n';
  for (const auto& b : dataset.blocks()) {
    out += format_label(b.measured_hsw);
    out += '\t';
    out += format_label(b.measured_skl);
    out += '\t';
    out += source_name(b.source);
    out += '\t';
    out += category_name(b.category);
    out += '\t';
    for (std::size_t i = 0; i < b.block.size(); ++i) {
      if (i) out += "; ";
      out += b.block.instructions[i].to_string();
    }
    out += '\n';
  }
  return out;
}

Dataset parse_dataset_text(std::string_view text) {
  const auto lines = util::split(text, '\n');
  std::size_t line_no = 0;
  bool saw_header = false;
  std::vector<LabeledBlock> blocks;
  for (const auto& raw : lines) {
    ++line_no;
    const auto line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      COMET_CHECK_MSG(line == kTextHeader,
                      "dataset line " << line_no
                                      << ": expected header '" << kTextHeader
                                      << "', got '" << std::string(line)
                                      << "'");
      saw_header = true;
      continue;
    }
    const auto fields = util::split(line, '\t');
    COMET_CHECK_MSG(fields.size() == 5,
                    "dataset line " << line_no << ": expected 5 tab-separated"
                                    << " fields, got " << fields.size());
    LabeledBlock lb;
    lb.measured_hsw = parse_label(util::trim(fields[0]), line_no);
    lb.measured_skl = parse_label(util::trim(fields[1]), line_no);
    lb.source = parse_source(util::trim(fields[2]), line_no);
    lb.category = parse_category(util::trim(fields[3]), line_no);
    const auto insts = util::split(fields[4], ';');
    COMET_CHECK_MSG(insts.size() <= kMaxBlockInsts,
                    "dataset line " << line_no << ": block claims "
                                    << insts.size() << " instructions (max "
                                    << kMaxBlockInsts << ")");
    for (const auto& inst_text : insts) {
      const auto trimmed = util::trim(inst_text);
      COMET_CHECK_MSG(!trimmed.empty(),
                      "dataset line " << line_no
                                      << ": empty instruction field");
      lb.block.instructions.push_back(x86::parse_instruction(trimmed));
    }
    COMET_CHECK_MSG(!lb.block.empty(),
                    "dataset line " << line_no << ": empty block");
    blocks.push_back(std::move(lb));
  }
  COMET_CHECK_MSG(saw_header, "dataset text has no '" << kTextHeader
                                                      << "' header");
  return Dataset(std::move(blocks));
}

}  // namespace comet::bhive
