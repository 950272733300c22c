#include "cost/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/contract.h"

namespace comet::cost {

namespace {

struct FileCloser {
  void operator()(std::FILE* fp) const {
    if (fp != nullptr) std::fclose(fp);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void save_checkpoint(const std::filesystem::path& path, std::uint32_t magic,
                     const char* what,
                     const std::vector<const nn::Mat*>& mats) {
  if (!path.parent_path().empty()) {
    std::filesystem::create_directories(path.parent_path());
  }
  // Write a sibling temp file, then rename it over `path`: a concurrent
  // loader sees either the old file or the whole new one, never a
  // truncated one. The name is unique per process and per call, so two
  // writers never share a temp file.
  static std::atomic<unsigned> next_tmp{0};
  const std::string tmp = path.string() + ".tmp." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1));
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) {
    throw std::runtime_error(std::string(what) + ": cannot open " + tmp);
  }
  bool ok = std::fwrite(&magic, sizeof(magic), 1, fp) == 1;
  for (const nn::Mat* m : mats) {
    const std::uint64_t dims[2] = {m->rows(), m->cols()};
    ok = ok && std::fwrite(dims, sizeof(dims), 1, fp) == 1;
    ok = ok &&
         std::fwrite(m->data(), sizeof(float), m->size(), fp) == m->size();
  }
  ok = std::fclose(fp) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    // A partial file would masquerade as a valid cache until the next
    // load; remove it and fail loudly instead.
    std::remove(tmp.c_str());
    throw std::runtime_error(std::string(what) + ": cannot write " +
                             path.string());
  }
}

bool load_checkpoint(const std::filesystem::path& path, std::uint32_t magic,
                     const char* what, const std::vector<nn::Mat*>& mats) {
  FilePtr fp(std::fopen(path.string().c_str(), "rb"));
  if (fp == nullptr) return false;
  std::uint32_t got = 0;
  if (std::fread(&got, sizeof(got), 1, fp.get()) != 1 || got != magic) {
    return false;  // not ours / stale format: cache miss, caller retrains
  }

  // Size gate: the whole layout is known up front, so a truncated or
  // oversized file is rejected before a single payload byte is read.
  std::uint64_t expected = sizeof(magic);
  for (const nn::Mat* m : mats) expected += mat_record_bytes(*m);
  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(path, ec);
  COMET_CHECK_MSG(!ec && actual == expected,
                  what << ": checkpoint " << path.string() << " is " << actual
                       << " bytes, expected " << expected
                       << " (truncated, oversized, or foreign layout)");

  std::vector<nn::Mat> staged;
  staged.reserve(mats.size());
  for (const nn::Mat* m : mats) {
    std::uint64_t dims[2] = {0, 0};
    COMET_CHECK_MSG(std::fread(dims, sizeof(dims), 1, fp.get()) == 1,
                    what << ": checkpoint " << path.string()
                         << " ended inside a matrix header");
    // Bounds-validate the *claimed* dimensions before anything is sized;
    // the staging buffer below is sized from the trusted live shape only.
    COMET_CHECK_MSG(dims[0] <= kMaxCheckpointDim &&
                        dims[1] <= kMaxCheckpointDim,
                    what << ": checkpoint " << path.string()
                         << " claims an absurd matrix shape " << dims[0]
                         << "x" << dims[1]);
    COMET_CHECK_MSG(dims[0] == m->rows() && dims[1] == m->cols(),
                    what << ": checkpoint " << path.string() << " has a "
                         << dims[0] << "x" << dims[1]
                         << " matrix where the model expects " << m->rows()
                         << "x" << m->cols());
    nn::Mat tmp(m->rows(), m->cols());
    COMET_CHECK_MSG(
        std::fread(tmp.data(), sizeof(float), tmp.size(), fp.get()) ==
            tmp.size(),
        what << ": checkpoint " << path.string()
             << " ended inside a matrix payload");
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      COMET_CHECK_MSG(std::isfinite(tmp.data()[i]),
                      what << ": checkpoint " << path.string()
                           << " carries a non-finite weight at offset " << i
                           << " (bit flip or foreign payload)");
    }
    staged.push_back(std::move(tmp));
  }

  // Commit only after the whole file validated.
  for (std::size_t i = 0; i < mats.size(); ++i) {
    std::copy(staged[i].data(), staged[i].data() + staged[i].size(),
              mats[i]->data());
  }
  return true;
}

}  // namespace comet::cost
