#include "core/model_zoo.h"

#include <cstdio>
#include <cstdlib>

#include "cost/crude_model.h"
#include "cost/granite_model.h"
#include "cost/ithemal_model.h"
#include "sim/models.h"

namespace comet::core {

const bhive::Dataset& zoo_dataset() {
  static const bhive::Dataset kDataset = [] {
    bhive::DatasetOptions opt;
    opt.size = 3000;
    opt.seed = 2024;
    return bhive::generate_dataset(opt);
  }();
  return kDataset;
}

std::string zoo_data_dir() {
  // Read-only env lookup during setup, before any worker thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("COMET_DATA_DIR")) return dir;
  return "data";
}

namespace {

/// `model`, loaded from `<zoo_data_dir()>/<stem>_<hsw|skl>.bin`, or trained
/// on zoo_dataset() and saved there.
std::shared_ptr<cost::CostModel> trained(
    std::shared_ptr<cost::TrainableModel> model, const char* stem,
    cost::MicroArch uarch) {
  const auto& ds = zoo_dataset();
  const std::string path =
      zoo_data_dir() + "/" + stem + "_" +
      (uarch == cost::MicroArch::Haswell ? "hsw" : "skl") + ".bin";
  const double mape =
      model->train_or_load(path, ds.block_views(), ds.label_views(uarch));
  if (mape > 0.0) {
    std::fprintf(stderr,
                 "[model_zoo] trained %s (train MAPE %.1f%%), cached at %s\n",
                 model->name().c_str(), mape, path.c_str());
  }
  return model;
}

}  // namespace

std::shared_ptr<cost::CostModel> make_model(ModelKind kind,
                                            cost::MicroArch uarch) {
  switch (kind) {
    case ModelKind::UiCA:
      return std::make_shared<sim::UiCASimModel>(uarch);
    case ModelKind::Oracle:
      return std::make_shared<sim::HardwareOracle>(uarch);
    case ModelKind::Mca:
      return std::make_shared<sim::McaLikeModel>(uarch);
    case ModelKind::Crude:
      return std::make_shared<cost::CrudeModel>(uarch);
    case ModelKind::Granite:
      return trained(std::make_shared<cost::GraniteModel>(uarch), "granite",
                     uarch);
    case ModelKind::Ithemal:
      return trained(std::make_shared<cost::IthemalModel>(uarch), "ithemal",
                     uarch);
  }
  return nullptr;
}

}  // namespace comet::core
