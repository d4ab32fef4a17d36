#include "robust/ckpt_manager.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace embsr {
namespace robust {

namespace fs = std::filesystem;

CheckpointManagerConfig CheckpointManagerConfig::FromEnv() {
  CheckpointManagerConfig cfg;
  cfg.dir = GetEnvString("EMBSR_CKPT_DIR", "");
  cfg.keep_last = std::max(1, GetEnvInt("EMBSR_CKPT_KEEP", 3));
  cfg.every_epochs = std::max(1, GetEnvInt("EMBSR_CKPT_EVERY", 1));
  return cfg;
}

CheckpointManager::CheckpointManager(CheckpointManagerConfig config,
                                     const std::string& run_id)
    : config_(std::move(config)), run_id_(SanitizeRunId(run_id)) {}

std::string CheckpointManager::SanitizeRunId(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out.empty() ? std::string("run") : out;
}

bool CheckpointManager::ShouldSaveAfterEpoch(int completed_epochs,
                                             int total_epochs) const {
  if (!enabled() || completed_epochs <= 0) return false;
  return completed_epochs % config_.every_epochs == 0 ||
         completed_epochs == total_epochs;
}

std::string CheckpointManager::PathForEpoch(int epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), ".epoch%06d.ckpt", epoch);
  return config_.dir + "/" + run_id_ + name;
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  std::vector<std::string> paths;
  if (!enabled()) return paths;
  std::error_code ec;
  const std::string prefix = run_id_ + ".epoch";
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 5 && name.rfind(prefix, 0) == 0 &&
        name.substr(name.size() - 5) == ".ckpt") {
      paths.push_back(entry.path().string());
    }
  }
  // Epoch numbers are zero-padded, so lexicographic order == epoch order.
  std::sort(paths.begin(), paths.end());
  return paths;
}

Status CheckpointManager::Save(const nn::Module& module,
                               const nn::TrainState& state) {
  static obs::Counter* saves =
      obs::Registry::Global().GetCounter("robust/ckpt_saves");
  static obs::Counter* failures =
      obs::Registry::Global().GetCounter("robust/ckpt_save_failures");
  if (!enabled()) {
    return Status::FailedPrecondition("no checkpoint directory configured");
  }
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  const std::string path = PathForEpoch(state.epoch);
  const Status s = nn::SaveCheckpoint(module, state, path);
  if (!s.ok()) {
    failures->Increment();
    return s;
  }
  saves->Increment();

  // Retention: drop everything older than the newest keep_last files.
  std::vector<std::string> all = ListCheckpoints();
  if (static_cast<int>(all.size()) > config_.keep_last) {
    const size_t drop = all.size() - static_cast<size_t>(config_.keep_last);
    for (size_t i = 0; i < drop; ++i) {
      fs::remove(all[i], ec);
      if (ec) {
        EMBSR_LOG(Warning) << "checkpoint retention: cannot remove '"
                           << all[i] << "': " << ec.message();
      }
    }
  }
  return Status::OK();
}

Status CheckpointManager::LoadLatest(
    nn::Module* module, nn::TrainState* state,
    std::vector<std::string>* skipped_corrupt) const {
  static obs::Counter* corrupt =
      obs::Registry::Global().GetCounter("robust/ckpt_corrupt_skipped");
  if (!enabled()) {
    return Status::FailedPrecondition("no checkpoint directory configured");
  }
  std::vector<std::string> skipped;
  std::vector<std::string> all = ListCheckpoints();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    const Status s = nn::LoadCheckpoint(*it, module, state);
    if (s.ok()) {
      if (skipped_corrupt != nullptr) *skipped_corrupt = std::move(skipped);
      return Status::OK();
    }
    corrupt->Increment();
    skipped.push_back(*it);
    EMBSR_LOG(Warning) << "skipping unloadable checkpoint '" << *it
                       << "': " << s.ToString();
  }
  std::string msg = "no loadable checkpoint for run '" + run_id_ + "' in '" +
                    config_.dir + "'";
  if (!skipped.empty()) {
    msg += "; skipped " + std::to_string(skipped.size()) +
           " corrupt checkpoint(s): " + Join(skipped, ", ");
  }
  if (skipped_corrupt != nullptr) *skipped_corrupt = std::move(skipped);
  return Status::NotFound(msg);
}

}  // namespace robust
}  // namespace embsr
