#ifndef AUTOFP_SERVE_REGISTRY_H_
#define AUTOFP_SERVE_REGISTRY_H_

/// The hot-swap artifact registry (see DESIGN.md "Network serving"): the
/// single mutable cell between artifact files on disk and live serving
/// traffic. `Acquire()` hands out `shared_ptr<const Predictor>` — the
/// Predictor is immutable after load (PRs 4-5), so a request path that
/// acquired a predictor can keep scoring through it for as long as it
/// likes while `Swap()` publishes a replacement with one pointer
/// exchange. Old predictors die when their last in-flight batch drops the
/// reference; there is no drain barrier and no torn state by
/// construction.

#include <memory>
#include <mutex>
#include <string>

#include "serve/predictor.h"
#include "util/status.h"

namespace autofp {

/// Snapshot of what the registry currently serves.
struct RegistryInfo {
  long generation = 0;   ///< swaps that have succeeded so far.
  std::string path;      ///< artifact file behind the live predictor.
  std::string pipeline;  ///< live pipeline spec ("" when empty).
  std::string model;     ///< live model kind name ("" when empty).
};

/// Thread-safe. All predictors are built with the options fixed at
/// construction (worker threads are a deployment property, not an
/// artifact property).
class ArtifactRegistry {
 public:
  explicit ArtifactRegistry(Predictor::Options options = {})
      : options_(options) {}

  /// Loads `path` through the full artifact corruption taxonomy and, on
  /// success, atomically publishes the new predictor. On failure the
  /// previously published predictor keeps serving untouched and the
  /// load's typed status is returned (message embeds the ArtifactError
  /// name). Safe to call concurrently with Acquire() and itself.
  Status Swap(const std::string& path);

  /// Re-loads the artifact file behind the live predictor (the SIGHUP
  /// path). Fails with NotFound when nothing was ever loaded.
  Status Reload();

  /// The live predictor, or nullptr when nothing has been loaded yet.
  /// The returned reference stays valid (and immutable) across any
  /// number of concurrent swaps.
  std::shared_ptr<const Predictor> Acquire() const;

  RegistryInfo Info() const;

 private:
  const Predictor::Options options_;
  mutable std::mutex mutex_;
  std::shared_ptr<const Predictor> current_;
  std::string path_;
  long generation_ = 0;
};

}  // namespace autofp

#endif  // AUTOFP_SERVE_REGISTRY_H_
