#ifndef AUTOFP_PREPROCESS_PIPELINE_H_
#define AUTOFP_PREPROCESS_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "preprocess/preprocessor.h"
#include "util/matrix.h"
#include "util/status.h"

namespace autofp {

/// An (unfitted) feature-preprocessing pipeline: an ordered sequence of
/// preprocessor configurations (Definition 2 in the paper). The empty
/// pipeline is the identity (the paper's "no-FP" baseline).
struct PipelineSpec {
  std::vector<PreprocessorConfig> steps;

  size_t size() const { return steps.size(); }
  bool empty() const { return steps.empty(); }

  /// "StandardScaler -> Binarizer"-style description; "<no-FP>" if empty.
  std::string ToString() const;

  bool operator==(const PipelineSpec& other) const {
    return steps == other.steps;
  }

  /// Stable string key for memoization / dedup.
  std::string Key() const { return ToString(); }

  /// Builds a spec from default-parameter preprocessor kinds.
  static PipelineSpec FromKinds(const std::vector<PreprocessorKind>& kinds);
};

/// A pipeline whose preprocessors have been fitted sequentially on training
/// data: step i is fitted on the output of steps 0..i-1 over the training
/// features, exactly as a scikit-learn Pipeline would.
class FittedPipeline {
 public:
  /// Fits `spec` on `train` and returns the fitted chain.
  static FittedPipeline Fit(const PipelineSpec& spec, const Matrix& train);

  /// Reassembles a fitted chain from already-fitted steps (the artifact
  /// loader's path — see src/serve/artifact.h). `steps[i]` must be the
  /// fitted preprocessor of `spec.steps[i]`.
  static FittedPipeline FromFittedSteps(
      PipelineSpec spec, std::vector<std::unique_ptr<Preprocessor>> steps);

  /// Applies the fitted chain to arbitrary data with matching column count.
  Matrix Transform(const Matrix& data) const;

  /// Applies the fitted chain to `data` in place: every step is
  /// shape-preserving, so the whole chain runs through one buffer with no
  /// per-stage temporaries.
  void TransformInPlace(Matrix& data) const;

  /// Transform into a caller-provided scratch buffer: copies `data` into
  /// `*scratch` (reusing its allocation) and applies the chain in place.
  /// The result lives in `*scratch`. Passing `scratch == &data` skips the
  /// copy and transforms the caller's matrix directly; any other overlap
  /// is undefined.
  void TransformInto(const Matrix& data, Matrix* scratch) const;

  const PipelineSpec& spec() const { return spec_; }

  /// The fitted steps, in application order (size() == spec().size()).
  const std::vector<std::unique_ptr<Preprocessor>>& steps() const {
    return fitted_steps_;
  }

 private:
  PipelineSpec spec_;
  std::vector<std::unique_ptr<Preprocessor>> fitted_steps_;
};

/// Convenience: fits on `train`, returns transformed copies of `train` and
/// `valid` (the evaluation path of Algorithm 1 Step 4).
struct TransformedPair {
  Matrix train;
  Matrix valid;
};
TransformedPair FitTransformPair(const PipelineSpec& spec, const Matrix& train,
                                 const Matrix& valid);

/// Status-carrying variant of FitTransformPair: instead of silently
/// propagating broken output into model training, it reports
///  - OutOfRange  when the transformed train/valid matrices contain
///    NaN/Inf values (non-finite output), and
///  - InvalidArgument when the transformed training matrix is degenerate
///    (empty, or every entry identical — the transform destroyed all
///    information the downstream model could use).
/// The empty spec (no-FP) passes the inputs through; only the non-finite
/// check applies to it (raw features are not the pipeline's fault).
Result<TransformedPair> CheckedFitTransformPair(const PipelineSpec& spec,
                                                const Matrix& train,
                                                const Matrix& valid);

class TransformCache;  // preprocess/transform_cache.h

/// A transformed (train, valid) pair handed out without copying: the
/// matrices are immutable and may be shared with the transform cache, with
/// other threads, or (see the aliasing notes on
/// CheckedFitTransformPairCached) merely alias a caller-owned buffer.
/// Consumers must treat them as read-only.
struct SharedTransformedPair {
  std::shared_ptr<const Matrix> train;
  std::shared_ptr<const Matrix> valid;
};

/// Reusable working buffers for the uncached fit/transform path. One per
/// pool worker (see util/thread_pool.h): the chain runs in place
/// through `train` and `valid`, so after the first evaluation the buffers
/// have seen their largest shape and the steady state allocates nothing.
struct TransformScratch {
  Matrix train;
  Matrix valid;
};

/// CheckedFitTransformPair with prefix memoization: reuses the longest
/// cached fitted prefix of `spec` and caches every newly computed prefix,
/// so evaluating "A -> B -> C" after "A -> B" only fits C. `data_key`
/// must uniquely identify the (train, valid) matrices the prefixes are
/// fitted on (e.g. the subsample identity); results are bit-identical to
/// the uncached path.
///
/// Zero-copy contract: the returned matrices are shared immutable
/// references — cache hits hand out the cached entries themselves, the
/// empty spec aliases `train`/`valid`, and on the uncached path (`cache`
/// null) with a non-null `scratch` the result aliases the scratch
/// buffers. Aliased results are only valid while the aliased storage is
/// (until the next call reusing `scratch`, or until `train`/`valid` are
/// destroyed); callers that need the data to outlive that must copy.
Result<SharedTransformedPair> CheckedFitTransformPairCached(
    const PipelineSpec& spec, const Matrix& train, const Matrix& valid,
    TransformCache* cache, const std::string& data_key,
    TransformScratch* scratch = nullptr);

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_PIPELINE_H_
