#include "preprocess/pipeline.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "preprocess/transform_cache.h"

namespace autofp {

namespace {

bool AllFinite(const Matrix& matrix) {
  const double* p = matrix.Raw();
  for (size_t i = 0; i < matrix.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// True when every entry of the matrix is identical (including the empty
/// matrix): no feature carries any information.
bool IsCollapsed(const Matrix& matrix) {
  if (matrix.empty()) return true;
  const double* p = matrix.Raw();
  const double first = p[0];
  for (size_t i = 0; i < matrix.size(); ++i) {
    if (p[i] != first) return false;
  }
  return true;
}

/// The Checked* validation contract, on the matrices themselves.
Status CheckTransformed(const PipelineSpec& spec, const Matrix& train,
                        const Matrix& valid) {
  if (!AllFinite(train) || !AllFinite(valid)) {
    return Status::OutOfRange("pipeline '" + spec.ToString() +
                              "' produced non-finite output");
  }
  // Only non-empty pipelines can be blamed for collapsing the data; the
  // no-FP pass-through reports whatever the raw features are.
  if (!spec.empty() && IsCollapsed(train)) {
    return Status::InvalidArgument("pipeline '" + spec.ToString() +
                                   "' produced a degenerate (constant) "
                                   "training matrix");
  }
  return Status::OK();
}

/// Shared validation of a transformed pair (the Checked* contract).
Result<TransformedPair> CheckTransformedPair(const PipelineSpec& spec,
                                             TransformedPair pair) {
  Status status = CheckTransformed(spec, pair.train, pair.valid);
  if (!status.ok()) return status;
  return pair;
}

/// Fits `spec` step by step on a working copy of `train` while `valid`
/// follows in lockstep: one buffer per matrix threaded through the whole
/// chain. Copy-assigning into the outputs reuses their allocations.
void FitTransformInto(const PipelineSpec& spec, const Matrix& train,
                      const Matrix& valid, Matrix* train_out,
                      Matrix* valid_out) {
  *train_out = train;
  *valid_out = valid;
  for (const PreprocessorConfig& config : spec.steps) {
    std::unique_ptr<Preprocessor> step = MakePreprocessor(config);
    step->Fit(*train_out);
    step->TransformInPlace(*train_out);
    step->TransformInPlace(*valid_out);
  }
}

/// A shared_ptr that observes `matrix` without owning it (the aliasing
/// constructor with an empty control block). Used to hand out zero-copy
/// views of caller-owned storage; the caller guarantees the storage
/// outlives every use of the view.
std::shared_ptr<const Matrix> NonOwningView(const Matrix& matrix) {
  return std::shared_ptr<const Matrix>(std::shared_ptr<const Matrix>(),
                                       &matrix);
}

/// Cache key of the length-`length` prefix of `spec` fitted on the data
/// identified by `data_key`.
std::string PrefixCacheKey(const std::string& data_key,
                           const PipelineSpec& spec, size_t length) {
  PipelineSpec prefix;
  prefix.steps.assign(spec.steps.begin(),
                      spec.steps.begin() + static_cast<long>(length));
  return data_key + "||" + prefix.Key();
}

}  // namespace

std::string PipelineSpec::ToString() const {
  if (steps.empty()) return "<no-FP>";
  std::ostringstream out;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out << " -> ";
    out << steps[i].ToString();
  }
  return out.str();
}

PipelineSpec PipelineSpec::FromKinds(
    const std::vector<PreprocessorKind>& kinds) {
  PipelineSpec spec;
  spec.steps.reserve(kinds.size());
  for (PreprocessorKind kind : kinds) {
    spec.steps.push_back(PreprocessorConfig::Defaults(kind));
  }
  return spec;
}

FittedPipeline FittedPipeline::Fit(const PipelineSpec& spec,
                                   const Matrix& train) {
  FittedPipeline pipeline;
  pipeline.spec_ = spec;
  // One working copy threaded through the whole chain: each step fits on
  // the previous step's output, then transforms it in place.
  Matrix current = train;
  for (const PreprocessorConfig& config : spec.steps) {
    std::unique_ptr<Preprocessor> step = MakePreprocessor(config);
    step->Fit(current);
    step->TransformInPlace(current);
    pipeline.fitted_steps_.push_back(std::move(step));
  }
  return pipeline;
}

FittedPipeline FittedPipeline::FromFittedSteps(
    PipelineSpec spec, std::vector<std::unique_ptr<Preprocessor>> steps) {
  AUTOFP_CHECK_EQ(spec.steps.size(), steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    AUTOFP_CHECK(steps[i] != nullptr);
    AUTOFP_CHECK(steps[i]->config() == spec.steps[i])
        << "fitted step " << i << " does not match the spec";
  }
  FittedPipeline pipeline;
  pipeline.spec_ = std::move(spec);
  pipeline.fitted_steps_ = std::move(steps);
  return pipeline;
}

Matrix FittedPipeline::Transform(const Matrix& data) const {
  Matrix current = data;
  TransformInPlace(current);
  return current;
}

void FittedPipeline::TransformInPlace(Matrix& data) const {
  for (const auto& step : fitted_steps_) {
    step->TransformInPlace(data);
  }
}

void FittedPipeline::TransformInto(const Matrix& data, Matrix* scratch) const {
  AUTOFP_CHECK(scratch != nullptr);
  if (scratch != &data) *scratch = data;
  TransformInPlace(*scratch);
}

TransformedPair FitTransformPair(const PipelineSpec& spec, const Matrix& train,
                                 const Matrix& valid) {
  TransformedPair out;
  FitTransformInto(spec, train, valid, &out.train, &out.valid);
  return out;
}

Result<TransformedPair> CheckedFitTransformPair(const PipelineSpec& spec,
                                                const Matrix& train,
                                                const Matrix& valid) {
  return CheckTransformedPair(spec, FitTransformPair(spec, train, valid));
}

Result<SharedTransformedPair> CheckedFitTransformPairCached(
    const PipelineSpec& spec, const Matrix& train, const Matrix& valid,
    TransformCache* cache, const std::string& data_key,
    TransformScratch* scratch) {
  // The empty spec passes the inputs through: hand out zero-copy views of
  // the caller's matrices (valid while the caller's data is).
  if (spec.empty()) {
    Status status = CheckTransformed(spec, train, valid);
    if (!status.ok()) return status;
    return SharedTransformedPair{NonOwningView(train), NonOwningView(valid)};
  }

  if (cache == nullptr) {
    // Uncached path: thread the chain through the scratch buffers (or
    // locals when the caller brought none), then hand out views. With
    // scratch, the steady state allocates nothing and the result aliases
    // the scratch buffers — see the header contract.
    TransformScratch local;
    TransformScratch& work = scratch != nullptr ? *scratch : local;
    FitTransformInto(spec, train, valid, &work.train, &work.valid);
    Status status = CheckTransformed(spec, work.train, work.valid);
    if (!status.ok()) return status;
    if (scratch != nullptr) {
      return SharedTransformedPair{NonOwningView(scratch->train),
                                   NonOwningView(scratch->valid)};
    }
    return SharedTransformedPair{
        std::make_shared<const Matrix>(std::move(local.train)),
        std::make_shared<const Matrix>(std::move(local.valid))};
  }

  // Longest cached prefix, probed from the full pipeline downward so a
  // repeat evaluation skips fitting entirely — a full hit returns the
  // cached matrices themselves, copying nothing.
  size_t fitted = 0;
  CachedTransforms cached;
  for (size_t length = spec.size(); length >= 1; --length) {
    cached = cache->Get(PrefixCacheKey(data_key, spec, length));
    if (cached) {
      fitted = length;
      break;
    }
  }
  SharedTransformedPair current;
  if (cached) {
    current.train = std::move(cached.train);
    current.valid = std::move(cached.valid);
  } else {
    current.train = NonOwningView(train);
    current.valid = NonOwningView(valid);
  }
  // Continue fitting exactly where the cached prefix left off. Each new
  // step costs one copy of the (immutable) previous prefix, transformed in
  // place; the result doubles as the cache entry, so the old copy-into-
  // cache and copy-out-of-cache both disappear. Intermediate matrices are
  // cached unchecked — the uncached path also fits through non-finite
  // intermediates, so reuse stays bit-identical.
  for (size_t i = fitted; i < spec.size(); ++i) {
    std::unique_ptr<Preprocessor> step = MakePreprocessor(spec.steps[i]);
    step->Fit(*current.train);
    Matrix next_train = *current.train;
    step->TransformInPlace(next_train);
    Matrix next_valid = *current.valid;
    step->TransformInPlace(next_valid);
    current.train = std::make_shared<const Matrix>(std::move(next_train));
    current.valid = std::make_shared<const Matrix>(std::move(next_valid));
    cache->Put(PrefixCacheKey(data_key, spec, i + 1), current.train,
               current.valid);
  }
  Status status = CheckTransformed(spec, *current.train, *current.valid);
  if (!status.ok()) return status;
  return current;
}

}  // namespace autofp
