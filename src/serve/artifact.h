#ifndef AUTOFP_SERVE_ARTIFACT_H_
#define AUTOFP_SERVE_ARTIFACT_H_

/// Versioned pipeline artifacts (see DESIGN.md "Artifacts and serving").
/// An artifact is the deployable unit of Auto-FP: one file capturing the
/// fitted state of a searched preprocessing pipeline plus the trained
/// state of its downstream model, so `transform -> predict` can be served
/// long after the search process exited. The format follows the
/// run_journal conventions: magic + version up front, CRC-32 over every
/// section, FNV-1a fingerprints tying the sections to one schema. A
/// reader never guesses: every corruption case (truncated file, flipped
/// byte, foreign version, mismatched sections) is a typed ArtifactError,
/// never UB or a crash.
///
/// File layout (host-endian; artifacts are machine-local deployment
/// state, not interchange files):
///
///   magic "AFPA" | u32 version | u32 num_sections | u32 preamble_crc
///   repeated num_sections times:
///     u32 section_id | u32 payload_len | payload | u32 crc(id,len,payload)
///
/// with exactly one section each of:
///   kSchemaSection   dataset name/shape/classes + fingerprints
///   kPipelineSection pipeline spec string + per-step SaveState blobs
///   kModelSection    ModelConfig + the trained model's SaveState blob
///   kStatsSection    per-column reference moments of the export features
///                    (the drift monitor's baseline — see src/stream/)

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/model.h"
#include "preprocess/pipeline.h"
#include "util/status.h"

namespace autofp {

/// Artifact format version; bumped on any layout change. Readers reject
/// other versions with kVersionMismatch — there is no cross-version
/// migration (re-export from the search instead; see DESIGN.md).
/// Version 2 added the reference-stats section (streaming drift baseline).
inline constexpr uint32_t kArtifactVersion = 2;

/// Why an artifact could not be read/validated. kNone means success.
enum class ArtifactError : int {
  kNone = 0,
  /// The file could not be opened or read (or written, for the writer).
  kIoError,
  /// The file does not start with the artifact magic.
  kBadMagic,
  /// The file is an artifact of a different format version.
  kVersionMismatch,
  /// The preamble checksum does not match its content.
  kCorruptHeader,
  /// The file ends before a declared section does.
  kTruncated,
  /// A section's CRC does not match its content (e.g. a flipped byte).
  kCorruptSection,
  /// A section's CRC is intact but its payload does not parse, a section
  /// is duplicated, or the file carries trailing bytes.
  kMalformedSection,
  /// A required section is absent.
  kMissingSection,
  /// The pipeline/model sections' schema fingerprints disagree with the
  /// schema section (an artifact stitched from mismatched halves).
  kSchemaMismatch,
  /// A preprocessor/model state blob was rejected by LoadState.
  kBadState,
};

/// Human-readable name ("CorruptSection" etc.; "OK" for kNone).
const char* ArtifactErrorName(ArtifactError error);

/// What the served model expects of its input — the schema every serving
/// row is validated against before it touches a preprocessor.
struct ArtifactSchema {
  std::string dataset_name;
  /// Feature columns a serving row must have (label column excluded).
  uint64_t input_cols = 0;
  int num_classes = 0;
  /// Model input width after the pipeline (== input_cols for the paper's
  /// seven column-preserving preprocessors; kept explicit so the format
  /// survives future column-changing steps).
  uint64_t transformed_cols = 0;
  /// DatasetFingerprint of the training data (informational: identifies
  /// what the artifact was fitted on; serving data is never checked
  /// against it).
  uint64_t dataset_fingerprint = 0;
};

/// FNV-1a fingerprint of the schema fields every section must agree on
/// (input_cols, num_classes, transformed_cols).
uint64_t SchemaFingerprint(const ArtifactSchema& schema);

/// Per-column reference moments of the features the artifact was exported
/// on, in Welford form (count, mean, sum of squared deviations, min, max).
/// The same type is the drift monitor's live window (src/stream/drift.h),
/// so the baseline and the window are accumulated by one loop and compared
/// field for field. An empty value (no columns) means "no stats recorded";
/// drift monitoring is then unavailable for the artifact.
struct ReferenceStats {
  uint64_t rows = 0;
  /// Parallel per-column vectors, all of length input_cols (or all empty).
  std::vector<double> mean;
  std::vector<double> m2;  ///< sum of squared deviations from the mean.
  std::vector<double> min;
  std::vector<double> max;

  size_t cols() const { return mean.size(); }
  bool empty() const { return mean.empty(); }
  /// Population variance of column c (0 for fewer than 1 row).
  double Variance(size_t c) const {
    return rows > 0 ? m2[c] / static_cast<double>(rows) : 0.0;
  }

  /// Drops all rows and fixes the column count. min/max start at +/-inf
  /// so the first observed row sets them.
  void Reset(size_t cols);
  /// One Welford update per column: mean += delta / n, then
  /// m2 += delta * (value - mean). `cols` must equal cols(). Columns are
  /// independent, so the vector lanes reproduce the scalar loop (taken
  /// under simd::ForceScalarEnabled()) bit for bit, ties and signed zeros
  /// included.
  void ObserveRow(const double* row, size_t cols);
};

/// One exact pass over `features` (Reset, then ObserveRow per row),
/// producing the stats ExportArtifact stamps into the kStatsSection. With
/// no rows, min and max are 0 rather than the accumulator's +/-inf.
ReferenceStats ComputeReferenceStats(const Matrix& features);

/// Writer knobs. The fingerprint override exists only so tests can
/// manufacture the kSchemaMismatch corruption case with valid CRCs.
struct ArtifactWriteOptions {
  /// When nonzero, stamped into the pipeline/model sections instead of
  /// the real SchemaFingerprint (test hook for the corruption taxonomy).
  uint64_t override_section_fingerprint = 0;
};

/// Serializes (schema, fitted pipeline, model config, trained model,
/// reference stats) to `path`, overwriting it. The pipeline must be fitted
/// and the model trained; both are only read. `reference_stats` must be
/// empty or have exactly schema.input_cols columns. Every step's state
/// blob and the model's go through a fresh LoadState first: a state that
/// ReadArtifact would reject returns InvalidArgument naming the step, and
/// nothing is written.
Status WriteArtifact(const std::string& path, const ArtifactSchema& schema,
                     const FittedPipeline& pipeline,
                     const ModelConfig& model_config, const Classifier& model,
                     const ReferenceStats& reference_stats = {},
                     const ArtifactWriteOptions& options = {});

/// A fully deserialized artifact: fitted steps and trained model ready to
/// assemble into a Predictor (serve/predictor.h).
struct LoadedArtifact {
  ArtifactSchema schema;
  PipelineSpec spec;
  /// Fitted preprocessors, one per spec step, in application order.
  std::vector<std::unique_ptr<Preprocessor>> fitted_steps;
  ModelConfig model_config;
  std::unique_ptr<Classifier> model;
  /// Drift baseline from the kStatsSection (empty = none recorded).
  ReferenceStats reference_stats;
};

/// Outcome of reading an artifact. On success (`ok()`), `artifact` holds
/// the deserialized pipeline and model; otherwise `error` says which
/// corruption-taxonomy case fired and `status` carries detail.
struct ArtifactReadResult {
  ArtifactError error = ArtifactError::kNone;
  Status status;  ///< detail message; OK iff error == kNone.
  LoadedArtifact artifact;

  bool ok() const { return error == ArtifactError::kNone; }
};

/// Reads and validates `path` through the full corruption taxonomy.
ArtifactReadResult ReadArtifact(const std::string& path);

/// End-to-end export (the CLI's --export-artifact body): fits `spec` on
/// all of `data`, trains `model_config`'s classifier on the transformed
/// features, and writes the artifact. Returns the schema it stamped,
/// OutOfRange when the pipeline output is non-finite (a model trained on
/// it would be garbage), or InvalidArgument when a fitted state would not
/// load back (see WriteArtifact).
Result<ArtifactSchema> ExportArtifact(const std::string& path,
                                      const Dataset& data,
                                      const PipelineSpec& spec,
                                      const ModelConfig& model_config);

}  // namespace autofp

#endif  // AUTOFP_SERVE_ARTIFACT_H_
