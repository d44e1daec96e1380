#include "serve/artifact.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/run_journal.h"  // DatasetFingerprint
#include "preprocess/pipeline_parse.h"
#include "util/checksum.h"
#include "util/fs.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace autofp {
namespace {

constexpr char kMagic[4] = {'A', 'F', 'P', 'A'};

// Section ids. Exactly one of each is required.
constexpr uint32_t kSchemaSection = 1;
constexpr uint32_t kPipelineSection = 2;
constexpr uint32_t kModelSection = 3;
constexpr uint32_t kStatsSection = 4;

// Upper bound on one section's payload; a declared length beyond it is
// corruption, not data (even a KNN model storing its training matrix
// stays far below this).
constexpr uint32_t kMaxSectionPayload = 1u << 30;

std::string EncodeSection(uint32_t id, const std::string& payload) {
  std::string out;
  AUTOFP_CHECK_LE(payload.size(), kMaxSectionPayload);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&id), sizeof(id));
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(payload);
  const uint32_t crc = Crc32(out.data(), out.size());
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

void EncodeModelConfig(std::ostream& out, const ModelConfig& config) {
  WritePod<int32_t>(out, static_cast<int32_t>(config.kind));
  WritePod<double>(out, config.lr_l2);
  WritePod<int32_t>(out, config.lr_epochs);
  WritePod<double>(out, config.lr_step);
  WritePod<int32_t>(out, config.xgb_rounds);
  WritePod<int32_t>(out, config.xgb_max_depth);
  WritePod<double>(out, config.xgb_eta);
  WritePod<double>(out, config.xgb_lambda);
  WritePod<int32_t>(out, config.xgb_max_bins);
  WritePod<double>(out, config.xgb_min_child_weight);
  WritePod<int32_t>(out, config.mlp_hidden);
  WritePod<int32_t>(out, config.mlp_epochs);
  WritePod<double>(out, config.mlp_step);
  WritePod<int32_t>(out, config.mlp_batch);
  WritePod<uint64_t>(out, config.seed);
}

bool DecodeModelConfig(std::istream& in, ModelConfig* config) {
  int32_t kind = 0;
  if (!ReadPod(in, &kind) || kind < 0 || kind > 2) return false;
  config->kind = static_cast<ModelKind>(kind);
  return ReadPod(in, &config->lr_l2) && ReadPod(in, &config->lr_epochs) &&
         ReadPod(in, &config->lr_step) && ReadPod(in, &config->xgb_rounds) &&
         ReadPod(in, &config->xgb_max_depth) &&
         ReadPod(in, &config->xgb_eta) && ReadPod(in, &config->xgb_lambda) &&
         ReadPod(in, &config->xgb_max_bins) &&
         ReadPod(in, &config->xgb_min_child_weight) &&
         ReadPod(in, &config->mlp_hidden) &&
         ReadPod(in, &config->mlp_epochs) && ReadPod(in, &config->mlp_step) &&
         ReadPod(in, &config->mlp_batch) && ReadPod(in, &config->seed);
}

// Loads a SaveState blob into `target` the way ReadArtifact does: LoadState
// must accept it and consume every byte. WriteArtifact runs the same check
// on a fresh object before writing, so it never ships a blob that fails.
template <typename T>
Status LoadStateBlob(const std::string& blob, const std::string& what,
                     T* target) {
  std::istringstream in(blob, std::ios::binary);
  Status loaded = target->LoadState(in);
  if (loaded.ok() && in.peek() != EOF) {
    loaded = Status::InvalidArgument(what + ": trailing bytes in state blob");
  }
  return loaded;
}

ArtifactReadResult Fail(ArtifactError error, std::string message) {
  ArtifactReadResult result;
  result.error = error;
  result.status = Status(error == ArtifactError::kIoError
                             ? StatusCode::kIoError
                             : StatusCode::kInvalidArgument,
                         std::move(message));
  return result;
}

}  // namespace

const char* ArtifactErrorName(ArtifactError error) {
  switch (error) {
    case ArtifactError::kNone:
      return "OK";
    case ArtifactError::kIoError:
      return "IoError";
    case ArtifactError::kBadMagic:
      return "BadMagic";
    case ArtifactError::kVersionMismatch:
      return "VersionMismatch";
    case ArtifactError::kCorruptHeader:
      return "CorruptHeader";
    case ArtifactError::kTruncated:
      return "Truncated";
    case ArtifactError::kCorruptSection:
      return "CorruptSection";
    case ArtifactError::kMalformedSection:
      return "MalformedSection";
    case ArtifactError::kMissingSection:
      return "MissingSection";
    case ArtifactError::kSchemaMismatch:
      return "SchemaMismatch";
    case ArtifactError::kBadState:
      return "BadState";
  }
  return "?";
}

void ReferenceStats::Reset(size_t cols) {
  rows = 0;
  mean.assign(cols, 0.0);
  m2.assign(cols, 0.0);
  min.assign(cols, std::numeric_limits<double>::infinity());
  max.assign(cols, -std::numeric_limits<double>::infinity());
}

void ReferenceStats::ObserveRow(const double* row, size_t cols) {
  AUTOFP_CHECK_EQ(cols, mean.size());
  const double n = static_cast<double>(++rows);
  using simd::VecD;
  size_t c = 0;
  if (simd::kDoubleLanes > 1 && !simd::ForceScalarEnabled()) {
    // Each lane performs the scalar op sequence on its own column (the
    // division is correctly rounded, like the scalar one), and the
    // strict-comparison Selects keep the scalar min/max tie behavior.
    const VecD v_n = VecD::Set1(n);
    for (; c + simd::kDoubleLanes <= cols; c += simd::kDoubleLanes) {
      const VecD value = VecD::Load(row + c);
      VecD mu = VecD::Load(mean.data() + c);
      const VecD delta = value - mu;
      mu = mu + delta / v_n;
      mu.Store(mean.data() + c);
      (VecD::Load(m2.data() + c) + delta * (value - mu)).Store(m2.data() + c);
      const VecD lo = VecD::Load(min.data() + c);
      const VecD hi = VecD::Load(max.data() + c);
      VecD::Select(VecD::Gt(lo, value), value, lo).Store(min.data() + c);
      VecD::Select(VecD::Gt(value, hi), value, hi).Store(max.data() + c);
    }
  }
  for (; c < cols; ++c) {
    const double value = row[c];
    const double delta = value - mean[c];
    mean[c] += delta / n;
    m2[c] += delta * (value - mean[c]);
    if (value < min[c]) min[c] = value;
    if (value > max[c]) max[c] = value;
  }
}

ReferenceStats ComputeReferenceStats(const Matrix& features) {
  ReferenceStats stats;
  const size_t cols = features.cols();
  if (cols == 0) return stats;
  stats.Reset(cols);
  for (size_t r = 0; r < features.rows(); ++r) {
    stats.ObserveRow(features.RowPtr(r), cols);
  }
  if (stats.rows == 0) {
    stats.min.assign(cols, 0.0);
    stats.max.assign(cols, 0.0);
  }
  return stats;
}

uint64_t SchemaFingerprint(const ArtifactSchema& schema) {
  uint64_t hash = Fnv1a64("afp-schema", 10);
  hash = HashCombine(hash, schema.input_cols);
  hash = HashCombine(hash, static_cast<uint64_t>(schema.num_classes));
  hash = HashCombine(hash, schema.transformed_cols);
  return hash;
}

Status WriteArtifact(const std::string& path, const ArtifactSchema& schema,
                     const FittedPipeline& pipeline,
                     const ModelConfig& model_config, const Classifier& model,
                     const ReferenceStats& reference_stats,
                     const ArtifactWriteOptions& options) {
  if (!reference_stats.empty() &&
      (reference_stats.cols() != schema.input_cols ||
       reference_stats.m2.size() != reference_stats.cols() ||
       reference_stats.min.size() != reference_stats.cols() ||
       reference_stats.max.size() != reference_stats.cols())) {
    return Status::InvalidArgument(
        "reference stats column count disagrees with the schema");
  }
  const uint64_t schema_fp = SchemaFingerprint(schema);
  const uint64_t section_fp = options.override_section_fingerprint != 0
                                  ? options.override_section_fingerprint
                                  : schema_fp;

  std::ostringstream schema_payload(std::ios::binary);
  WriteString(schema_payload, schema.dataset_name);
  WritePod<uint64_t>(schema_payload, schema.input_cols);
  WritePod<int32_t>(schema_payload, schema.num_classes);
  WritePod<uint64_t>(schema_payload, schema.transformed_cols);
  WritePod<uint64_t>(schema_payload, schema.dataset_fingerprint);
  WritePod<uint64_t>(schema_payload, schema_fp);

  std::ostringstream pipeline_payload(std::ios::binary);
  WritePod<uint64_t>(pipeline_payload, section_fp);
  WriteString(pipeline_payload, pipeline.spec().ToString());
  WritePod<uint32_t>(pipeline_payload,
                     static_cast<uint32_t>(pipeline.steps().size()));
  for (size_t i = 0; i < pipeline.steps().size(); ++i) {
    const Preprocessor& step = *pipeline.steps()[i];
    std::ostringstream out(std::ios::binary);
    step.SaveState(out);
    const std::string blob = out.str();
    // A fitted state LoadState refuses (e.g. a NaN quantile from a column
    // whose range overflows) would export fine and never load.
    std::unique_ptr<Preprocessor> fresh =
        MakePreprocessor(pipeline.spec().steps[i]);
    Status loads = LoadStateBlob(blob, step.name(), fresh.get());
    if (!loads.ok()) {
      return Status::InvalidArgument(
          "pipeline step " + std::to_string(i) + " (" + step.name() +
          ") would not load back from the artifact: " + loads.message());
    }
    WriteString(pipeline_payload, blob);
  }

  std::ostringstream model_payload(std::ios::binary);
  WritePod<uint64_t>(model_payload, section_fp);
  EncodeModelConfig(model_payload, model_config);
  {
    std::ostringstream out(std::ios::binary);
    model.SaveState(out);
    const std::string blob = out.str();
    std::unique_ptr<Classifier> fresh = MakeClassifier(model_config);
    Status loads = LoadStateBlob(blob, "model", fresh.get());
    if (!loads.ok()) {
      return Status::InvalidArgument(
          "the model would not load back from the artifact: " +
          loads.message());
    }
    WriteString(model_payload, blob);
  }

  std::ostringstream stats_payload(std::ios::binary);
  WritePod<uint64_t>(stats_payload, section_fp);
  WritePod<uint64_t>(stats_payload, reference_stats.rows);
  WriteVec(stats_payload, reference_stats.mean);
  WriteVec(stats_payload, reference_stats.m2);
  WriteVec(stats_payload, reference_stats.min);
  WriteVec(stats_payload, reference_stats.max);

  std::string preamble;
  preamble.append(kMagic, sizeof(kMagic));
  const uint32_t version = kArtifactVersion;
  const uint32_t num_sections = 4;
  preamble.append(reinterpret_cast<const char*>(&version), sizeof(version));
  preamble.append(reinterpret_cast<const char*>(&num_sections),
                  sizeof(num_sections));
  const uint32_t preamble_crc = Crc32(preamble.data(), preamble.size());
  preamble.append(reinterpret_cast<const char*>(&preamble_crc),
                  sizeof(preamble_crc));

  // Atomic + durable: a crash mid-export must leave either no artifact
  // or the complete previous one — a registry watching `path` (SIGHUP
  // reload, SWAP) must never load a torn file. rename + parent-dir fsync
  // give the same existence guarantee the run journal gets on Create.
  std::string bytes = std::move(preamble);
  bytes += EncodeSection(kSchemaSection, schema_payload.str());
  bytes += EncodeSection(kPipelineSection, pipeline_payload.str());
  bytes += EncodeSection(kModelSection, model_payload.str());
  bytes += EncodeSection(kStatsSection, stats_payload.str());
  return WriteFileAtomic(path, bytes);
}

ArtifactReadResult ReadArtifact(const std::string& path) {
  std::string bytes;
  Status read = ReadFileBytes(path, &bytes);
  if (!read.ok()) {
    return Fail(ArtifactError::kIoError, "artifact: " + read.message());
  }

  // Preamble: magic, version, section count, CRC.
  const size_t kPreambleSize = sizeof(kMagic) + 3 * sizeof(uint32_t);
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Fail(ArtifactError::kBadMagic,
                "not an Auto-FP artifact (bad magic): " + path);
  }
  if (bytes.size() < kPreambleSize) {
    return Fail(ArtifactError::kTruncated,
                "artifact truncated inside the preamble: " + path);
  }
  uint32_t version = 0, num_sections = 0, preamble_crc = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  std::memcpy(&num_sections, bytes.data() + sizeof(kMagic) + sizeof(uint32_t),
              sizeof(num_sections));
  std::memcpy(&preamble_crc,
              bytes.data() + sizeof(kMagic) + 2 * sizeof(uint32_t),
              sizeof(preamble_crc));
  if (version != kArtifactVersion) {
    return Fail(ArtifactError::kVersionMismatch,
                "artifact version " + std::to_string(version) +
                    ", this build reads version " +
                    std::to_string(kArtifactVersion));
  }
  if (Crc32(bytes.data(), kPreambleSize - sizeof(uint32_t)) != preamble_crc) {
    return Fail(ArtifactError::kCorruptHeader,
                "artifact preamble checksum mismatch: " + path);
  }

  // Sections.
  struct Section {
    uint32_t id = 0;
    std::string payload;
  };
  std::vector<Section> sections;
  size_t pos = kPreambleSize;
  for (uint32_t s = 0; s < num_sections; ++s) {
    if (bytes.size() - pos < 2 * sizeof(uint32_t)) {
      return Fail(ArtifactError::kTruncated,
                  "artifact ends inside section " + std::to_string(s) +
                      "'s frame header");
    }
    uint32_t id = 0, length = 0;
    std::memcpy(&id, bytes.data() + pos, sizeof(id));
    std::memcpy(&length, bytes.data() + pos + sizeof(uint32_t),
                sizeof(length));
    if (length > kMaxSectionPayload) {
      return Fail(ArtifactError::kMalformedSection,
                  "section " + std::to_string(s) +
                      " declares an implausible payload length");
    }
    if (bytes.size() - pos - 2 * sizeof(uint32_t) <
        static_cast<size_t>(length) + sizeof(uint32_t)) {
      return Fail(ArtifactError::kTruncated,
                  "artifact ends inside section " + std::to_string(s));
    }
    const size_t frame_size = 2 * sizeof(uint32_t) + length;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + pos + frame_size,
                sizeof(stored_crc));
    if (Crc32(bytes.data() + pos, frame_size) != stored_crc) {
      return Fail(ArtifactError::kCorruptSection,
                  "section " + std::to_string(s) + " (id " +
                      std::to_string(id) + ") checksum mismatch");
    }
    Section section;
    section.id = id;
    section.payload.assign(bytes.data() + pos + 2 * sizeof(uint32_t), length);
    sections.push_back(std::move(section));
    pos += frame_size + sizeof(uint32_t);
  }
  if (pos != bytes.size()) {
    return Fail(ArtifactError::kMalformedSection,
                std::to_string(bytes.size() - pos) +
                    " trailing bytes after the last section");
  }
  auto find_section = [&sections](uint32_t id) -> const std::string* {
    const std::string* found = nullptr;
    for (const Section& section : sections) {
      if (section.id != id) continue;
      if (found != nullptr) return nullptr;  // duplicate
      found = &section.payload;
    }
    return found;
  };

  ArtifactReadResult result;
  LoadedArtifact& artifact = result.artifact;

  // Schema section.
  const std::string* schema_payload = find_section(kSchemaSection);
  if (schema_payload == nullptr) {
    return Fail(ArtifactError::kMissingSection,
                "schema section missing or duplicated");
  }
  uint64_t stored_schema_fp = 0;
  {
    std::istringstream in(*schema_payload, std::ios::binary);
    int32_t num_classes = 0;
    if (!ReadString(in, &artifact.schema.dataset_name) ||
        !ReadPod(in, &artifact.schema.input_cols) ||
        !ReadPod(in, &num_classes) || num_classes < 2 ||
        !ReadPod(in, &artifact.schema.transformed_cols) ||
        !ReadPod(in, &artifact.schema.dataset_fingerprint) ||
        !ReadPod(in, &stored_schema_fp) || in.peek() != EOF) {
      return Fail(ArtifactError::kMalformedSection,
                  "schema section does not parse");
    }
    artifact.schema.num_classes = num_classes;
  }
  const uint64_t schema_fp = SchemaFingerprint(artifact.schema);
  if (stored_schema_fp != schema_fp) {
    return Fail(ArtifactError::kSchemaMismatch,
                "schema section fingerprint disagrees with its own fields");
  }

  // Pipeline section.
  const std::string* pipeline_payload = find_section(kPipelineSection);
  if (pipeline_payload == nullptr) {
    return Fail(ArtifactError::kMissingSection,
                "pipeline section missing or duplicated");
  }
  {
    std::istringstream in(*pipeline_payload, std::ios::binary);
    uint64_t section_fp = 0;
    std::string spec_text;
    uint32_t num_steps = 0;
    if (!ReadPod(in, &section_fp) || !ReadString(in, &spec_text) ||
        !ReadPod(in, &num_steps)) {
      return Fail(ArtifactError::kMalformedSection,
                  "pipeline section does not parse");
    }
    if (section_fp != schema_fp) {
      return Fail(ArtifactError::kSchemaMismatch,
                  "pipeline section was written for a different schema "
                  "(fingerprint mismatch)");
    }
    Result<PipelineSpec> spec = ParsePipelineSpec(spec_text);
    if (!spec.ok() || spec.value().steps.size() != num_steps) {
      return Fail(ArtifactError::kMalformedSection,
                  "pipeline section spec '" + spec_text + "' does not parse");
    }
    artifact.spec = std::move(spec).value();
    for (uint32_t i = 0; i < num_steps; ++i) {
      std::string blob;
      if (!ReadString(in, &blob)) {
        return Fail(ArtifactError::kMalformedSection,
                    "pipeline section is missing step " + std::to_string(i) +
                        "'s state blob");
      }
      std::unique_ptr<Preprocessor> step =
          MakePreprocessor(artifact.spec.steps[i]);
      Status loaded = LoadStateBlob(blob, step->name(), step.get());
      if (!loaded.ok()) {
        return Fail(ArtifactError::kBadState, loaded.message());
      }
      artifact.fitted_steps.push_back(std::move(step));
    }
    if (in.peek() != EOF) {
      return Fail(ArtifactError::kMalformedSection,
                  "trailing bytes in the pipeline section");
    }
  }

  // Model section.
  const std::string* model_payload = find_section(kModelSection);
  if (model_payload == nullptr) {
    return Fail(ArtifactError::kMissingSection,
                "model section missing or duplicated");
  }
  {
    std::istringstream in(*model_payload, std::ios::binary);
    uint64_t section_fp = 0;
    std::string blob;
    if (!ReadPod(in, &section_fp)) {
      return Fail(ArtifactError::kMalformedSection,
                  "model section does not parse");
    }
    if (section_fp != schema_fp) {
      return Fail(ArtifactError::kSchemaMismatch,
                  "model section was written for a different schema "
                  "(fingerprint mismatch)");
    }
    if (!DecodeModelConfig(in, &artifact.model_config) ||
        !ReadString(in, &blob) || in.peek() != EOF) {
      return Fail(ArtifactError::kMalformedSection,
                  "model section does not parse");
    }
    artifact.model = MakeClassifier(artifact.model_config);
    Status loaded = LoadStateBlob(blob, "model", artifact.model.get());
    if (!loaded.ok()) {
      return Fail(ArtifactError::kBadState, loaded.message());
    }
  }

  // Reference-stats section.
  const std::string* stats_payload = find_section(kStatsSection);
  if (stats_payload == nullptr) {
    return Fail(ArtifactError::kMissingSection,
                "reference-stats section missing or duplicated");
  }
  {
    std::istringstream in(*stats_payload, std::ios::binary);
    uint64_t section_fp = 0;
    ReferenceStats& stats = artifact.reference_stats;
    if (!ReadPod(in, &section_fp)) {
      return Fail(ArtifactError::kMalformedSection,
                  "reference-stats section does not parse");
    }
    if (section_fp != schema_fp) {
      return Fail(ArtifactError::kSchemaMismatch,
                  "reference-stats section was written for a different "
                  "schema (fingerprint mismatch)");
    }
    if (!ReadPod(in, &stats.rows) || !ReadVec(in, &stats.mean) ||
        !ReadVec(in, &stats.m2) || !ReadVec(in, &stats.min) ||
        !ReadVec(in, &stats.max) || in.peek() != EOF ||
        stats.m2.size() != stats.mean.size() ||
        stats.min.size() != stats.mean.size() ||
        stats.max.size() != stats.mean.size() ||
        (!stats.empty() && stats.cols() != artifact.schema.input_cols)) {
      return Fail(ArtifactError::kMalformedSection,
                  "reference-stats section does not parse");
    }
  }
  return result;
}

Result<ArtifactSchema> ExportArtifact(const std::string& path,
                                      const Dataset& data,
                                      const PipelineSpec& spec,
                                      const ModelConfig& model_config) {
  Status valid = data.Validate();
  if (!valid.ok()) return valid;
  FittedPipeline pipeline = FittedPipeline::Fit(spec, data.features);
  Matrix transformed = pipeline.Transform(data.features);
  for (size_t i = 0; i < transformed.size(); ++i) {
    const double value = transformed.Raw()[i];
    if (!std::isfinite(value)) {
      return Status::OutOfRange(
          "pipeline '" + spec.ToString() +
          "' produced non-finite output on the export data; refusing to "
          "train and ship a model on it");
    }
  }
  std::unique_ptr<Classifier> model = MakeClassifier(model_config);
  model->Train(transformed, data.labels, data.num_classes);

  ArtifactSchema schema;
  schema.dataset_name = data.name;
  schema.input_cols = data.num_cols();
  schema.num_classes = data.num_classes;
  schema.transformed_cols = transformed.cols();
  schema.dataset_fingerprint = DatasetFingerprint(data);
  // The drift baseline is computed on the *input* features (pre-pipeline):
  // the serve loop compares raw serving rows against it.
  Status written = WriteArtifact(path, schema, pipeline, model_config, *model,
                                 ComputeReferenceStats(data.features));
  if (!written.ok()) return written;
  return schema;
}

}  // namespace autofp
