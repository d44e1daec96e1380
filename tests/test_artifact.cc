/// Tests of the artifact subsystem (src/serve/artifact.h): preprocessor
/// and classifier state round-trips, whole-artifact write/read, and the
/// corruption taxonomy — every way a file can be damaged (truncation at
/// any offset, a flipped byte, a foreign version, stitched-together
/// sections) must surface as a typed ArtifactError, never a crash.

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/lda.h"
#include "ml/naive_bayes.h"
#include "preprocess/pipeline_parse.h"
#include "serve/artifact.h"
#include "util/serialize.h"

namespace autofp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Dataset TestData() {
  Result<Dataset> data = GetSuiteDataset("blood_syn");
  AUTOFP_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// Exports a small but real artifact (2-step pipeline, LR) to `name`.
std::string WriteTestArtifact(const std::string& name) {
  std::string path = TempPath(name);
  PipelineSpec spec = PipelineSpec::FromKinds(
      {PreprocessorKind::kStandardScaler, PreprocessorKind::kMinMaxScaler});
  Result<ArtifactSchema> exported = ExportArtifact(
      path, TestData(), spec,
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  EXPECT_TRUE(exported.ok()) << exported.status().ToString();
  return path;
}

// ---------------------------------------------------------------------------
// Serialization primitives: declared lengths never drive allocation.

/// A blob that declares kMaxSerializedElements elements of `width` bytes
/// after `prefix`, then holds only 8 bytes of payload.
std::string InflatedLengthBlob(const std::string& prefix) {
  std::ostringstream out;
  out << prefix;
  WritePod<uint64_t>(out, kMaxSerializedElements);
  WritePod<uint64_t>(out, 0x0123456789abcdefull);
  return out.str();
}

TEST(Serialize, InflatedVectorLengthFailsWithBoundedAllocation) {
  std::istringstream in(InflatedLengthBlob(""));
  std::vector<double> values;
  EXPECT_FALSE(ReadVec(in, &values));
  EXPECT_LT(values.capacity() * sizeof(double), size_t{1} << 20);
}

TEST(Serialize, InflatedStringLengthFailsWithBoundedAllocation) {
  std::istringstream in(InflatedLengthBlob(""));
  std::string value;
  EXPECT_FALSE(ReadString(in, &value));
  EXPECT_LT(value.capacity(), size_t{1} << 20);
}

TEST(Serialize, InflatedMatrixLengthFailsAndLeavesOutputUntouched) {
  std::ostringstream shape;
  WritePod<uint64_t>(shape, uint64_t{1} << 14);  // rows
  WritePod<uint64_t>(shape, uint64_t{1} << 14);  // cols: 2^28 elements
  std::istringstream in(InflatedLengthBlob(shape.str()));
  Matrix matrix = {{1.0, 2.0}};
  EXPECT_FALSE(ReadMatrix(in, &matrix));
  EXPECT_TRUE(matrix == Matrix({{1.0, 2.0}}));
}

TEST(Serialize, ChunkedReadsRoundTripAcrossChunkBoundaries) {
  const size_t chunk = kReadChunkBytes / sizeof(double);
  for (size_t n : {size_t{0}, size_t{1}, chunk - 1, chunk, chunk + 1,
                   3 * chunk + 5}) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i) - 0.5;
    Matrix matrix(n, 3, 1.5);
    std::string text(n, 'x');
    std::ostringstream out;
    WriteVec(out, values);
    WriteMatrix(out, matrix);
    WriteString(out, text);
    std::istringstream in(out.str());
    std::vector<double> values_back = {42.0};
    Matrix matrix_back;
    std::string text_back = "stale";
    ASSERT_TRUE(ReadVec(in, &values_back)) << n;
    ASSERT_TRUE(ReadMatrix(in, &matrix_back)) << n;
    ASSERT_TRUE(ReadString(in, &text_back)) << n;
    EXPECT_EQ(values_back, values);
    EXPECT_TRUE(matrix_back == matrix);
    EXPECT_EQ(text_back, text);
  }
}

// ---------------------------------------------------------------------------
// Preprocessor state round-trips.

TEST(PreprocessorState, RoundTripAllSevenKinds) {
  Dataset data = TestData();
  for (PreprocessorKind kind : AllPreprocessorKinds()) {
    PreprocessorConfig config = PreprocessorConfig::Defaults(kind);
    std::unique_ptr<Preprocessor> fitted = MakePreprocessor(config);
    fitted->Fit(data.features);
    Matrix expected = fitted->Transform(data.features);

    std::ostringstream out(std::ios::binary);
    fitted->SaveState(out);

    std::unique_ptr<Preprocessor> loaded = MakePreprocessor(config);
    std::istringstream in(out.str(), std::ios::binary);
    Status status = loaded->LoadState(in);
    ASSERT_TRUE(status.ok()) << KindName(kind) << ": " << status.ToString();
    EXPECT_EQ(in.peek(), EOF) << KindName(kind) << " left trailing bytes";
    // Bit-identical: the fitted state (means, quantiles, lambdas, ...) is
    // doubles all the way down, so the transform must match exactly.
    EXPECT_TRUE(loaded->Transform(data.features) == expected)
        << KindName(kind) << " transform changed across save/load";
  }
}

TEST(PreprocessorState, StatefulLoadRejectsGarbage) {
  // Stateless kinds (Binarizer, Normalizer) read nothing, so only the
  // stateful five can reject bytes; truncated and oversized blobs must
  // both come back as InvalidArgument, not a crash.
  for (PreprocessorKind kind :
       {PreprocessorKind::kStandardScaler, PreprocessorKind::kMinMaxScaler,
        PreprocessorKind::kMaxAbsScaler, PreprocessorKind::kPowerTransformer,
        PreprocessorKind::kQuantileTransformer}) {
    std::unique_ptr<Preprocessor> loaded = MakePreprocessor(kind);
    std::istringstream truncated(std::string("\x03\x00", 2),
                                 std::ios::binary);
    EXPECT_FALSE(loaded->LoadState(truncated).ok()) << KindName(kind);
  }
}

// ---------------------------------------------------------------------------
// Classifier state round-trips (the three paper models plus the
// auxiliary classifiers used by landmarking meta-features).

void ExpectClassifierRoundTrip(const Classifier& trained,
                               std::unique_ptr<Classifier> fresh,
                               const Matrix& features, const char* label) {
  std::vector<int> expected = trained.PredictBatch(features);
  std::ostringstream out(std::ios::binary);
  trained.SaveState(out);
  std::istringstream in(out.str(), std::ios::binary);
  Status status = fresh->LoadState(in);
  ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
  EXPECT_EQ(in.peek(), EOF) << label << " left trailing bytes";
  EXPECT_EQ(fresh->PredictBatch(features), expected) << label;
}

TEST(ClassifierState, RoundTripPaperModels) {
  Dataset data = TestData();
  for (ModelKind kind : {ModelKind::kLogisticRegression, ModelKind::kXgboost,
                         ModelKind::kMlp}) {
    ModelConfig config = ModelConfig::Defaults(kind);
    std::unique_ptr<Classifier> model = MakeClassifier(config);
    model->Train(data.features, data.labels, data.num_classes);
    ExpectClassifierRoundTrip(*model, MakeClassifier(config), data.features,
                              ModelKindName(kind).c_str());
  }
}

TEST(ClassifierState, RoundTripAuxiliaryModels) {
  Dataset data = TestData();
  auto round_trip = [&](Classifier* model, const char* label) {
    model->Train(data.features, data.labels, data.num_classes);
    ExpectClassifierRoundTrip(*model, model->Clone(), data.features, label);
  };
  DecisionTreeClassifier tree{TreeConfig{}};
  round_trip(&tree, "DecisionTree");
  KnnClassifier knn(5);
  round_trip(&knn, "KNN");
  LdaClassifier lda(1e-3);
  round_trip(&lda, "LDA");
  GaussianNaiveBayes nb;
  round_trip(&nb, "NaiveBayes");
}

TEST(ClassifierState, LoadRejectsGarbage) {
  for (ModelKind kind : {ModelKind::kLogisticRegression, ModelKind::kXgboost,
                         ModelKind::kMlp}) {
    std::unique_ptr<Classifier> model =
        MakeClassifier(ModelConfig::Defaults(kind));
    std::istringstream truncated(std::string("\x01\x00\x00", 3),
                                 std::ios::binary);
    EXPECT_FALSE(model->LoadState(truncated).ok()) << ModelKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// Whole-artifact round-trip.

TEST(Artifact, WriteReadRoundTrip) {
  std::string path = WriteTestArtifact("artifact_roundtrip.afpa");
  ArtifactReadResult read = ReadArtifact(path);
  ASSERT_TRUE(read.ok()) << ArtifactErrorName(read.error) << ": "
                         << read.status.ToString();
  const Dataset data = TestData();
  EXPECT_EQ(read.artifact.schema.dataset_name, data.name);
  EXPECT_EQ(read.artifact.schema.input_cols, data.num_cols());
  EXPECT_EQ(read.artifact.schema.num_classes, data.num_classes);
  EXPECT_EQ(read.artifact.schema.transformed_cols, data.num_cols());
  EXPECT_EQ(read.artifact.spec.ToString(),
            "StandardScaler -> MinMaxScaler");
  ASSERT_EQ(read.artifact.fitted_steps.size(), 2u);
  EXPECT_EQ(read.artifact.model_config.kind,
            ModelKind::kLogisticRegression);
  ASSERT_NE(read.artifact.model, nullptr);
}

TEST(Artifact, ExportStampsReferenceStatsThatRoundTrip) {
  std::string path = WriteTestArtifact("artifact_stats.afpa");
  ArtifactReadResult read = ReadArtifact(path);
  ASSERT_TRUE(read.ok()) << read.status.ToString();

  const Dataset data = TestData();
  const ReferenceStats expected = ComputeReferenceStats(data.features);
  const ReferenceStats& loaded = read.artifact.reference_stats;
  ASSERT_EQ(loaded.cols(), data.num_cols());
  EXPECT_EQ(loaded.rows, data.num_rows());
  for (size_t c = 0; c < loaded.cols(); ++c) {
    // The section stores the raw doubles, so the round trip is bit-exact.
    EXPECT_EQ(loaded.mean[c], expected.mean[c]) << "col " << c;
    EXPECT_EQ(loaded.m2[c], expected.m2[c]) << "col " << c;
    EXPECT_EQ(loaded.min[c], expected.min[c]) << "col " << c;
    EXPECT_EQ(loaded.max[c], expected.max[c]) << "col " << c;
  }
}

TEST(Artifact, WriteRejectsStatsWithWrongColumnCount) {
  const Dataset data = TestData();
  FittedPipeline pipeline = FittedPipeline::Fit(
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler}),
      data.features);
  Matrix transformed = pipeline.Transform(data.features);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  std::unique_ptr<Classifier> model = MakeClassifier(config);
  model->Train(transformed, data.labels, data.num_classes);
  ArtifactSchema schema;
  schema.dataset_name = data.name;
  schema.input_cols = data.num_cols();
  schema.num_classes = data.num_classes;
  schema.transformed_cols = transformed.cols();

  ReferenceStats wrong;  // one column short of the schema.
  wrong.rows = data.num_rows();
  wrong.mean.assign(data.num_cols() - 1, 0.0);
  wrong.m2.assign(data.num_cols() - 1, 0.0);
  wrong.min.assign(data.num_cols() - 1, 0.0);
  wrong.max.assign(data.num_cols() - 1, 0.0);
  Status written = WriteArtifact(TempPath("artifact_bad_stats.afpa"), schema,
                                 pipeline, config, *model, wrong);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
}

TEST(Artifact, ExportRefusesNonFinitePipelineOutput) {
  Dataset data = TestData();
  // Poison the first column with values PowerTransformer overflows on.
  for (size_t r = 0; r < data.features.rows(); ++r) {
    data.features(r, 0) = r == 0 ? 1e300 : -1e300;
  }
  PipelineSpec spec =
      PipelineSpec::FromKinds({PreprocessorKind::kPowerTransformer});
  Result<ArtifactSchema> exported = ExportArtifact(
      TempPath("artifact_nonfinite.afpa"), data, spec,
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  // Either the transform overflowed (OutOfRange) or stayed finite — but
  // it must never write a model trained on NaNs silently. Accept both
  // outcomes, require a typed status on failure.
  if (!exported.ok()) {
    EXPECT_EQ(exported.status().code(), StatusCode::kOutOfRange)
        << exported.status().ToString();
  }
}

TEST(Artifact, ExportRefusesStateThatWouldNotLoad) {
  Dataset data = TestData();
  // The two smallest values are -inf and +inf, so the q=0 quantile
  // interpolates -inf + 0 * inf = NaN, which QuantileTransformer::LoadState
  // rejects; the transform output itself stays finite.
  for (size_t r = 0; r < data.features.rows(); ++r) {
    data.features(r, 0) = r == 0 ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  }
  for (const char* text :
       {"QuantileTransformer(output_distribution=uniform)",
        "QuantileTransformer(output_distribution=normal)"}) {
    Result<PipelineSpec> spec = ParsePipelineSpec(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const std::string path = TempPath("artifact_unloadable.afpa");
    std::remove(path.c_str());
    Result<ArtifactSchema> exported = ExportArtifact(
        path, data, spec.value(),
        ModelConfig::Defaults(ModelKind::kLogisticRegression));
    ASSERT_FALSE(exported.ok()) << text;
    EXPECT_EQ(exported.status().code(), StatusCode::kInvalidArgument)
        << exported.status().ToString();
    EXPECT_NE(exported.status().message().find("QuantileTransformer"),
              std::string::npos)
        << exported.status().ToString();
    // Nothing was written: a registry watching the path sees no file.
    EXPECT_EQ(ReadArtifact(path).error, ArtifactError::kIoError) << text;
  }
}

// ---------------------------------------------------------------------------
// Corruption taxonomy. Every damaged file yields the matching typed
// error; none of them may crash the reader.

TEST(ArtifactCorruption, MissingFile) {
  ArtifactReadResult read = ReadArtifact(TempPath("does_not_exist.afpa"));
  EXPECT_EQ(read.error, ArtifactError::kIoError);
}

TEST(ArtifactCorruption, BadMagic) {
  std::string path = WriteTestArtifact("artifact_badmagic.afpa");
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0x5A;
  WriteFileBytes(path, bytes);
  EXPECT_EQ(ReadArtifact(path).error, ArtifactError::kBadMagic);
}

TEST(ArtifactCorruption, VersionBump) {
  std::string path = WriteTestArtifact("artifact_version.afpa");
  std::string bytes = ReadFileBytes(path);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // u32 version, little byte.
  WriteFileBytes(path, bytes);
  ArtifactReadResult read = ReadArtifact(path);
  EXPECT_EQ(read.error, ArtifactError::kVersionMismatch);
  EXPECT_NE(read.status.message().find("version"), std::string::npos);
}

TEST(ArtifactCorruption, CorruptPreamble) {
  std::string path = WriteTestArtifact("artifact_preamble.afpa");
  std::string bytes = ReadFileBytes(path);
  bytes[8] ^= 0x01;  // section count: CRC'd but not otherwise validated.
  WriteFileBytes(path, bytes);
  EXPECT_EQ(ReadArtifact(path).error, ArtifactError::kCorruptHeader);
}

TEST(ArtifactCorruption, TruncationAtEveryRegion) {
  std::string path = WriteTestArtifact("artifact_truncated.afpa");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  // Cut points spanning magic, preamble, frame headers, payloads, and the
  // final CRC. Below the magic the file reads as "not an artifact";
  // everywhere else as truncation.
  for (size_t cut : {size_t{0}, size_t{2}, size_t{5}, size_t{12}, size_t{17},
                     size_t{30}, bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, cut));
    ArtifactReadResult read = ReadArtifact(path);
    EXPECT_FALSE(read.ok()) << "cut at " << cut;
    EXPECT_EQ(read.error, cut < 4 ? ArtifactError::kBadMagic
                                  : ArtifactError::kTruncated)
        << "cut at " << cut << " gave " << ArtifactErrorName(read.error);
  }
}

TEST(ArtifactCorruption, FlippedByteInEverySection) {
  std::string path = WriteTestArtifact("artifact_flipped.afpa");
  const std::string bytes = ReadFileBytes(path);
  // Offsets chosen inside the three payload regions and the trailing
  // section CRC; any single flipped bit must trip that section's CRC.
  for (size_t offset : {size_t{30}, bytes.size() / 2, bytes.size() - 2}) {
    std::string damaged = bytes;
    damaged[offset] ^= 0x10;
    WriteFileBytes(path, damaged);
    ArtifactReadResult read = ReadArtifact(path);
    EXPECT_EQ(read.error, ArtifactError::kCorruptSection)
        << "flip at " << offset << " gave " << ArtifactErrorName(read.error);
  }
}

TEST(ArtifactCorruption, TrailingBytes) {
  std::string path = WriteTestArtifact("artifact_trailing.afpa");
  WriteFileBytes(path, ReadFileBytes(path) + "extra");
  EXPECT_EQ(ReadArtifact(path).error, ArtifactError::kMalformedSection);
}

TEST(ArtifactCorruption, SchemaFingerprintMismatch) {
  // An artifact stitched from mismatched halves: the pipeline/model
  // sections carry a foreign schema fingerprint but intact CRCs, so only
  // the fingerprint cross-check can catch it.
  Dataset data = TestData();
  PipelineSpec spec =
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler});
  FittedPipeline pipeline = FittedPipeline::Fit(spec, data.features);
  Matrix transformed = pipeline.Transform(data.features);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  std::unique_ptr<Classifier> model = MakeClassifier(config);
  model->Train(transformed, data.labels, data.num_classes);
  ArtifactSchema schema;
  schema.dataset_name = data.name;
  schema.input_cols = data.num_cols();
  schema.num_classes = data.num_classes;
  schema.transformed_cols = transformed.cols();

  std::string path = TempPath("artifact_stitched.afpa");
  ArtifactWriteOptions options;
  options.override_section_fingerprint = 0xDEADBEEFu;
  ASSERT_TRUE(
      WriteArtifact(path, schema, pipeline, config, *model, {}, options).ok());
  ArtifactReadResult read = ReadArtifact(path);
  EXPECT_EQ(read.error, ArtifactError::kSchemaMismatch);
  EXPECT_NE(read.status.message().find("fingerprint"), std::string::npos);
}

TEST(ArtifactCorruption, NeverCrashesOnRandomDamage) {
  // Deterministic fuzz sweep: flip one byte at every offset in turn.
  // Any typed error is acceptable; crashing or reporting success with a
  // damaged payload is not (success is allowed only when the flip landed
  // in a CRC-covered-but-unused region — there is none in this format).
  std::string path = WriteTestArtifact("artifact_fuzz.afpa");
  const std::string bytes = ReadFileBytes(path);
  const size_t stride = bytes.size() / 97 + 1;
  for (size_t offset = 0; offset < bytes.size(); offset += stride) {
    std::string damaged = bytes;
    damaged[offset] ^= 0x40;
    WriteFileBytes(path, damaged);
    ArtifactReadResult read = ReadArtifact(path);
    EXPECT_FALSE(read.ok()) << "flip at " << offset << " went unnoticed";
  }
}

}  // namespace
}  // namespace autofp
