#!/usr/bin/env bash
# Builds with -fsanitize=address and runs the data-plane-heavy suites:
# the in-place kernel / scratch-buffer property tests, the matrix
# storage primitives they rest on, the pipeline fit/transform paths,
# the parallel + serving consumers of shared cache entries, and the
# tree models' state loaders and scoring view. ASan is the check that
# the zero-copy refactor's aliasing rules (in-place kernels, non-owning
# views, adopted move storage) never read or write freed or
# out-of-bounds memory, that hostile tree blobs and tile-boundary row
# counts stay in bounds, that the Welford accumulator and drift
# window that ingest untrusted serving rows stay inside their columns,
# that the word-at-a-time CRC and every decoder of untrusted bytes
# that calls it (serve frames, artifacts, run journals, the dist wire
# and lease table) read only the bytes they were given, and that Power
# and Quantile fits whose columns idle pool workers take (HelpFor)
# never touch a helper's state after its caller returned, nor do LR
# epochs whose row blocks they take (LrEpochBlocks, a partial last
# block included). It also runs the MLP's register-tiled kernels
# (MlpKernels: output tiles, vector tails and the gathered rows of
# Backward, at batches of 1 and 61) and the Le compare behind its ReLU
# gate (LeMatchesScalar), which index by raw pointer, and the search's
# result memo (ResultMemo), which copies stored outcomes into a round.
# The vector transcendentals run too (SimdMath, BitOpsMatchTheirScalarTwins)
# with the Power kernels built on them (YeoJohnsonTrial,
# PowerTransformBitIdentical: row blocks copied out of a strided column
# into stack buffers, 257-row tails included), the Quantile fit's radix
# sort (RadixSort: histogram offsets index the scratch keys), and the
# stream controller's drop of a batch whose predictor was swapped out
# (StreamController: the batch holds the old predictor past the swap).
#
# Usage: scripts/check_asan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the data-plane
#                suites. Pass '.' to run everything under ASan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter="${1:-Matrix|InPlace|Pipeline|TransformCache|ScratchEval|ThreadPool|EvaluateBatch|ResultMemo|Predictor|Gbdt|GbdtDetails|ClassifierState|DecisionTree|QuantileState|ReferenceStats|DriftMonitor|Checksum|Protocol|ArtifactCorruption|RunJournal|DistWire|LeaseTable|PowerTransformer|QuantileTransformer|FitInPool|LrEpochBlocks|MlpKernels|LeMatchesScalar|SimdMath|BitOpsMatchTheirScalarTwins|YeoJohnsonTrial|PowerTransformBitIdentical|RadixSort|StreamController}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=address
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_matrix test_inplace test_pipeline test_parallel_eval \
  test_predictor test_models test_gbdt_details test_artifact test_stream \
  test_checksum test_protocol test_run_journal test_dist test_preprocessors \
  test_nn test_simd test_kernels test_stats

cd "${build_dir}"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --output-on-failure -R "${filter}"
echo "ASan check passed."
