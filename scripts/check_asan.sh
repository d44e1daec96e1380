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
# block included).
#
# Usage: scripts/check_asan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the data-plane
#                suites. Pass '.' to run everything under ASan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter="${1:-Matrix|InPlace|Pipeline|TransformCache|ScratchEval|ThreadPool|EvaluateBatch|Predictor|Gbdt|GbdtDetails|ClassifierState|DecisionTree|QuantileState|ReferenceStats|DriftMonitor|Checksum|Protocol|ArtifactCorruption|RunJournal|DistWire|LeaseTable|PowerTransformer|QuantileTransformer|FitInPool|LrEpochBlocks}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=address
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_matrix test_inplace test_pipeline test_parallel_eval \
  test_predictor test_models test_gbdt_details test_artifact test_stream \
  test_checksum test_protocol test_run_journal test_dist test_preprocessors

cd "${build_dir}"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --output-on-failure -R "${filter}"
echo "ASan check passed."
