#!/usr/bin/env bash
# Builds with -fsanitize=undefined and runs the kernel-layer suites:
# the SIMD wrapper primitives, the vectorized preprocessor kernels,
# the matrix storage and borrowed views, the pipeline data plane built
# on them, the tree models' state loaders and scoring view, and the
# Welford accumulator and drift window that ingest serving rows. UBSan
# is the check that the vectorized remainder handling, the branchless
# table lookups and tree descents (index arithmetic) and the
# borrowed-view aliasing never rely on undefined behavior — misaligned
# casts, signed overflow, out-of-range shifts — and that neither does the
# word-at-a-time CRC or any decoder that calls it (serve frames,
# artifacts, run journals, the dist wire and lease table), nor the Power
# and Quantile fits (the Yeo-Johnson clamp at +-1e300) and the pool
# that spreads their columns over idle workers (ThreadPool::HelpFor),
# nor the LR epochs whose row blocks it spreads the same way
# (LrEpochBlocks), nor the MLP's register-tiled kernels (MlpKernels:
# raw-pointer tiles and vector tails). The Le compare behind the MLP's
# ReLU gate runs with the other wrapper tests (Simd). The search's result
# memo (ResultMemo) runs for its counters and retry-round indexing.
# The vector transcendentals (SimdMath) and their bit ops (Simd: Pow2's
# and Exponent's shifts of the exponent field) run with the wrapper
# tests, the Power kernels on them with the other kernels (Kernels); the
# Quantile fit's radix sort (RadixSort: digit shifts and bucket indexes)
# and the stream controller's stale-batch drop (StreamController) are
# named here.
#
# Usage: scripts/check_ubsan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the kernel
#                suites. Pass '.' to run everything under UBSan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-ubsan"
filter="${1:-Simd|Kernels|Matrix|InPlace|Pipeline|Preprocessor|Gbdt|GbdtDetails|ClassifierState|DecisionTree|QuantileState|ReferenceStats|DriftMonitor|Checksum|Protocol|ArtifactCorruption|RunJournal|DistWire|LeaseTable|PowerTransformer|QuantileTransformer|FitInPool|ThreadPool|LrEpochBlocks|MlpKernels|ResultMemo|RadixSort|StreamController}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=undefined
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_simd test_kernels test_matrix test_inplace test_pipeline \
  test_preprocessors test_models test_gbdt_details test_artifact test_stream \
  test_checksum test_protocol test_run_journal test_dist test_parallel_eval \
  test_nn test_stats

cd "${build_dir}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --output-on-failure -R "${filter}"
echo "UBSan check passed."
