#!/usr/bin/env bash
# Regenerates the committed kernel-level perf baselines:
#   BENCH_stream.json — rows/sec through each streaming-observer
#     component (the ReferenceStats Welford update, reservoir, drift
#     monitor); all should dwarf the serving workloads' throughput
#     (bench_stream_overhead).
#   BENCH_kernels.json — preprocessor-kernel roofline: each
#     TransformInPlace timed forced-scalar vs SIMD, with rows/s, GB/s
#     and the speedup, plus each Fit on one thread and, for Quantile,
#     its sort and its QuantileSorted table timed apart
#     (bench_micro_preprocessors --json).
#   BENCH_model_kernels.json — the model-side SIMD primitives (Dot,
#     Axpy, histogram binning, the ReferenceStats Welford update),
#     scalar vs vectorized (bench_micro_models --json).
#
# All three go through one writer (bench::Snapshot in
# bench/bench_util.h): a host block (nproc, SIMD backend, build type,
# git sha) and the median, min and max of every cell over its repeats.
# The build directory is reconfigured first so the recorded sha is the
# checkout's current one.
#
# Numbers are machine-dependent; the committed files are reference
# points for spotting order-of-magnitude regressions after touching the
# kernel layer or the stream observers — not a CI gate. Serving and
# search are measured end to end by bench/e2e/run.sh.
#
# Usage: scripts/bench_snapshot.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)" \
  --target bench_stream_overhead bench_micro_preprocessors bench_micro_models

"${build_dir}/bench/bench_stream_overhead" \
  --json "${repo_root}/BENCH_stream.json"
echo "wrote ${repo_root}/BENCH_stream.json"

"${build_dir}/bench/bench_micro_preprocessors" \
  --json "${repo_root}/BENCH_kernels.json"
echo "wrote ${repo_root}/BENCH_kernels.json"

"${build_dir}/bench/bench_micro_models" \
  --json "${repo_root}/BENCH_model_kernels.json"
echo "wrote ${repo_root}/BENCH_model_kernels.json"
