#!/usr/bin/env bash
# Regenerates the committed kernel-level perf baselines:
#   BENCH_stream.json — rows/sec through each streaming-observer
#     component (running moments, P2 quantile sketches, reservoir,
#     drift monitor); all should dwarf the serving workloads'
#     throughput (bench_stream_overhead).
#   BENCH_kernels.json — preprocessor-kernel roofline: each
#     TransformInPlace timed forced-scalar vs SIMD, with rows/s, GB/s
#     and the speedup (bench_micro_preprocessors --json).
#   BENCH_model_kernels.json — the model-side SIMD primitives (Dot,
#     Axpy, histogram binning, running moments), scalar vs vectorized
#     (bench_micro_models --json).
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

cmake --build "${build_dir}" -j \
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
