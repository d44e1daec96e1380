#!/usr/bin/env bash
# Regenerates the committed perf baselines:
#   BENCH_serve.json — socket round-trip rows/sec and p50/p95/p99
#     latency at 1/4/16 connections, measured by
#     bench_serve_throughput's network section (in-process
#     ServeSocketServer + closed-loop BlockingFrameClient workers — the
#     same stack as `autofp_serve listen` + autofp_loadgen).
#   BENCH_dist.json — evaluations/sec of one fixed batch under
#     in-process threads vs forked worker processes at 1/2/4/8 ways
#     (bench_dist_scaling).
#   BENCH_stream.json — rows/sec through each streaming-observer
#     component (running moments, P2 quantile sketches, reservoir,
#     drift monitor); all should dwarf the socket front end's
#     throughput (bench_stream_overhead).
#   BENCH_kernels.json — preprocessor-kernel roofline: each
#     TransformInPlace timed forced-scalar vs SIMD, with rows/s, GB/s
#     and the speedup (bench_micro_preprocessors --json).
#   BENCH_model_kernels.json — the model-side SIMD primitives (Dot,
#     Axpy, histogram binning, running moments), scalar vs vectorized
#     (bench_micro_models --json).
#
# Numbers are machine-dependent; the committed files are reference
# points for spotting order-of-magnitude regressions after touching
# the epoll front end, the micro-batcher, the parallel evaluator or
# the distributed runtime — not a CI gate.
#
# Usage: scripts/bench_snapshot.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake --build "${build_dir}" -j \
  --target bench_serve_throughput bench_dist_scaling bench_stream_overhead \
  bench_micro_preprocessors bench_micro_models

"${build_dir}/bench/bench_serve_throughput" --net-only \
  --json "${repo_root}/BENCH_serve.json"
echo "wrote ${repo_root}/BENCH_serve.json"

"${build_dir}/bench/bench_dist_scaling" \
  --json "${repo_root}/BENCH_dist.json"
echo "wrote ${repo_root}/BENCH_dist.json"

"${build_dir}/bench/bench_stream_overhead" \
  --json "${repo_root}/BENCH_stream.json"
echo "wrote ${repo_root}/BENCH_stream.json"

"${build_dir}/bench/bench_micro_preprocessors" \
  --json "${repo_root}/BENCH_kernels.json"
echo "wrote ${repo_root}/BENCH_kernels.json"

"${build_dir}/bench/bench_micro_models" \
  --json "${repo_root}/BENCH_model_kernels.json"
echo "wrote ${repo_root}/BENCH_model_kernels.json"
