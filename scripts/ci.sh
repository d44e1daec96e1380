#!/usr/bin/env bash
# One-shot CI entry point: tier-1 build + ctest, the ThreadSanitizer
# concurrency suites, the AddressSanitizer data-plane suites, the
# UndefinedBehaviorSanitizer kernel-layer suites, a full forced-scalar
# run (AUTOFP_DISABLE_SIMD=ON — the kernel layer's portable fallback
# must pass everything the SIMD build does), the artifact/serving round
# trip, the network serving end-to-end leg (hot swap under load,
# malformed frames, signal handling), the streaming drift loop
# (drift-triggered background re-search and hot swap), the
# kill-point crash-injection matrix, and a quick pass of the end-to-end
# benchmark (bench/e2e, its own CMake project that tier-1 never builds).
#
# Usage: scripts/ci.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "=== tier-1: build + ctest ==="
cmake -B "${repo_root}/build" -S "${repo_root}"
cmake --build "${repo_root}/build" -j
(cd "${repo_root}/build" && ctest --output-on-failure -j)

echo "=== tsan: concurrency suites ==="
"${repo_root}/scripts/check_tsan.sh"

echo "=== asan: data-plane suites ==="
"${repo_root}/scripts/check_asan.sh"

echo "=== ubsan: kernel-layer suites ==="
"${repo_root}/scripts/check_ubsan.sh"

echo "=== forced-scalar: full ctest with SIMD disabled ==="
cmake -B "${repo_root}/build-scalar" -S "${repo_root}" \
  -DAUTOFP_DISABLE_SIMD=ON
cmake --build "${repo_root}/build-scalar" -j
(cd "${repo_root}/build-scalar" && ctest --output-on-failure -j)

echo "=== serve: export -> score round trip ==="
"${repo_root}/scripts/check_serve.sh" \
  --cli "${repo_root}/build/tools/autofp" \
  --serve "${repo_root}/build/tools/autofp_serve"

echo "=== serve: network round trip, hot swap, drain ==="
"${repo_root}/scripts/check_serve_net.sh" \
  --cli "${repo_root}/build/tools/autofp" \
  --serve "${repo_root}/build/tools/autofp_serve" \
  --loadgen "${repo_root}/build/tools/autofp_loadgen"

echo "=== stream: drift loop, background re-search, hot swap ==="
"${repo_root}/scripts/check_stream.sh" \
  --cli "${repo_root}/build/tools/autofp" \
  --serve "${repo_root}/build/tools/autofp_serve" \
  --loadgen "${repo_root}/build/tools/autofp_loadgen"

echo "=== crash: kill-and-resume determinism ==="
"${repo_root}/scripts/check_crash.sh" --binary "${repo_root}/build/tools/autofp"

echo "=== dist: multi-process chaos (crashes, stragglers, orphans) ==="
"${repo_root}/scripts/check_dist.sh" --binary "${repo_root}/build/tools/autofp"

echo "=== dist: chaos quick pass under the TSan build ==="
"${repo_root}/scripts/check_dist.sh" \
  --binary "${repo_root}/build-tsan/tools/autofp" --quick

echo "=== e2e: benchmark smoke ==="
bash "${repo_root}/bench/e2e/run.sh" --quick

echo "CI passed."
