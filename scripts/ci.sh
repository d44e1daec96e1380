#!/usr/bin/env bash
# One-shot CI entry point, six legs: the tier-1 build (warnings are
# errors) + ctest (which also runs the exactness oracle,
# tests/test_exactness.cc, and the shell
# harnesses tools/CMakeLists.txt registers: serve round trip, network
# serving, drift loop and the dist chaos matrix), the ThreadSanitizer
# concurrency suites, the AddressSanitizer data-plane suites, the
# UndefinedBehaviorSanitizer kernel-layer suites, a quick dist chaos
# pass on the TSan build, and a quick pass of the end-to-end benchmark
# (bench/e2e, its own CMake project that tier-1 never builds).
#
# Usage: scripts/ci.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "=== tier-1: build + ctest ==="
# Warnings fail the build, so a new one cannot hide among old ones. Every
# build is capped at nproc jobs: a bare -j starts every compile at once,
# which can exhaust memory on a small host.
cmake -B "${repo_root}/build" -S "${repo_root}" \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "${repo_root}/build" -j "$(nproc)"
(cd "${repo_root}/build" && ctest --output-on-failure -j)

echo "=== tsan: concurrency suites ==="
"${repo_root}/scripts/check_tsan.sh"

echo "=== asan: data-plane suites ==="
"${repo_root}/scripts/check_asan.sh"

echo "=== ubsan: kernel-layer suites ==="
"${repo_root}/scripts/check_ubsan.sh"

echo "=== dist: chaos quick pass under the TSan build ==="
"${repo_root}/scripts/check_dist.sh" \
  --binary "${repo_root}/build-tsan/tools/autofp" --quick

echo "=== e2e: benchmark smoke ==="
bash "${repo_root}/bench/e2e/run.sh" --quick

echo "CI passed."
