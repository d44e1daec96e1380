#!/usr/bin/env bash
# Builds every target with -fsanitize=thread and runs the whole ctest
# suite under it: no test is left out, so a new test is covered the day
# it lands. The shell harnesses ctest registers (serve, stream drift and
# the dist chaos matrix) run the TSan-built tools too.
#
# Usage: scripts/check_tsan.sh [ctest-args...]
#   Extra arguments go to ctest, e.g. -R ServeNet to rerun one suite.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)"

cd "${build_dir}"
export TSAN_OPTIONS="halt_on_error=1"
ctest --output-on-failure -j "$(nproc)" "$@"
echo "TSan check passed."
