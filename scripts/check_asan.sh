#!/usr/bin/env bash
# Builds every target with -fsanitize=address,undefined and runs the whole
# ctest suite under it: no test is left out, so a new test is covered the
# day it lands. ASan catches reads and writes outside live memory (and
# LeakSanitizer leaks); UBSan catches misaligned casts, signed overflow,
# out-of-range shifts and the like. Either kind of finding fails the leg.
#
# Usage: scripts/check_asan.sh [ctest-args...]
#   Extra arguments go to ctest, e.g. -R Quantile to rerun one suite.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=address
cmake --build "${build_dir}" -j "$(nproc)"

cd "${build_dir}"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --output-on-failure -j "$(nproc)" "$@"
echo "ASan check passed."
