#!/usr/bin/env bash
# Builds with -fsanitize=thread and runs the concurrency-sensitive tests:
# the one worker pool (ThreadPool, HelpFor included), Power and Quantile
# fits whose columns idle pool workers take (FitInPool), LR epochs whose
# row blocks they take while each writes its rows of one shared residual
# buffer (LrEpochBlocks), the evaluation
# engine built on the pool (TransformCache, the search's result memo
# ResultMemo, EvaluateBatch), the exactness
# oracle's 4-thread cases (a fault-injected search on the pool with a
# prefix cache attached and the result memo on; its forked-worker cases
# stay out, check_dist.sh --quick runs workers under TSan), the
# fault-injection suite that
# shares its retry/quarantine paths, the serving runtime's sharded
# scoring on the same pool (Predictor + latency histogram), the
# zero-copy data plane (shared cache entries read while evicting,
# per-worker scratch reuse, in-place kernel equivalence), and the
# network serving stack (socket server I/O + batch threads, hot-swap
# registry, swap-under-concurrent-load tear check).
#
# Usage: scripts/check_tsan.sh [ctest-regex]
#   ctest-regex  optional test-name filter; defaults to the concurrency
#                suites. Pass '.' to run everything under TSan.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-tsan"
filter="${1:-TransformCache|PrefixCache|ResultMemo|ThreadPool|EvaluateBatch|Exactness.*threads4|FaultInjector|Quarantine|Retry|Predictor|ScratchEval|InPlace|Protocol|ServeNet|Registry|HotSwap|FitInPool|LrEpochBlocks}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAUTOFP_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_parallel_eval test_exactness test_fault_injection \
  test_preprocessors test_models test_predictor test_inplace \
  test_protocol test_serve_net autofp autofp_serve_bin autofp_loadgen

cd "${build_dir}"
TSAN_OPTIONS="halt_on_error=1" ctest --output-on-failure -R "${filter}"
echo "TSan check passed."
