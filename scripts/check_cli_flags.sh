#!/usr/bin/env bash
# Out-of-range numeric flags are usage errors: autofp must exit 2 before
# it loads data or starts a search, never abort, ignore the value or run
# with it. The closed ends of each range must still be accepted.
#
# Usage: scripts/check_cli_flags.sh [--binary PATH]
#   --binary PATH   autofp binary (default: build/tools/autofp)
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${repo_root}/build/tools/autofp"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --binary) bin="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

common_args=(--data suite:blood_syn --algorithm RS --budget 2 --seed 7)
failures=0

# expect_exit CODE FLAGS...: autofp with the common args and FLAGS exits
# with CODE.
expect_exit() {
  local want="$1"; shift
  timeout 60 "${bin}" "${common_args[@]}" "$@" > /dev/null 2>&1
  local got=$?
  if [[ ${got} -ne ${want} ]]; then
    echo "FAIL: '$*' exited ${got}, expected ${want}" >&2
    failures=$((failures + 1))
  else
    echo "ok: '$*' -> ${got}"
  fi
}

expect_exit 2 --fault-rate 2
expect_exit 2 --fault-rate nan
expect_exit 2 --slowdown-rate -0.5
expect_exit 2 --slowdown-rate 0.5 --slowdown-seconds -1
expect_exit 2 --train-fraction 0
expect_exit 2 --train-fraction 1.5
expect_exit 2 --cache-mb -1
expect_exit 2 --workers 2 --lease-deadline -1
expect_exit 2 --workers 2 --lease-deadline 0
expect_exit 2 --budget -1
expect_exit 2 --budget 0
expect_exit 2 --max-length 0

# The closed ends: rates 0 and 1, no slowdown length, the full training
# set, no cache, one evaluation of one-step pipelines.
expect_exit 0 --fault-rate 0 --slowdown-rate 1 --slowdown-seconds 0 \
    --train-fraction 1 --cache-mb 0 --budget 1 --max-length 1

if [[ ${failures} -gt 0 ]]; then
  echo "check_cli_flags: ${failures} failure(s)" >&2
  exit 1
fi
echo "CLI flag bounds check passed."
