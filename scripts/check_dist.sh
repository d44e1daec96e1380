#!/usr/bin/env bash
# Chaos harness for the distributed search runtime (src/dist/).
#
# The contract under test: worker failures may cost wall-clock, never
# results. For one fixed configuration this script asserts that the
# merged run journal of a 4-worker run is byte-identical (canonical
# --dump-journal listing) to a single-process run under injected worker
# crashes (AUTOFP_WORKER_CRASH_AFTER_EVALS), under forced stragglers
# revoked at the lease deadline (AUTOFP_WORKER_STALL_AFTER_EVALS), and
# under external SIGKILL of live workers mid-run. It also kills the
# *coordinator* at a journal append (AUTOFP_CRASH_AFTER_APPENDS),
# requires every orphaned worker to exit promptly, and requires the
# resumed 4-worker run (the CLI's --resume path) to converge to the same
# bytes. Unharmed worker-count identity is one mode of the exactness
# oracle (tests/test_exactness.cc).
#
# Usage: scripts/check_dist.sh [--binary PATH] [--quick]
#   --binary PATH   autofp binary (default: build/tools/autofp, built if
#                   missing)
#   --quick         the worker-crash scenarios only (the sanitizer leg:
#                   forked workers under a short time budget)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${repo_root}/build/tools/autofp"
quick=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --binary) bin="$2"; shift 2 ;;
    --quick) quick=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x "${bin}" ]]; then
  echo "building autofp..."
  cmake -B "${repo_root}/build" -S "${repo_root}" > /dev/null
  cmake --build "${repo_root}/build" --target autofp -j "$(nproc)" > /dev/null
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
# Shared-dataset hand-off files land under TMPDIR: point it at the
# workdir so anything a killed coordinator leaves behind is cleaned up.
export TMPDIR="${workdir}"

common_args=(--data suite:blood_syn --budget 40 --seed 7 --algorithm RS)
coordinator_crash_exit=86  # kCrashPointExitCode
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

best_line() { grep '^best pipeline' "$1"; }

# Orphaned workers carry "--worker-dataset ${workdir}/..." on their
# command line; the workdir path makes the pattern unique to this run
# (and never matches this script or a concurrent ctest job).
live_workers() { pgrep -f -c "worker-dataset ${workdir}" || true; }

# --- Reference: the single-process run every scenario must reproduce. ---
ref_journal="${workdir}/ref.journal"
ref_out="${workdir}/ref.out"
timeout 120 "${bin}" "${common_args[@]}" --journal "${ref_journal}" \
    > "${ref_out}"
"${bin}" --dump-journal "${ref_journal}" > "${workdir}/ref.dump"

# One scenario: run with the given env + extra args, require success and
# a journal byte-identical to the reference. Env assignments ("K=V")
# come first, then "--", then extra CLI flags.
run_scenario() {
  local tag="$1"; shift
  local env_vars=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    env_vars+=("$1"); shift
  done
  [[ $# -gt 0 ]] && shift  # the "--"
  local out="${workdir}/${tag}.out"
  local journal="${workdir}/${tag}.journal"
  if ! env "${env_vars[@]}" timeout 120 "${bin}" "${common_args[@]}" "$@" \
      --journal "${journal}" > "${out}"; then
    fail "${tag}: run did not complete"
    return
  fi
  "${bin}" --dump-journal "${journal}" > "${workdir}/${tag}.dump"
  if ! cmp -s "${workdir}/ref.dump" "${workdir}/${tag}.dump"; then
    fail "${tag}: merged journal differs from the single-process run"
    diff "${workdir}/ref.dump" "${workdir}/${tag}.dump" | head -5 >&2
    return
  fi
  if [[ "$(best_line "${ref_out}")" != "$(best_line "${out}")" ]]; then
    fail "${tag}: best pipeline differs"
    return
  fi
  echo "ok: ${tag}"
}

# 1. Worker crashes at injected kill points: every worker hard-exits as
#    it takes its next leased request after N results, so each crash
#    strands that request; repeatedly, including a request that exhausts
#    its lease attempts into local fallback.
run_scenario "crash-every-5" AUTOFP_WORKER_CRASH_AFTER_EVALS=5 \
    -- --workers 4
run_scenario "crash-staggered" AUTOFP_WORKER_CRASH_AFTER_EVALS="0=3,2=7" \
    -- --workers 4

if [[ ${quick} -eq 0 ]]; then
  # 2. Forced straggler: worker 0 stalls far past the lease deadline and
  #    is revoked; its lease is re-leased and the run converges.
  run_scenario "straggler" AUTOFP_WORKER_STALL_AFTER_EVALS="0=2" \
      AUTOFP_WORKER_STALL_SECONDS=60 -- --workers 4 --lease-deadline 2

  # 3. External SIGKILL of live workers mid-run (the ungraceful version
  #    of scenario 1: no exit hook, just a dead pipe). A longer run with
  #    its own reference so the kills land while leases are in flight.
  long_args=(--data suite:blood_syn --budget 300 --seed 7 --algorithm RS)
  long_journal="${workdir}/long-ref.journal"
  timeout 120 "${bin}" "${long_args[@]}" --journal "${long_journal}" \
      > /dev/null
  "${bin}" --dump-journal "${long_journal}" > "${workdir}/long-ref.dump"
  sigkill_journal="${workdir}/sigkill.journal"
  sigkill_out="${workdir}/sigkill.out"
  timeout 120 "${bin}" "${long_args[@]}" --workers 4 \
      --journal "${sigkill_journal}" > "${sigkill_out}" &
  coordinator=$!
  for _ in 1 2 3; do
    sleep 0.1
    pkill -KILL -f "worker-dataset ${workdir}" 2> /dev/null || true
  done
  if ! wait "${coordinator}"; then
    fail "sigkill: coordinator did not survive its workers being killed"
  else
    "${bin}" --dump-journal "${sigkill_journal}" > "${workdir}/sigkill.dump"
    cmp -s "${workdir}/long-ref.dump" "${workdir}/sigkill.dump" \
        || fail "sigkill: merged journal differs from the single-process run"
    echo "ok: sigkill"
  fi

  # 4. Coordinator crash: kill the coordinator at a journal append while
  #    4 workers hold leases. Orphans must notice the dead pipe and exit
  #    promptly; the resumed run must converge to the reference bytes.
  crash_journal="${workdir}/coord-crash.journal"
  set +e
  AUTOFP_CRASH_AFTER_APPENDS=10 timeout 120 "${bin}" "${common_args[@]}" \
      --workers 4 --journal "${crash_journal}" > /dev/null 2>&1
  status=$?
  set -e
  if [[ ${status} -ne ${coordinator_crash_exit} ]]; then
    fail "coord-crash: expected injected-crash exit ${coordinator_crash_exit}, got ${status}"
  else
    for _ in $(seq 50); do
      [[ "$(live_workers)" -eq 0 ]] && break
      sleep 0.1
    done
    if [[ "$(live_workers)" -ne 0 ]]; then
      fail "coord-crash: orphaned workers still alive 5s after coordinator death"
      pkill -KILL -f "worker-dataset ${workdir}" 2> /dev/null || true
    fi
    resume_out="${workdir}/coord-crash.resume.out"
    if ! timeout 120 "${bin}" "${common_args[@]}" --workers 4 \
        --journal "${crash_journal}" --resume > "${resume_out}"; then
      fail "coord-crash: resume did not complete"
    else
      grep -q "journal        : 10 replayed" "${resume_out}" \
          || fail "coord-crash: resume did not replay exactly 10 evaluations"
      "${bin}" --dump-journal "${crash_journal}" > "${workdir}/coord-crash.dump"
      cmp -s "${workdir}/ref.dump" "${workdir}/coord-crash.dump" \
          || fail "coord-crash: resumed journal differs from the single-process run"
      [[ "$(best_line "${ref_out}")" == "$(best_line "${resume_out}")" ]] \
          || fail "coord-crash: best pipeline differs after resume"
      echo "ok: coord-crash + orphan exit + resume"
    fi
  fi
fi

if [[ ${failures} -gt 0 ]]; then
  echo "check_dist: ${failures} failure(s)" >&2
  exit 1
fi
echo "Distributed chaos check passed (journals byte-identical across" \
     "worker counts, crashes, stragglers and coordinator death)."
