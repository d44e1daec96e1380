#!/usr/bin/env bash
# End-to-end streaming drift loop check (registered as `ctest -L stream`):
#
#   1. export artifacts A and B from a suite dataset, build an
#      in-distribution probe CSV and a drifted copy (every feature shifted
#      far outside A's export stats)
#   2. quiet leg: with the drift loop armed, in-distribution traffic never
#      triggers (SIGUSR1 stats line shows rows observed, zero drift
#      triggers, generation 1)
#   3. drift leg (fresh listener, so the re-search snapshot is purely
#      drifted rows): drifted traffic trips the monitor, the background
#      re-search exports a candidate and hot-swaps it (generation 2), and
#      post-swap responses match the candidate artifact scored in-process
#      bit for bit
#   4. torn-swap leg (threshold set unreachably high so only the observer
#      runs): an explicit A -> B swap under full load with
#      --expect/--expect-alt has zero torn responses while the streaming
#      observer sits in the batch path
#   5. failure leg: with the candidate path in a nonexistent directory,
#      drifted traffic triggers but the export fails — the stats line
#      counts research_failed, generation stays 1, and serving still
#      matches artifact A
#
# Usage: scripts/check_stream.sh --cli <autofp> --serve <autofp_serve>
#                                --loadgen <autofp_loadgen>
set -euo pipefail

cli=""
serve=""
loadgen=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --cli) cli="$2"; shift 2 ;;
    --serve) serve="$2"; shift 2 ;;
    --loadgen) loadgen="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "${cli}" && -n "${serve}" && -n "${loadgen}" ]] || {
  echo "usage: $0 --cli <autofp> --serve <autofp_serve>" \
       "--loadgen <autofp_loadgen>" >&2
  exit 2
}

workdir="$(mktemp -d "${TMPDIR:-/tmp}/autofp_stream.XXXXXX")"
server=""
cleanup() {
  [[ -n "${server}" ]] && kill "${server}" 2> /dev/null || true
  rm -rf "${workdir}"
}
trap cleanup EXIT

# Starts a listener on an ephemeral port with the given extra flags and
# waits for it to come up. Sets globals `server` and `port`; logs to $1.
start_listener() {
  local log="$1"; shift
  # Created here, so the polling below never reads a log that the
  # backgrounded redirect has not opened yet.
  : > "${log}"
  "${serve}" listen --artifact "${artifact_a}" --port 0 "$@" \
    2> "${log}" &
  server=$!
  port=""
  for _ in $(seq 100); do
    port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "${log}" \
            | head -n 1)"
    [[ -n "${port}" ]] && break
    kill -0 "${server}" 2> /dev/null || break
    sleep 0.1
  done
  [[ -n "${port}" ]] || { cat "${log}" >&2; exit 1; }
}

stop_listener() {
  kill -TERM "${server}" 2> /dev/null || true
  wait "${server}" 2> /dev/null || true
  server=""
}

# Sends SIGUSR1 and echoes the newest "stats: {...}" line from log $1.
dump_stats() {
  local log="$1"
  local before
  before="$(grep -c '^stats: ' "${log}" || true)"
  kill -USR1 "${server}"
  for _ in $(seq 50); do
    if [[ "$(grep -c '^stats: ' "${log}" || true)" -gt "${before}" ]]; then
      break
    fi
    sleep 0.1
  done
  grep '^stats: ' "${log}" | tail -n 1
}

# Polls the stats line until it contains $2 (want=yes) or until it no
# longer contains $2 (want=no). Leaves the last line in `stats`.
wait_for_stat() {
  local log="$1" pattern="$2" want="${3:-yes}"
  for _ in $(seq 100); do
    stats="$(dump_stats "${log}")"
    if [[ "${want}" == yes && "${stats}" == *"${pattern}"* ]]; then
      return 0
    fi
    if [[ "${want}" == no && "${stats}" != *"${pattern}"* ]]; then
      return 0
    fi
    sleep 0.2
  done
  echo "timed out waiting for '${pattern}' (${want}): ${stats}" >&2
  return 1
}

dataset="suite:blood_syn"
artifact_a="${workdir}/model_a.afpa"
artifact_b="${workdir}/model_b.afpa"
rows="${workdir}/rows.csv"
drift_rows="${workdir}/rows_drift.csv"

echo "--- export artifacts, build probe + drifted CSVs"
"${cli}" --data "${dataset}" --algorithm RS --budget 20 --seed 7 \
  --export-artifact "${artifact_a}" > /dev/null
"${cli}" --data "${dataset}" --algorithm RS --budget 20 --seed 1234 \
  --export-artifact "${artifact_b}" > /dev/null
"${cli}" --data "${dataset}" --apply "<no-FP>" --out "${rows}" > /dev/null
# Shift every feature by +1000: many reference stddevs on every column.
awk 'BEGIN { FS = OFS = "," }
     NR == 1 { print; next }
     { for (i = 1; i <= NF; i++) $i += 1000; print }' \
  "${rows}" > "${drift_rows}"
"${serve}" score --artifact "${artifact_a}" --in "${rows}" \
  --out "${workdir}/expect_a.csv" --has-header 2> /dev/null
"${serve}" score --artifact "${artifact_b}" --in "${rows}" \
  --out "${workdir}/expect_b.csv" --has-header 2> /dev/null

echo "--- quiet leg: in-distribution traffic never triggers"
log1="${workdir}/server_quiet.log"
start_listener "${log1}" \
  --candidate "${workdir}/quiet_candidate.afpa" \
  --drift-window 256 --drift-threshold 0.5 \
  --reservoir-rows 512 --research-budget 8 --research-min-rows 64
grep -q "^drift: window 256 rows" "${log1}"
"${loadgen}" --port "${port}" --connections 2 --duration 1 \
  --in "${rows}" --expect "${workdir}/expect_a.csv" \
  > "${workdir}/leg_quiet.out"
grep -q "mismatches=0" "${workdir}/leg_quiet.out"
stats="$(dump_stats "${log1}")"
[[ "${stats}" == *'"generation":1'* ]]
[[ "${stats}" == *'"drift_triggers":0'* ]]
[[ "${stats}" != *'"stream_rows_observed":0,'* ]]
stop_listener

echo "--- drift leg: drifted traffic triggers re-search and hot-swap"
candidate="${workdir}/candidate.afpa"
log2="${workdir}/server_drift.log"
start_listener "${log2}" \
  --candidate "${candidate}" --drift-window 256 --drift-threshold 0.5 \
  --reservoir-rows 512 --research-budget 8 --research-min-rows 64 \
  --research-seed 11
"${loadgen}" --port "${port}" --connections 1 --duration 1 \
  --in "${drift_rows}" > /dev/null
wait_for_stat "${log2}" '"research_succeeded":0' no
stats="$(dump_stats "${log2}")"
[[ "${stats}" == *'"generation":2'* ]]
[[ "${stats}" != *'"drift_triggers":0'* ]]
[[ -s "${candidate}" ]]

echo "--- post-swap responses match the candidate artifact bit for bit"
"${serve}" score --artifact "${candidate}" --in "${drift_rows}" \
  --out "${workdir}/expect_cand.csv" --has-header 2> /dev/null
"${loadgen}" --port "${port}" --connections 2 --duration 0.5 \
  --in "${drift_rows}" --expect "${workdir}/expect_cand.csv" \
  > "${workdir}/leg_post.out"
grep -q "mismatches=0" "${workdir}/leg_post.out"
stop_listener

echo "--- torn-swap leg: swap under load with the observer in the path"
log3="${workdir}/server_torn.log"
start_listener "${log3}" \
  --candidate "${workdir}/unused_candidate.afpa" \
  --drift-window 256 --drift-threshold 1000000 --research-min-rows 64
"${loadgen}" --port "${port}" --connections 4 --duration 1.5 \
  --in "${rows}" --expect "${workdir}/expect_a.csv" \
  --expect-alt "${workdir}/expect_b.csv" \
  --swap "${artifact_b}" --swap-after 0.4 \
  > "${workdir}/leg_torn.out"
grep -q "mismatches=0" "${workdir}/leg_torn.out"
stats="$(dump_stats "${log3}")"
[[ "${stats}" == *'"generation":2'* ]]
[[ "${stats}" == *'"drift_triggers":0'* ]]
[[ "${stats}" != *'"stream_windows_compared":0,'* ]]
stop_listener

echo "--- failure leg: failed candidate export keeps the old generation"
log4="${workdir}/server_fail.log"
start_listener "${log4}" \
  --candidate "${workdir}/no_such_dir/candidate.afpa" \
  --drift-window 256 --drift-threshold 0.5 \
  --reservoir-rows 512 --research-budget 8 --research-min-rows 64
"${loadgen}" --port "${port}" --connections 1 --duration 1 \
  --in "${drift_rows}" > /dev/null
wait_for_stat "${log4}" '"research_failed":0' no
stats="$(dump_stats "${log4}")"
[[ "${stats}" == *'"generation":1'* ]]
[[ "${stats}" == *'"research_succeeded":0'* ]]
# Old artifact still serves, bit for bit.
"${loadgen}" --port "${port}" --connections 1 --duration 0.3 \
  --in "${rows}" --expect "${workdir}/expect_a.csv" \
  > "${workdir}/leg_fail.out"
grep -q "mismatches=0" "${workdir}/leg_fail.out"
stop_listener

echo "stream drift check passed."
