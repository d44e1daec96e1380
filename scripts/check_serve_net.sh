#!/usr/bin/env bash
# End-to-end network serving check (registered as `ctest -L serve`):
#
#   1. search two suite datasets' pipelines and export artifacts A and B,
#      then score the probe CSV in-process to get reference predictions
#   2. start `autofp_serve listen` on an ephemeral port
#   3. drive it with autofp_loadgen and assert every response matches
#      the in-process reference bit for bit
#   4. hot-swap A -> B mid-load (every response must match A's or B's
#      reference, never a mix) and confirm the swap stuck
#   5. malformed-frame probe: garbage gets a typed error then a close,
#      and the server keeps serving new connections
#   6. SIGHUP reloads the current artifact (generation bump in stderr)
#   7. SIGTERM drains and exits with the signal exit code (3)
#
# Usage: scripts/check_serve_net.sh --cli <autofp> --serve <autofp_serve>
#                                   --loadgen <autofp_loadgen>
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

workdir="$(mktemp -d "${TMPDIR:-/tmp}/autofp_serve_net.XXXXXX")"
server=""
cleanup() {
  [[ -n "${server}" ]] && kill "${server}" 2> /dev/null || true
  rm -rf "${workdir}"
}
trap cleanup EXIT

dataset="suite:blood_syn"
artifact_a="${workdir}/model_a.afpa"
artifact_b="${workdir}/model_b.afpa"
rows="${workdir}/rows.csv"

echo "--- export artifacts A and B, score the probe in-process"
"${cli}" --data "${dataset}" --algorithm RS --budget 20 --seed 7 \
  --export-artifact "${artifact_a}" > /dev/null
"${cli}" --data "${dataset}" --algorithm RS --budget 20 --seed 1234 \
  --export-artifact "${artifact_b}" > /dev/null
"${cli}" --data "${dataset}" --apply "<no-FP>" --out "${rows}" > /dev/null
"${serve}" score --artifact "${artifact_a}" --in "${rows}" \
  --out "${workdir}/expect_a.csv" --has-header 2> /dev/null
"${serve}" score --artifact "${artifact_b}" --in "${rows}" \
  --out "${workdir}/expect_b.csv" --has-header 2> /dev/null

echo "--- start the listener on an ephemeral port"
"${serve}" listen --artifact "${artifact_a}" --port 0 \
  2> "${workdir}/server.log" &
server=$!
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' \
          "${workdir}/server.log" | head -n 1)"
  [[ -n "${port}" ]] && break
  kill -0 "${server}" 2> /dev/null || break
  sleep 0.1
done
[[ -n "${port}" ]] || { cat "${workdir}/server.log" >&2; exit 1; }

echo "--- socket responses match the in-process reference"
"${loadgen}" --port "${port}" --connections 4 --duration 1 \
  --in "${rows}" --expect "${workdir}/expect_a.csv" \
  > "${workdir}/leg1.out"
grep -q "mismatches=0" "${workdir}/leg1.out"

echo "--- CSV frames agree with dense frames"
"${loadgen}" --port "${port}" --connections 2 --duration 0.5 \
  --format csv --in "${rows}" --expect "${workdir}/expect_a.csv" \
  > "${workdir}/leg_csv.out"
grep -q "mismatches=0" "${workdir}/leg_csv.out"

echo "--- hot-swap A -> B under load: no torn responses"
"${loadgen}" --port "${port}" --connections 4 --duration 1.5 \
  --in "${rows}" --expect "${workdir}/expect_a.csv" \
  --expect-alt "${workdir}/expect_b.csv" \
  --swap "${artifact_b}" --swap-after 0.4 \
  > "${workdir}/leg2.out"
grep -q "mismatches=0" "${workdir}/leg2.out"
# The swap stuck: a fresh run must now match B only.
"${loadgen}" --port "${port}" --connections 1 --duration 0.3 \
  --in "${rows}" --expect "${workdir}/expect_b.csv" \
  > "${workdir}/leg3.out"
grep -q "mismatches=0" "${workdir}/leg3.out"

echo "--- malformed frames get a typed error, then the connection closes"
"${loadgen}" --port "${port}" --probe-malformed
# Server must still answer after the garbage connection.
"${loadgen}" --port "${port}" --connections 1 --duration 0.2 \
  --in "${rows}" --expect "${workdir}/expect_b.csv" > /dev/null

echo "--- SIGHUP reloads the current artifact"
kill -HUP "${server}"
for _ in $(seq 50); do
  grep -q "^reload: " "${workdir}/server.log" && break
  sleep 0.1
done
grep -q "^reload: swapped generation=" "${workdir}/server.log"

echo "--- SIGTERM drains and exits 3"
kill -TERM "${server}"
rc=0
wait "${server}" || rc=$?
server=""
[[ "${rc}" -eq 3 ]]
# The shutdown snapshot: one JSON line that carries the latency keys.
grep '^stats: {' "${workdir}/server.log" | tail -n 1 | grep -q '"latency_batches":'

echo "serve net check passed."
