#!/usr/bin/env bash
# End-to-end artifact/serving smoke test (registered as `ctest -L serve`):
#
#   1. search a suite dataset and --export-artifact the winner
#   2. dump the raw dataset to CSV (--apply "<no-FP>")
#   3. score it with autofp_serve at --threads 1 and --threads 4
#   4. assert the two prediction files are byte-identical
#   5. assert malformed rows are skipped (and only they), and that a
#      corrupted artifact is rejected with a typed error, not a crash
#
# The socket front end (`autofp_serve listen`) and its SIGTERM drain are
# checked by scripts/check_serve_net.sh.
#
# Usage: scripts/check_serve.sh --cli <autofp-binary> --serve <serve-binary>
set -euo pipefail

cli=""
serve=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --cli) cli="$2"; shift 2 ;;
    --serve) serve="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "${cli}" && -n "${serve}" ]] || {
  echo "usage: $0 --cli <autofp> --serve <autofp_serve>" >&2; exit 2;
}

workdir="$(mktemp -d "${TMPDIR:-/tmp}/autofp_serve_check.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

dataset="suite:blood_syn"
artifact="${workdir}/model.afpa"
rows="${workdir}/rows.csv"

echo "--- search + export"
"${cli}" --data "${dataset}" --algorithm RS --budget 20 \
  --export-artifact "${artifact}" > "${workdir}/search.log"
grep -q "artifact" "${workdir}/search.log"
[[ -s "${artifact}" ]]

echo "--- dump the raw dataset"
"${cli}" --data "${dataset}" --apply "<no-FP>" --out "${rows}" > /dev/null

echo "--- score at two thread counts, diff predictions"
"${serve}" score --artifact "${artifact}" --in "${rows}" \
  --out "${workdir}/preds_t1.csv" --has-header --threads 1 2> /dev/null
"${serve}" score --artifact "${artifact}" --in "${rows}" \
  --out "${workdir}/preds_t4.csv" --has-header --threads 4 --batch 32 \
  2> /dev/null
cmp "${workdir}/preds_t1.csv" "${workdir}/preds_t4.csv"
# One prediction per data row (plus the header line each side).
[[ "$(wc -l < "${workdir}/preds_t1.csv")" -eq "$(wc -l < "${rows}")" ]]

echo "--- malformed rows are skipped, counted, and non-fatal"
{
  head -n 3 "${rows}"            # header + 2 good rows
  echo "1.0,not_a_number,3.0,4.0,0"
  echo "1.0,2.0"
} > "${workdir}/mixed.csv"
"${serve}" score --artifact "${artifact}" --in "${workdir}/mixed.csv" \
  --out "${workdir}/preds_mixed.csv" --has-header \
  2> "${workdir}/mixed.log"
grep -q "2 skipped" "${workdir}/mixed.log"
[[ "$(wc -l < "${workdir}/preds_mixed.csv")" -eq 3 ]]  # header + 2 rows

echo "--- all rows malformed => exit 4"
printf 'bad,row\nworse\n' > "${workdir}/all_bad.csv"
rc=0
"${serve}" score --artifact "${artifact}" --in "${workdir}/all_bad.csv" \
  --out "${workdir}/preds_bad.csv" 2> /dev/null || rc=$?
[[ "${rc}" -eq 4 ]]

echo "--- corrupted artifact => typed error, exit 1"
cp "${artifact}" "${workdir}/corrupt.afpa"
# Flip one byte in the middle of the file.
size=$(stat -c %s "${workdir}/corrupt.afpa" 2>/dev/null \
       || stat -f %z "${workdir}/corrupt.afpa")
printf '\xff' | dd of="${workdir}/corrupt.afpa" bs=1 seek=$((size / 2)) \
  count=1 conv=notrunc status=none
rc=0
"${serve}" score --artifact "${workdir}/corrupt.afpa" --in "${rows}" \
  --out "${workdir}/preds_corrupt.csv" --has-header \
  2> "${workdir}/corrupt.log" || rc=$?
[[ "${rc}" -eq 1 ]]
grep -Eq "CorruptSection|Truncated|MalformedSection|BadState" \
  "${workdir}/corrupt.log"

echo "serve check passed."
