#!/usr/bin/env bash
# The end-to-end benchmark's one command (see README.md).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1|FILE] [--quick] [--repeat N]
#                    [--record DIR [--alternate BASE_BINARY]] [--binary PATH]
#   bench/e2e/run.sh --compare BASE_DIR NEW_DIR
#
# Builds autofp_e2e from source into .bench_build/e2e on first use, then
# runs each workload in its own process; with no --workload it runs all
# four. A single run's last stdout line is its result object. --seconds is
# the length of a serving run's load phase; a search run does fixed work.
# --trace 1 writes .bench_build/e2e/traces/NAME.json and reports per-layer
# metrics. --repeat N runs N seeds, counting up from --seed, and summarizes
# their spread; --record keeps every run's output for --compare. With
# --alternate, each seed runs on BASE_BINARY (a parent commit's autofp_e2e)
# and on this checkout's, in alternating order, recorded into DIR/base and
# DIR/new. Exits non-zero when any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

all_workloads=(search_evo_prep search_rs_workers_train serve_small_open
               serve_bulk_dense)
workload=""
seed=7
seconds=10
trace=0
quick=0
repeat=1
record=""
binary=""
base_binary=""
compare=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --quick) quick=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --record) record="$2"; shift 2 ;;
    --alternate) base_binary="$2"; shift 2 ;;
    --binary) binary="$2"; shift 2 ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ -n "$base_binary" && -z "$record" ]]; then
  echo "run.sh: --alternate needs --record" >&2
  exit 2
fi

if [[ -z "$binary" ]]; then
  # Build output goes to stderr so stdout ends with the result line.
  if [[ ! -f "$build/Makefile" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  jobs=$(nproc)
  if ((jobs > 4)); then jobs=4; fi
  cmake --build "$build" --target autofp_e2e -j "$jobs" >&2
  binary="$build/autofp_e2e"
fi
out_dir="$(cd "$(dirname "$binary")" && pwd)"

if ((${#compare[@]})); then
  exec "$binary" --compare "${compare[0]}" "${compare[1]}" \
    --benchmark "$root/BENCHMARK.json"
fi

sha=unknown
if [[ -e "$root/.git" ]]; then
  sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

# run_one BINARY NAME SEED OUTPUT_FILE: one workload run in its own process.
run_one() {
  local args=(--workload "$2" --seed "$3" --seconds "$seconds"
              --workdir "$out_dir/work" --git-sha "$sha")
  if ((quick)); then args+=(--quick); fi
  case "$trace" in
    0) ;;
    1) mkdir -p "$out_dir/traces"
       args+=(--trace "$out_dir/traces/$2.json") ;;
    *) args+=(--trace "$trace") ;;
  esac
  "$1" "${args[@]}" | tee "$4"
}

workloads=("${all_workloads[@]}")
if [[ -n "$workload" ]]; then workloads=("$workload"); fi
scratch="$out_dir/runs/$$"
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT
if [[ -n "$base_binary" ]]; then
  mkdir -p "$record/base" "$record/new"
elif [[ -n "$record" ]]; then
  mkdir -p "$record"
fi

status=0
for name in "${workloads[@]}"; do
  files=()
  for ((i = 0; i < repeat; i++)); do
    run_seed=$((seed + i))
    out="$name-seed$run_seed.out"
    if [[ -n "$base_binary" ]]; then
      # Which side runs first alternates, so a slow phase of a shared host
      # falls on both sides alike.
      sides=(base new)
      if ((i % 2)); then sides=(new base); fi
      for side in "${sides[@]}"; do
        side_binary="$binary"
        if [[ "$side" == base ]]; then side_binary="$base_binary"; fi
        if ! run_one "$side_binary" "$name" "$run_seed" "$record/$side/$out"
        then
          status=1
        fi
      done
      continue
    fi
    if ! run_one "$binary" "$name" "$run_seed" "$scratch/$out"; then
      status=1
    fi
    if [[ -n "$record" ]]; then cp "$scratch/$out" "$record/"; fi
    files+=("$scratch/$out")
  done
  if ((repeat > 1 && ${#files[@]})); then
    "$binary" --summarize "${files[@]}" || status=1
  fi
done
exit "$status"
