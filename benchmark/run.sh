#!/usr/bin/env bash
# Builds dynabench and runs it, one workload per child process, each confined
# with taskset to the CPUs its workload declares.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--fixed-work]
#
# Without --workload every workload runs in turn. Each child prints its
# metrics as `workload metric value unit` lines and ends with the result
# object, so that object is the last line of a single-workload run; the
# results of all children are merged into <target dir>/dynabench/results.json.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
workloads=(feed_read point_read write_durable paper_mix sim_replay)
workload="" seed=42 seconds=10 trace=0 fixed=()
while (($#)); do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --traced) trace=1; shift ;;
    --fixed-work) fixed=(--fixed-work); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ -n $workload ]] && workloads=("$workload")

# Confinement is part of the workload definition: without taskset there is
# nothing to report.
command -v taskset >/dev/null || { echo "run.sh: taskset is missing" >&2; exit 3; }
allowed=$(taskset -cp $$ | sed 's/.*: *//')
mapfile -t cpus < <(tr ',' '\n' <<<"$allowed" | while IFS=- read -r lo hi; do seq "$lo" "${hi:-$lo}"; done)

target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/dynabench
data_root=$target/dynabench
mkdir -p "$data_root"

export DYNABENCH_RUSTC DYNABENCH_COMMIT
DYNABENCH_RUSTC=$(rustc --version)
DYNABENCH_COMMIT=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)

# Runs one child on the first $1 allowed CPUs; fails if it leaves a data
# directory behind.
child() {
  local n=$1 list
  shift
  list=$(IFS=,; echo "${cpus[*]:0:n}")
  taskset -c "$list" "$bin" "$@" --seed "$seed" --cpus "$n" --data-root "$data_root"
  if compgen -G "$data_root/data-*" >/dev/null; then
    echo "run.sh: a data directory was left behind in $data_root" >&2
    exit 4
  fi
}

results=()
for w in "${workloads[@]}"; do
  extra=()
  if [[ $trace != 0 && $w == paper_mix ]]; then
    # The contention pass: the same mix with two clients on two CPUs, for a
    # third of the time. Its result is a per-layer metric of the traced run.
    if ((${#cpus[@]} >= 2)); then
      c2=$(child 2 --contention --workload "$w" --seconds "$(awk "BEGIN{print $seconds/3}")")
      grep '^#' <<<"$c2" || true
      extra=(--c2-reqs-per-s "$(awk '$2 == "serve.c2_reqs_per_s" {print $3}' <<<"$c2")")
    else
      echo "# $w: one CPU allowed, no contention pass: serve.c2_* read 0"
    fi
  fi
  out=$(child 1 --workload "$w" --seconds "$seconds" --trace "$trace" "${fixed[@]}" "${extra[@]}") \
    || { status=$?; echo "$out"; exit "$status"; }
  echo "$out"
  results+=("{\"workload\":\"$w\",\"result\":$(tail -n 1 <<<"$out")}")
done

{
  printf '{"header":{"seed":%s,"trace":%s,"seconds":%s,"fixed_work":%s,' \
    "$seed" "$trace" "$seconds" "$([[ ${#fixed[@]} -gt 0 ]] && echo true || echo false)"
  printf '"nproc":%s,"cpus_allowed":"%s","rustc":"%s","commit":"%s"},"runs":[' \
    "$(nproc)" "$allowed" "$DYNABENCH_RUSTC" "$DYNABENCH_COMMIT"
  (IFS=,; printf '%s' "${results[*]}")
  printf ']}\n'
} >"$data_root/results.json"
