#!/usr/bin/env bash
# Rebuilds the tree and regenerates every figure's artifacts in parallel.
#
#   bench/run_all.sh [build-dir] [extra bench flags...]
#
# Tables go to bench/out/<name>.txt, machine-readable aggregates to
# bench/out/<name>.json and bench/out/<name>.csv. All sweeps run with
# --jobs $(nproc); artifacts are identical for any job count. Extra flags
# (e.g. --runs 3) are passed to every sweep binary.
#
# Every binary runs even if an earlier one fails; the script exits
# non-zero if any of them did.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
[ "$#" -ge 1 ] && shift
out="$repo/bench/out"
jobs="$(nproc 2>/dev/null || echo 1)"

cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$jobs"
mkdir -p "$out"

failed=()
# Auto-discover bench binaries: regular executable files only (skips the
# CMakeFiles/ directory and any stray non-binary the build drops there).
for bin in "$build"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "== $name =="
  "$bin" --quiet --jobs "$jobs" \
    --json "$out/$name.json" --csv "$out/$name.csv" "$@" \
    > "$out/$name.txt" || failed+=("$name")
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "artifacts written to $out"
