#!/usr/bin/env bash
# kill-drill.sh — crash a checkpointing scenario run with SIGKILL and check
# that -restore finishes it byte-identically.
#
# Usage: kill-drill.sh EXPERIMENTS_BINARY "RUN FLAGS" "CHECKPOINT FLAGS" DELAY...
#
#   kill-drill.sh ./experiments \
#       "-scenario flash-crowd -preset large -shards 1" \
#       "-checkpoint-every 200000" 0.4 1 2 3
#
# The uninterrupted run's report is the reference. For each delay (seconds)
# a checkpointing run is started, killed with SIGKILL after the delay, and
# resumed with -restore from the chain it left; the resumed report must
# match the reference. A kill that lands before the first base is written
# leaves nothing to restore: that delay is reported as skipped. A kill
# mid-write can leave a torn .tmp link next to the chain; it is reported,
# and the restore must ignore it.
set -euo pipefail

bin=$1
read -r -a run <<<"$2"
read -r -a ckpt <<<"$3"
shift 3

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$bin" "${run[@]}" >"$dir/plain.txt"
for delay in "$@"; do
	rm -f "$dir"/run.snap*
	"$bin" "${run[@]}" "${ckpt[@]}" -checkpoint "$dir/run.snap" >/dev/null &
	pid=$!
	sleep "$delay"
	if kill -9 "$pid" 2>/dev/null; then
		how="killed after ${delay}s"
	else
		how="finished before the ${delay}s kill"
	fi
	wait "$pid" 2>/dev/null || true
	if [ ! -f "$dir/run.snap" ]; then
		echo "delay ${delay}s: skipped, no base written yet"
		continue
	fi
	links=$(find "$dir" -name 'run.snap*' ! -name '*.tmp' | wc -l)
	torn=$(find "$dir" -name '*.tmp' | wc -l)
	"$bin" "${run[@]}" -restore "$dir/run.snap" >"$dir/resumed.txt"
	diff -u "$dir/plain.txt" "$dir/resumed.txt"
	echo "delay ${delay}s: $how; restored a $links-link chain ($torn torn .tmp ignored), report matches"
done
