#!/usr/bin/env bash
# kill-drill.sh — crash a checkpointing scenario run with SIGKILL and check
# that -restore finishes it byte-identically.
#
# Usage: kill-drill.sh EXPERIMENTS_BINARY "RUN FLAGS" "CHECKPOINT FLAGS" DELAY...
#        kill-drill.sh EXPERIMENTS_BINARY "RUN FLAGS" "CHECKPOINT FLAGS" -seed SEED COUNT MIN_MS MAX_MS
#
#   kill-drill.sh ./experiments \
#       "-scenario flash-crowd -preset large -shards 2" \
#       "-checkpoint-every 20000" 0.4 1 2 3
#
# The uninterrupted run's report is the reference. For each delay (seconds)
# a checkpointing run is started, killed with SIGKILL once the delay has
# passed after its first base is written, and resumed with -restore from
# the base it left; the resumed report must match the reference. Timing
# the kill from the first base means every delay exercises a restore: a
# run that ends without writing a base fails the drill, and so does one
# that leaves anything but the one run.snap beside torn files. A kill
# mid-write can leave a torn .tmp next to the base; it is reported, and
# the restore must ignore it.
#
# With -seed, the script draws COUNT delays uniformly from [MIN_MS, MAX_MS]
# milliseconds with a 31-bit linear congruential generator seeded by SEED
# (a non-negative integer) and prints the seed and the delays first, so
# rerunning with the same seed replays the same kill points.
set -euo pipefail

bin=$1
read -r -a run <<<"$2"
read -r -a ckpt <<<"$3"
shift 3

if [ "${1:-}" = "-seed" ]; then
	if [ $# -ne 5 ]; then
		echo "usage: kill-drill.sh BIN RUN CKPT -seed SEED COUNT MIN_MS MAX_MS" >&2
		exit 2
	fi
	seed=$2 count=$3 lo=$4 hi=$5
	x=$((seed % 2147483648))
	delays=()
	for ((i = 0; i < count; i++)); do
		x=$(((x * 1103515245 + 12345) % 2147483648))
		ms=$((lo + (x >> 8) % (hi - lo + 1)))
		delays+=("$(printf '%d.%03d' $((ms / 1000)) $((ms % 1000)))")
	done
	echo "kill-drill seed $seed: delays ${delays[*]}"
	set -- "${delays[@]}"
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$bin" "${run[@]}" >"$dir/plain.txt"
for delay in "$@"; do
	rm -f "$dir"/run.snap*
	"$bin" "${run[@]}" "${ckpt[@]}" -checkpoint "$dir/run.snap" >/dev/null &
	pid=$!
	while [ ! -f "$dir/run.snap" ] && kill -0 "$pid" 2>/dev/null; do
		sleep 0.01
	done
	sleep "$delay"
	if kill -9 "$pid" 2>/dev/null; then
		how="killed ${delay}s after the first base"
	else
		how="finished before the ${delay}s kill"
	fi
	wait "$pid" 2>/dev/null || true
	if [ ! -f "$dir/run.snap" ]; then
		echo "delay ${delay}s: the run ended without writing a base" >&2
		exit 1
	fi
	bases=$(find "$dir" -name 'run.snap*' ! -name '*.tmp' | wc -l)
	if [ "$bases" -ne 1 ]; then
		echo "delay ${delay}s: want the one base run.snap, found $bases checkpoint files" >&2
		exit 1
	fi
	torn=$(find "$dir" -name '*.tmp' | wc -l)
	"$bin" "${run[@]}" -restore "$dir/run.snap" >"$dir/resumed.txt"
	diff -u "$dir/plain.txt" "$dir/resumed.txt"
	echo "delay ${delay}s: $how; restored the one base ($torn torn .tmp ignored), report matches"
done
