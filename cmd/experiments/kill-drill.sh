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
# The restore must also load the newest complete base. The run prints
# "checkpoint ID: writing" and "checkpoint ID: committed" on standard
# error around each base's commit, and the restore prints "restore ID:
# loaded"; the restored ID must be the last one reported as committed, or
# the one being written when the kill landed (the rename may have
# completed before the process died).
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
	"$bin" "${run[@]}" "${ckpt[@]}" -checkpoint "$dir/run.snap" >/dev/null 2>"$dir/run.err" &
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
		cat "$dir/run.err" >&2
		echo "delay ${delay}s: the run ended without writing a base" >&2
		exit 1
	fi
	bases=$(find "$dir" -name 'run.snap*' ! -name '*.tmp' | wc -l)
	if [ "$bases" -ne 1 ]; then
		echo "delay ${delay}s: want the one base run.snap, found $bases checkpoint files" >&2
		exit 1
	fi
	torn=$(find "$dir" -name '*.tmp' | wc -l)
	if ! "$bin" "${run[@]}" -restore "$dir/run.snap" >"$dir/resumed.txt" 2>"$dir/restore.err"; then
		cat "$dir/restore.err" >&2
		exit 1
	fi
	diff -u "$dir/plain.txt" "$dir/resumed.txt"
	committed=$(sed -n 's/^checkpoint \([0-9a-f]*\): committed$/\1/p' "$dir/run.err" | tail -n 1)
	writing=$(sed -n 's/^checkpoint \([0-9a-f]*\): writing$/\1/p' "$dir/run.err" | tail -n 1)
	restored=$(sed -n 's/^restore \([0-9a-f]*\): loaded$/\1/p' "$dir/restore.err")
	if [ -z "$restored" ]; then
		echo "delay ${delay}s: the restore reported no base id" >&2
		exit 1
	fi
	interrupted=
	if [ "$writing" != "$committed" ]; then
		interrupted=$writing
	fi
	if [ "$restored" = "$committed" ]; then
		which="the last committed base $restored"
	elif [ "$restored" = "$interrupted" ]; then
		which="base $restored, whose commit the kill interrupted"
	else
		echo "delay ${delay}s: restored base $restored, want the last committed ${committed:-(none)} or the interrupted ${interrupted:-(none)}" >&2
		exit 1
	fi
	echo "delay ${delay}s: $how; restored $which ($torn torn .tmp ignored), report matches"
done
