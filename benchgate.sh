#!/usr/bin/env bash
# Live benchmark gate: an A/B comparison of the checkout under test
# against its base commit on the same host. Run it from the repository
# root:
#
#   bash benchgate.sh
#
# The base is `git merge-base HEAD origin/main`, or HEAD^ when that is
# HEAD itself or origin/main is missing; it is built in a temporary git
# worktree. The tree under test is the working tree, uncommitted changes
# included. Both run each gated workload in six alternating pairs, base
# first on odd pairs:
#
#   gen-al     event kernel and module evaluation, no RMI;
#   fault-2ip  virtual fault simulation: detection-table queries and
#              injection runs on one recycled scheduler per Run.
#
# Each workload is judged by `benchmark/run.sh compare`, which applies
# the bounds in BENCHMARK.json: 1 on a REGRESSION, 2 when the two sides
# cannot be compared. The script exits with the larger of the two
# codes. At this run size the gate resolves slowdowns larger than the
# benchmark's 20% op_ms_p10 bound, no smaller. The result records stay
# in .bench_build/benchgate/.
set -euo pipefail

pairs=6
workloads=(gen-al fault-2ip)

base=$(git merge-base HEAD origin/main 2>/dev/null || true)
if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
	base=$(git rev-parse HEAD^)
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

out="$(pwd)/.bench_build/benchgate"
mkdir -p "$out"

# run appends one record of workload $2 for one side, $1: base or head.
run() {
	echo "--> $1 $2"
	local args=(--workload "$2" --seed 7 --seconds 2 --trace 0)
	if [ "$1" = base ]; then
		(cd "$tmp/base" && bash benchmark/run.sh "${args[@]}" --out "$out/$2-base.jsonl" >/dev/null)
	else
		bash benchmark/run.sh "${args[@]}" --out "$out/$2-head.jsonl" >/dev/null
	fi
}

status=0
for w in "${workloads[@]}"; do
	rm -f "$out/$w-base.jsonl" "$out/$w-head.jsonl"
	echo "benchgate: $w, $pairs alternating pairs, base $(git rev-parse --short "$base") vs the working tree"
	for i in $(seq "$pairs"); do
		if [ $((i % 2)) = 1 ]; then
			run base "$w"
			run head "$w"
		else
			run head "$w"
			run base "$w"
		fi
	done
	rc=0
	bash benchmark/run.sh compare "$out/$w-base.jsonl" "$out/$w-head.jsonl" || rc=$?
	if [ "$rc" -gt "$status" ]; then
		status=$rc
	fi
done
exit "$status"
