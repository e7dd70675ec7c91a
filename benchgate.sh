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
# included. Both run the gen-al workload (event kernel and module
# evaluation, no RMI) in six alternating pairs, base first on odd pairs,
# and the script exits with `benchmark/run.sh compare`, which applies
# the bounds in BENCHMARK.json: 1 on a REGRESSION, 2 when the two sides
# cannot be compared. At this run size the gate resolves gen-al
# slowdowns larger than the benchmark's 20% op_ms_p10 bound, no smaller.
# The result records stay in .bench_build/benchgate/.
set -euo pipefail

pairs=6
args=(--workload gen-al --seed 7 --seconds 2 --trace 0)

base=$(git merge-base HEAD origin/main 2>/dev/null || true)
if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
	base=$(git rev-parse HEAD^)
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

out="$(pwd)/.bench_build/benchgate"
mkdir -p "$out"
rm -f "$out/base.jsonl" "$out/head.jsonl"

# run appends one gen-al record for one side: base or head.
run() {
	echo "--> $1"
	if [ "$1" = base ]; then
		(cd "$tmp/base" && bash benchmark/run.sh "${args[@]}" --out "$out/base.jsonl" >/dev/null)
	else
		bash benchmark/run.sh "${args[@]}" --out "$out/head.jsonl" >/dev/null
	fi
}

echo "benchgate: gen-al, $pairs alternating pairs, base $(git rev-parse --short "$base") vs the working tree"
for i in $(seq "$pairs"); do
	if [ $((i % 2)) = 1 ]; then
		run base
		run head
	else
		run head
		run base
	fi
done
bash benchmark/run.sh compare "$out/base.jsonl" "$out/head.jsonl"
