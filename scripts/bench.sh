#!/usr/bin/env sh
# Runs the engine kernel benchmarks and rewrites BENCH_engine.json so every
# PR leaves a perf trajectory to compare against. The "baseline_commit" /
# "baseline" keys of the existing file (the pre-morsel-engine numbers cited
# by README and docs/ARCHITECTURE.md) are carried over verbatim; diff the
# "benchmarks" arrays across git history for the trajectory.
set -e
cd "$(dirname "$0")/.."

out=BENCH_engine.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Preserve the baseline blocks (everything from `"baseline_commit"` up to
# the `"benchmarks"` array: the pre-morsel-engine numbers of PR 1 and the
# pre-interned-CSR compile/load numbers of PR 2) before overwriting.
base=""
if [ -f "$out" ]; then
	base=$(awk '/^  "baseline_commit"/ { f = 1 } /^  "benchmarks": \[/ { exit } f { print }' "$out")
fi

go test -run '^$' \
	-bench 'BenchmarkKernelQ3|BenchmarkSharedPoolQ3|BenchmarkShardedScatterQ3|BenchmarkFig8SingleThread/HGMatch|BenchmarkFig11Scheduling|BenchmarkAblationDeque|BenchmarkPublicAPI|BenchmarkOnlineIngest' \
	-benchmem -count=3 -benchtime=50x . | tee "$tmp"

# The durability tax on the serving path: one 100-record ingest request
# through the full hgserve handler per op (decode, apply, journal, fsync,
# publish) across WAL sync policies, with "nowal" as the in-memory
# baseline. The robustness PR's bar: batch within 2x of nowal.
go test -run '^$' \
	-bench 'BenchmarkWALIngest' \
	-benchmem -count=3 -benchtime=50x ./internal/server | tee -a "$tmp"

# The serving ladder's handler rung: the same q3 workload through the full
# hgserve handler over loopback HTTP with Workers: 1, as /count and as
# /match (~3 MB of NDJSON rows). Gated below: the /match median must stay
# within 3x the /count median.
go test -run '^$' \
	-bench 'BenchmarkServeQ3' \
	-benchmem -count=5 -benchtime=20x . | tee -a "$tmp"

# The set-kernel ablation (array vs bitmap vs hybrid containers across
# density/k) runs at a fixed iteration count high enough for its ns-scale
# ops; it documents where the hybrid posting containers win and where the
# adaptive threshold falls back to arrays.
go test -run '^$' \
	-bench 'BenchmarkAblationSetops' \
	-benchmem -count=1 -benchtime=10000x . | tee -a "$tmp"

# The compile, load and mapped-open benches run at the default benchtime:
# their ops are microseconds-to-milliseconds, so 50 iterations would be
# too noisy to compare against the committed compile_baseline (which was
# recorded at the default benchtime too). BenchmarkMappedOpen is the
# tiered-residency bar: MmapAttach must stay >=10x under the heap loads,
# and SteadyStateHeap's heap/mapped ratio >=5x.
go test -run '^$' \
	-bench 'BenchmarkCompile$|BenchmarkLoadFile|BenchmarkMappedOpen' \
	-benchmem -count=3 . | tee -a "$tmp"

{
	printf '{\n'
	printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version)"
	printf '  "workload": "q3 kernel: SB scale 0.4, best-of-8 q3 query, ~100k embeddings",\n'
	if [ -n "$base" ]; then
		printf '%s\n' "$base"
	fi
	printf '  "benchmarks": [\n'
	grep -E '^Benchmark' "$tmp" | awk '{
		gsub(/\\/, "\\\\"); gsub(/"/, "\\\"");
		# collapse runs of whitespace so the lines diff cleanly
		gsub(/[ \t]+/, " ");
		printf "%s    \"%s\"", (NR > 1 ? ",\n" : ""), $0
	} END { print "" }'
	printf '  ]\n}\n'
} > "$out"

echo "wrote $out"

# median_ns prints the median ns/op of the benchmark lines named $1 (go
# test appends -GOMAXPROCS to the name unless it is 1).
median_ns() {
	grep -E "^$1(-[0-9]+)?[[:space:]]" "$tmp" | awk '{ print $3 }' | sort -n |
		awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'
}
count_ns=$(median_ns 'BenchmarkServeQ3/count')
match_ns=$(median_ns 'BenchmarkServeQ3/match')
if [ -z "$count_ns" ] || [ -z "$match_ns" ]; then
	echo "bench gate: BenchmarkServeQ3 results missing" >&2
	exit 1
fi
if ! awk -v m="$match_ns" -v c="$count_ns" 'BEGIN { exit !(m <= 3 * c) }'; then
	echo "bench gate: /match median ${match_ns} ns/op exceeds 3x the /count median ${count_ns} ns/op" >&2
	exit 1
fi
echo "bench gate: /match median ${match_ns} ns/op within 3x the /count median ${count_ns} ns/op"
