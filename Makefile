GO ?= go

.PHONY: all build test tier1 vet staticcheck race race-cpu avp-suite columnar-suite mqo-suite fuzz-replay fuzz-smoke cover bench bench-micro bench-avp bench-cache bench-columnar bench-mqo bench-overload bench-baseline bench-compare bench-host loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck when available (CI installs it; local runs without the
# binary skip with a note instead of failing the tier).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The engine suite again under varying GOMAXPROCS: the morsel-driven
# parallel path must stay race-free and bit-deterministic however many
# cores host its workers. The second line names the batch kernels'
# differential and batch-boundary tests (filters, numeric kernels, the
# integer join table against the reference evaluator): they run inside the
# first already; named, the gate stays visible if they are ever renamed or
# filtered.
race-cpu:
	$(GO) test -race -cpu 1,2,4 ./internal/engine/
	$(GO) test -race -cpu 1,2,4 -count=1 -run 'TestFilterKernelsMatchReference|TestFilterOrderContract|TestNumericKernelsMatchReference|TestIntKeyJoinMatchesGenericTable|TestBatchBoundaries' ./internal/engine/

# The fine-grained AVP acceptance suite again, by name and race-enabled:
# the straggler chaos plan, the granularity×nodes×composer oracle sweep,
# the 100× schedule-independence repeat harness, and the crash/cache
# interaction regressions. Runs inside `make race` too; this target
# keeps the gate visible if the suite is ever renamed or filtered.
avp-suite:
	$(GO) test -race -count=1 -run 'TestStragglerChaosFineVsCoarse|TestOracleGranularitySweep|TestOracleRepeatedRunsBitIdentical|TestPartialCacheStableAcrossNodeDeath|TestMidQueryCrashRequeuesOnce|TestFinePartsResolution' ./internal/core/

# The columnar acceptance suite, by name and race-enabled: the
# engine-level heap/columnar differential sweep with segment builds
# racing parallel morsel workers, the zone-map pruning and EXPLAIN
# regressions, the segment metrics mirror, and the core-level
# bit-identity oracle across node counts, composers and interleaved
# writes. Runs inside `make race` too; this target keeps the gate
# visible if the suite is ever renamed or filtered.
columnar-suite:
	$(GO) test -race -count=1 -run 'TestColumnar|TestSegments|TestOracleColumnar' ./internal/engine/ ./internal/storage/ ./internal/core/

# The multi-query-optimization acceptance suite, by name and
# race-enabled: the engine-level shared-scan differential sweep with
# concurrent consumers and mid-scan attachers, the admission batching
# window, the shared/unshared bit-identity oracle across node counts,
# composers and interleaved writes, the concurrent sub-plan collapse
# regression, and the node-death-with-consumers chaos plan. Runs inside
# `make race` too; this target keeps the gate visible if the suite is
# ever renamed or filtered.
mqo-suite:
	$(GO) test -race -count=1 -run 'TestSharedScan|TestBatchGate|TestOracleMQO|TestMQO|TestChaosMQO|TestSubplan' ./internal/engine/ ./internal/admission/ ./internal/core/ ./internal/sql/

# Replay the checked-in fuzz corpora (testdata/fuzz/) as plain tests:
# every past crasher and interesting input must stay green.
fuzz-replay:
	$(GO) test -run Fuzz ./internal/sql/ ./internal/core/ ./internal/engine/ ./internal/proto/

# Tier-1 verification: static checks, the full suite under the race
# detector (chaos/resilience tests included), the engine suite across
# -cpu settings, the named AVP, columnar and MQO acceptance suites, and
# corpus replay.
tier1: vet staticcheck race race-cpu avp-suite columnar-suite mqo-suite fuzz-replay

# Short live fuzzing of each of the eight targets (30s apiece) — a smoke
# pass, not a campaign; run the targets individually with -fuzztime for
# longer. -run '^$' keeps the package's plain tests out of it: they are
# `make test`'s job, and a red one would stop the fuzzing before it starts.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 30s ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzParseAll -fuzztime 30s ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 30s ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzDecompose -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzPartitionRanges -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSubplanFingerprint -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzZoneMapPrune -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/proto/

# Coverage with per-package floors on the engine-critical packages. The
# floors are set a few points under current coverage so regressions
# fail loudly without blocking unrelated work.
COVER_FLOOR_CORE := 82
COVER_FLOOR_SQL  := 76

cover:
	$(GO) test -coverprofile=cover.out ./internal/core/ ./internal/sql/ ./internal/obs/
	@$(GO) tool cover -func=cover.out | tail -1
	@core=$$($(GO) test -cover ./internal/core/ | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*'); \
	sql=$$($(GO) test -cover ./internal/sql/ | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*'); \
	echo "internal/core $$core% (floor $(COVER_FLOOR_CORE)%)  internal/sql $$sql% (floor $(COVER_FLOOR_SQL)%)"; \
	awk "BEGIN{exit !($$core >= $(COVER_FLOOR_CORE))}" || { echo "FAIL: internal/core coverage $$core% below floor $(COVER_FLOOR_CORE)%"; exit 1; }; \
	awk "BEGIN{exit !($$sql >= $(COVER_FLOOR_SQL))}" || { echo "FAIL: internal/sql coverage $$sql% below floor $(COVER_FLOOR_SQL)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Microbenchmarks of the batch execution path: allocation rate per row
# (the vectorization win), time-to-first-batch (the streaming win), the
# morsel-driven degree sweep (the intra-node parallelism win), the inner
# loops of an SVP sub-query on the host clock (Q6's predicate per lineitem
# row, Q3's hash join, Q1's aggregation, the filter kernels of Q6 and Q12,
# the index range walk per entry) beside their ceiling — the same work as
# a hand-written typed loop over the stored rows, BenchmarkRowLoopRoofline
# — and the wire protocol (single-stream and 16-in-flight multiplexing
# throughput).
bench-micro:
	$(GO) test -bench 'FirstBatch|Allocs|ParallelScanAgg|PredicateQ6|HashJoinQ3|AggQ1|FilterKernel|RowLoopRoofline' -benchmem -run=^$$ ./internal/engine/
	$(GO) test -bench 'AscendRange' -benchmem -run=^$$ ./internal/storage/
	$(GO) test -bench 'WireStream|WireMux' -benchmem -run=^$$ ./internal/proto/

# Regenerate the checked-in benchmark baseline: the standard experiment
# set (the five paper figures) in the quick configuration, as JSON. CI
# diffs fresh runs against this file; refresh it deliberately when a
# change moves performance on purpose.
bench-baseline:
	$(GO) run ./cmd/apuama-bench -exp all -quick -quiet -json BENCH_5.json

# Fresh micro-benchmark snapshot (bench-micro.txt) diffed against the
# checked-in baseline (BENCH_MICRO_5.txt) with benchstat when available
# (CI installs it; local runs without the binary just print the snapshot).
bench-compare:
	$(GO) test -bench 'FirstBatch|Allocs|ParallelScanAgg' -benchmem -benchtime 20x -count 3 -run '^$$' ./internal/engine/ | tee bench-micro.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_MICRO_5.txt bench-micro.txt; \
	else \
		echo "benchstat not installed; skipping comparison (go install golang.org/x/perf/cmd/benchstat@latest)"; \
	fi

# Work-stealing straggler study: one of four nodes at 8x latency,
# swept across -avp-granularity, recording baseline vs straggler
# runtime, the slowdown ratio and the steal counts, as JSON for
# plotting and CI diffing against the figure-suite snapshot.
bench-avp:
	$(GO) run ./cmd/apuama-bench -exp steal -quick -quiet -json bench-avp.json

# Columnar segment-store study: Q1, Q6 and a Q6-shaped selective range
# scan, each timed heap vs columnar, recording rows/sec, the speedup
# ratio and the fraction of segments zone maps pruned, as JSON for
# plotting and CI diffing. The experiment itself fails if pruning never
# engages on the selective shape.
bench-columnar:
	$(GO) run ./cmd/apuama-bench -exp columnar -quick -quiet -json bench-columnar.json

# Multi-query-optimization study: 64 concurrent distinct-but-
# overlapping clients, shared vs unshared, recording queries/minute and
# physical scans per query, as JSON for plotting and CI diffing. The
# experiment itself fails unless shared goodput is at least 2x unshared
# and shared scans-per-query is under 1.0, and it bit-compares every
# answer across the two sides.
bench-mqo:
	$(GO) run ./cmd/apuama-bench -exp mqo -quick -quiet -json BENCH_10.json

# The host-clock benchmark (BENCHMARK.json, bench/) exactly as the driver
# runs it: every workload once untraced and once traced. It fails on the
# first run that exits non-zero or reports "correct":false — a change can
# pass every test above and still break the harness's own traced run
# (slow-log size, phase cover), which nothing else in CI executes.
bench-host:
	@for w in olap_isolated olap_refresh wide_fetch oltp_point; do \
		for t in 0 1; do \
			echo "== bench-host: $$w --trace $$t"; \
			out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 15 --trace $$t) || \
				{ echo "$$out" | tail -3; echo "FAIL: $$w --trace $$t exited non-zero"; exit 1; }; \
			echo "$$out" | tail -1 | grep -q '"correct":true' || \
				{ echo "$$out" | tail -3; echo "FAIL: $$w --trace $$t is not correct"; exit 1; }; \
			echo "$$out" | tail -1 | cut -c1-160; \
		done; \
	done

# Result-cache experiment: cold vs warm vs shared-concurrent latency,
# written as JSON for plotting.
bench-cache:
	$(GO) run ./cmd/apuama-bench -exp cache -quick -json bench-cache.json

# Overload/saturation study: goodput, shed rate and answered-query p95
# at 1x/2x/4x the admission gate's capacity, written as JSON for
# plotting. Goodput should hold roughly flat past 1x.
bench-overload:
	$(GO) run ./cmd/apuama-bench -exp overload -quick -json bench-overload.json

# The ruler for collapse PRs: product lines are every *.go outside
# bench/ that is not a test; test lines are every *_test.go.
loc:
	@printf 'product lines (non-test *.go outside bench/): %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"
	@printf 'test lines (*_test.go): %s\n' \
		"$$(find . -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f cover.out
