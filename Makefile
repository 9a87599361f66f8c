GO ?= go

.PHONY: build test test-cpu perfbench-test vet phantom-vet staticcheck govulncheck race check cover bench bench-boot bench-report bench-search bench-smoke bench-sweep bench-telemetry serve-smoke cluster-smoke bench-serve bench-cluster fuzz-decode fuzz-request fuzz-asm search-smoke search-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep-backed packages at one and four cores: a verdict that
# depends on how many sweep jobs run at once (a cancel that only lands
# between jobs, say) fails here rather than on the next machine with a
# different core count. Then the request-coalescing tests 200 times at
# 1, 2 and 8 cores: their races (a request arriving just as an
# identical flight finishes) show up only once in a few hundred runs.
test-cpu:
	$(GO) test -cpu 1,4 . ./internal/service ./internal/sweep ./internal/search ./cmd/phantom
	$(GO) test -count=200 -cpu 1,2,8 -run 'TestCoalescing$$|TestBatchRequests$$|TestCacheCoalesceRace$$' ./internal/service

vet:
	$(GO) vet ./...

# perfbench is its own module (it replaces phantom with ../), so the
# root build and tests never see it: a root API change that breaks the
# benchmark only shows here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The repo's own invariant analyzers (internal/analysis, driven by the
# fifth binary): determinism, maporder, noperturb, ctxflow, faultalloc,
# lockcheck, errflow, goleak, hotalloc, unusedignore. Exits 1 on any
# finding, so a stray time.Now or unsorted map range fails the gate
# before a parity test has to bisect it. Every run type-checks the
# whole tree from source (about 5 s on a 2-core box); CI runs this
# target as its own job.
phantom-vet:
	$(GO) run ./cmd/phantom-vet -v ./...

# Third-party gates, pinned to the versions CI installs. Local runs
# skip them with a notice when the tool is not on PATH (the dev
# container vendors no third-party modules); CI always installs and
# runs them, so the merge gate is identical either way.
STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.4

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# The sweep engine made the race detector a meaningful gate for the
# whole repo: every multi-run experiment now fans (arch, reboot) jobs
# over a worker pool.
race:
	$(GO) test -race ./...

# The full gate: what CI runs.
check: vet phantom-vet staticcheck govulncheck build test test-cpu perfbench-test race cover search-smoke cluster-smoke

# Statement coverage with per-package floors (coverage.floors): fails
# when any package regresses below its recorded seed-state coverage.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./internal/tools/coverfloor -profile cover.out -floors coverage.floors

# Full benchmark suite, archived as a dated JSON log (one test2json event
# per line) so before/after comparisons can be committed next to the code.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json ./... > BENCH_$$(date +%Y%m%d).json

# The boot-cost numbers: one kernel boot, and the Table 3 reboot sweep
# it dominates, archived as a dated JSON log like `make bench`. The
# first line records the core count the sweep ran on.
bench-boot:
	printf '{"Action":"output","Package":"phantom","Output":"nproc: %s\\n"}\n' "$$(nproc)" \
		> BENCH_$$(date +%Y%m%d)_boot.json
	$(GO) test -run '^$$' -bench 'BenchmarkSubstrate_Boot$$|BenchmarkSweepTable3' -benchmem -json . \
		>> BENCH_$$(date +%Y%m%d)_boot.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_boot.json || true

# The headline end-to-end number and the layers under it: the whole
# report at Seed 7 and Runs 2 on the default pool (BenchmarkReport,
# perfbench's report unit), Table 1 on one machine reset per combo
# (serve's cold fill), and the BTB's lookup, index and tag benchmarks.
# Archived as a dated JSON log like `make bench-boot`, with the core
# count on its first line.
bench-report:
	printf '{"Action":"output","Package":"phantom","Output":"nproc: %s\\n"}\n' "$$(nproc)" \
		> BENCH_$$(date +%Y%m%d)_report.json
	$(GO) test -run '^$$' -bench 'BenchmarkReport$$' -benchtime=3x -benchmem -json . \
		>> BENCH_$$(date +%Y%m%d)_report.json
	$(GO) test -run '^$$' -bench 'BenchmarkTable1_(Zen2|Intel13)$$' -count=3 -benchmem -json . \
		>> BENCH_$$(date +%Y%m%d)_report.json
	$(GO) test -run '^$$' -bench . -benchmem -json ./internal/btb \
		>> BENCH_$$(date +%Y%m%d)_report.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_report.json || true

# The search-throughput number: one search.Run on zen2 (seed 3, budget
# 2000). A leg is about ten instructions, so per-program fixed work sets
# the cost: seeding each program's generator, assembling its blocks, and
# resetting and digesting the machine. Archived as a dated JSON log like
# `make bench-boot`, with the core count on its first line.
bench-search:
	printf '{"Action":"output","Package":"phantom/internal/search","Output":"nproc: %s\\n"}\n' "$$(nproc)" \
		> BENCH_$$(date +%Y%m%d)_search.json
	$(GO) test -run '^$$' -bench 'BenchmarkSearch_Zen2$$' -benchmem -json ./internal/search \
		>> BENCH_$$(date +%Y%m%d)_search.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_search.json || true

# One benchmark iteration each: a smoke test that the harness still runs,
# not a measurement. CI uses this.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The parallel-sweep headline number: Table 3 at 1 worker vs GOMAXPROCS.
bench-sweep:
	$(GO) test -run xxx -bench 'BenchmarkSweepTable3' -benchtime=3x .

# The decoder fuzzer on a fixed budget, as the scheduled CI job runs
# it. Local corpus accumulates under the build cache's fuzz directory,
# which CI persists across runs.
fuzz-decode:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 30s ./internal/isa

# The request-boundary fuzzer (decodeStrict, Normalize, Key) on the same
# budget: no body panics, a normalized request is a fixed point with a
# stable key, and every accepted count is within its ceiling.
fuzz-request:
	$(GO) test -run '^$$' -fuzz FuzzRequest -fuzztime 30s ./internal/service

# The assembler fuzzer (phantom-asm's input) on the same budget: no
# source panics Assemble, and every blob it returns decodes into valid
# instructions that end exactly at the blob's end.
fuzz-asm:
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 30s ./internal/isa

# A slice of the attack-variant search (differential fuzzing of the
# speculation model), about 0.06 s of search on a 2-core box once built:
# generates, diffs, classifies, and minimizes at a small budget, so the
# whole generate→diff→classify→minimize pipeline is exercised on every
# `make check`. The full-budget run with fixture
# accumulation is the scheduled search-nightly job.
search-smoke:
	$(GO) run ./cmd/phantom search -seed 1 -budget 500 > /dev/null

# The scheduled nightly search: the canonical budget at a date-derived
# seed (so each night explores fresh programs), landing any minimized
# findings under the accumulating findings cache. Exits non-zero if a
# finding fails to minimize or a landed fixture's replay drifts.
search-nightly:
	$(GO) run ./cmd/phantom search -seed $$(date +%Y%m%d) -budget 20000 -fixtures nightly-findings
	$(GO) test ./internal/search -run 'TestSearchCorpus' -count=1

# End-to-end gate for the serving subsystem: builds the phantom and
# phantom-server binaries, boots the server on an ephemeral port, and
# checks CLI/served byte parity, cache hits, batch, 8-way coalescing,
# and SIGTERM drain from outside the process. Pure Go — no curl/jq.
serve-smoke:
	$(GO) run ./internal/tools/servesmoke

# End-to-end gate for the distributed tier: boots a 3-node fleet with a
# static -peers ring and per-node durable stores, then checks the
# deterministic keyspace split, fan-out byte-parity with the CLI,
# single-hop proxying, dead-peer degradation with zero client errors,
# and a warm-store restart that answers without re-simulating.
cluster-smoke:
	$(GO) run ./internal/tools/servesmoke -cluster

# The serving headline numbers: cold miss vs content-addressed cache
# hit vs 8-way coalesced, archived as a dated test2json log like the
# other bench targets, with the core count on its first line. The
# acceptance bar is warm >= 50x cold.
bench-serve:
	printf '{"Action":"output","Package":"phantom/internal/service","Output":"nproc: %s\\n"}\n' "$$(nproc)" \
		> BENCH_$$(date +%Y%m%d)_serve.json
	$(GO) test -run '^$$' -bench 'BenchmarkServeTable1' -benchmem -json ./internal/service \
		>> BENCH_$$(date +%Y%m%d)_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_serve.json || true

# The distributed-tier numbers: durable-store put/get throughput and
# the cost of a warm proxy hop vs a warm local hit, archived as a dated
# test2json log like the other bench targets.
bench-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkStore(Put|Get)' -benchmem -json ./internal/store \
		> BENCH_$$(date +%Y%m%d)_cluster.json
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Local|Proxied)Warm' -benchmem -json ./internal/service \
		>> BENCH_$$(date +%Y%m%d)_cluster.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_cluster.json || true

# The telemetry no-perturbation overhead number (Table 1 with the hub
# off vs on), archived as a dated JSON log like `make bench`. Runs the
# off/on pair back-to-back five times so each pair shares machine
# conditions — -count grouping would run all off then all on, letting
# thermal/neighbor drift masquerade as overhead.
bench-telemetry:
	rm -f BENCH_$$(date +%Y%m%d)_telemetry.json
	for i in 1 2 3 4 5; do \
		$(GO) test -run '^$$' -bench 'BenchmarkTable1Telemetry' -benchmem -benchtime=5s -count=1 -json . \
			>> BENCH_$$(date +%Y%m%d)_telemetry.json; \
	done
	@grep -o '"Output":"Benchmark[^"]*' BENCH_$$(date +%Y%m%d)_telemetry.json || true
