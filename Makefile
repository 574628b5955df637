# HPMP reproduction — convenience targets. Everything is plain `go` under
# the hood; the Makefile only groups the common flows.

GO ?= go

.PHONY: all build vet fmt-check inline-check test test-short race memo-pool smoke obs-smoke replay-smoke daemon-smoke fuzz bench bench-smoke bench-ab bench-full-ab eval eval-quick examples artifacts metrics-baseline metrics-diff clean

all: build vet fmt-check test race smoke fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when any Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# Inlining gate: the cache probe's helpers (its set index shifts by the
# constant line size), the DRAM bank mapping (it divides by the constant
# row size and bank count), the shared LRU array's lookup,
# the latency histogram's Observe (at the MMU access, the native walk,
# the HPMP check and the PMPT walk) and physical memory's sector lookup
# and its directory-page step must stay inlined into their callers; each lost inline adds a call to
# every simulated memory reference or access. So must the workload-facing
# Env.Compute (into the workloads' arrays) and the core's Compute (into
# Env.Compute), so that its lockstep peer loop costs a run without peers
# nothing. Fails naming the first call the compiler (-gcflags=-m) no
# longer inlines.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/cache ./internal/dram ./internal/assoc ./internal/phys \
		./internal/mmu ./internal/ptw ./internal/hpmp ./internal/pmpt \
		./internal/kernel ./internal/workloads 2>&1) || { echo "$$out"; exit 1; }; \
	for want in 'internal/cache/cache.go:key' 'internal/cache/cache.go:lookup' \
		'internal/cache/cache.go:(*Cache).set' 'internal/cache/cache.go:(*Cache).index' \
		'internal/dram/dram.go:(*DRAM).bankAndRow' 'internal/assoc/assoc.go:(*Array).Lookup' \
		'internal/mmu/mmu.go:stats.(*Histogram).Observe' 'internal/ptw/ptw.go:stats.(*Histogram).Observe' \
		'internal/hpmp/hpmp.go:stats.(*Histogram).Observe' 'internal/pmpt/pmpt.go:stats.(*Histogram).Observe' \
		'internal/phys/phys.go:(*Memory).leaf' 'internal/phys/phys.go:(*Memory).peek' \
		'internal/workloads/workload.go:kernel.(*Env).Compute' 'internal/kernel/env.go:cpu.(*Core).Compute'; do \
		file=$${want%%:*}; call="inlining call to $${want#*:}"; \
		echo "$$out" | awk -v f="$$file:" -v c="$$call" \
			'index($$0, f) == 1 && substr($$0, length($$0) - length(c) + 1) == c { ok = 1 } END { exit !ok }' || \
			{ echo "inline-check: $$file no longer inlines $${want#*:}"; exit 1; }; \
	done

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the whole module (the experiment runner is
# concurrent; this keeps it honest).
race:
	$(GO) test -race ./...

# Run-memo pool gate: the memo and sharedUnits tests at GOMAXPROCS 1 and 4,
# so the bounded unit pool (max(2, GOMAXPROCS) workers) is exercised at
# its floor and above it: the bound and collector start order, unit
# overlap at one CPU, cancellation of queued units, and memo-on runs
# matching memo-off ones.
memo-pool:
	$(GO) test -cpu 1,4 -run 'TestSharedUnits|TestMemo' ./internal/bench/

# End-to-end smoke: the full quick evaluation through the CLI.
smoke:
	$(GO) run ./cmd/hpmpsim -quick run all > /dev/null

# Observability smoke: one quick experiment with tracing and metrics
# export on, leaving the artifacts in obs-out/ for inspection (CI uploads
# them). The trace must parse back through cmd/hpmptrace. Then hpmptrace's
# own run mode: one traced workload (summary, CSV ring, JSONL trace), whose
# trace must summarize with -stats and pass -replay-check.
obs-smoke:
	$(GO) run ./cmd/hpmpsim -quick -progress \
		-trace obs-out/traces -trace-every 16 \
		-metrics-dir obs-out/metrics \
		run fig10 > /dev/null
	$(GO) run ./cmd/hpmptrace -read obs-out/traces/fig10.trace.jsonl > /dev/null
	mkdir -p obs-out/hpmptrace
	$(GO) run ./cmd/hpmptrace -mode hpmp -workload sha512 \
		-csv obs-out/hpmptrace/sha512.csv \
		-trace obs-out/hpmptrace/sha512.trace.jsonl > obs-out/hpmptrace/sha512.summary.txt
	$(GO) run ./cmd/hpmptrace -stats obs-out/hpmptrace/sha512.trace.jsonl
	$(GO) run ./cmd/hpmptrace -replay-check obs-out/hpmptrace/sha512.trace.jsonl

# Replay smoke: capture a tiny trace from one quick experiment, verify the
# round-trip property through cmd/hpmptrace, then replay it twice through
# cmd/hpmpsim and diff the two metric sets — a faithful, deterministic
# replay must come out byte-identical (exit 0). The same trace then replays
# under every isolation mode, on the degenerate no-cache geometry, and at a
# DRAM size that is not a power of two (192 MiB) under the permission-table
# modes; a non-zero exit from any replay means the
# machine diverged from the recording or failed to assemble. Exercises the
# whole record -> parse -> replay -> metrics -> diff pipeline end to end.
replay-smoke:
	rm -rf obs-out/replay
	$(GO) run ./cmd/hpmpsim -quick \
		-trace obs-out/replay/traces -trace-every 1 \
		run fig10 > /dev/null
	$(GO) run ./cmd/hpmptrace -replay-check obs-out/replay/traces/fig10.trace.jsonl
	$(GO) run ./cmd/hpmpsim -metrics-dir obs-out/replay/a -id fig10 \
		replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null
	$(GO) run ./cmd/hpmpsim -metrics-dir obs-out/replay/b -id fig10 \
		replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null
	$(GO) run ./cmd/hpmpsim diff obs-out/replay/a obs-out/replay/b
	for mode in none pmp pmpt hpmp; do \
		$(GO) run ./cmd/hpmpsim -mode $$mode -id fig10-$$mode \
			replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/hpmpsim -mode pmpt -l2tlb 0 -pwc 0 -pmptw-cache 0 \
		-id fig10-nocache replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null
	$(GO) run ./cmd/hpmpsim -mem 192 -mode pmpt -depth 3 -id fig10-192-depth3 \
		replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null
	$(GO) run ./cmd/hpmpsim -mem 192 -mode hpmp -id fig10-192 \
		replay obs-out/replay/traces/fig10.trace.jsonl > /dev/null

# Daemon smoke: the hermetic end-to-end test of the real hpmpsimd binary —
# boot on an ephemeral port, submit a traced quick experiment job and a
# replay job over HTTP, poll both to done, scrape /metrics, download the
# trace and verify it with `hpmptrace -replay-check`, then SIGTERM and
# require a clean drain (exit 0). See cmd/hpmpsimd/smoke_test.go.
daemon-smoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/hpmpsimd

# Short fuzz pass over the register-format round trips, the decoded PMP
# entries against the per-check decode, the PMPTW walker-vs-oracle
# cross-check, the leaf-table-at-a-time table builder
# against its page-by-page reference, the trace reader, the shared LRU
# array against its reference scan, the kernel's process lifecycle
# against its value-and-pool model, the sectored physical memory
# against a flat byte slice and the daemon's strict job decoder (every
# body it accepts must validate; go test -fuzz takes one target at a time).
# The weekly fuzz workflow overrides FUZZTIME for a longer soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/pmp -run '^$$' -fuzz FuzzPMPEncodeDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hpmp -run '^$$' -fuzz FuzzPMPProgram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pmpt -run '^$$' -fuzz FuzzPMPTWalk -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pmpt -run '^$$' -fuzz FuzzSetRangePermPaged -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/assoc -run '^$$' -fuzz FuzzCache -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernel -run '^$$' -fuzz FuzzProcessLifecycle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/phys -run '^$$' -fuzz FuzzMemory -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzJobRequest -fuzztime $(FUZZTIME)

# Refresh the committed cross-commit metrics baseline (quick sizes, JSON
# only — the Prometheus text is derived output). Run this when an
# intentional behaviour change shifts counters or latency histograms, and
# commit the result together with the change; TestMetricsMatchCommittedBaseline
# and the CI metrics-diff job gate against it.
METRICS_BASELINE := internal/integration/testdata/metrics_baseline
metrics-baseline:
	rm -rf $(METRICS_BASELINE)
	$(GO) run ./cmd/hpmpsim -quick -metrics-dir $(METRICS_BASELINE) run all > /dev/null
	rm -f $(METRICS_BASELINE)/*.prom

# Diff a fresh quick run against the committed baseline, like CI does.
# WALL_TOL: wall-time rows fail the gate beyond this relative drift, and
# only when the run is also more than 50 ms slower (a fixed slack in
# obs.DiffMetrics: table4's 38 µs baseline reads 1 ms under load, 26x).
# Measured across 5 quick `run all` passes on one host, per-experiment wall
# spread reaches ~15x on millisecond-scale experiments (scheduler noise
# dominates; see EXPERIMENTS.md), so 20 is the tightest bound that does not
# flake — it exists to catch order-of-magnitude blowups, not small drift.
WALL_TOL := 20
metrics-diff:
	rm -rf obs-out/metrics-current
	$(GO) run ./cmd/hpmpsim -quick -metrics-dir obs-out/metrics-current run all > /dev/null
	$(GO) run ./cmd/hpmpsim -diff-json obs-out/metrics-diff.json -wall-tol $(WALL_TOL) \
		diff $(METRICS_BASELINE) obs-out/metrics-current

# One testing.B target per paper table/figure (quick sizes).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Every root benchmark run once (about 2 s), so a benchmark that no longer
# runs fails CI rather than the next measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Interleaved A/B of the end-to-end benchmark (cmd/hpmpbench) against a base
# revision: builds hpmpbench at BASE, exported with git archive, and at
# the working tree into .bench_build/, then runs `compare` over 10 pairs of
# 20 s runs per workload, alternating which side runs first. That is about
# 25 minutes; keep the machine otherwise idle. Exit 1 means a metric
# regressed or the head had more incorrect runs. Usage:
#   make bench-ab BASE=HEAD~1
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; }
	$(call base-build,cd cmd/hpmpbench && $(GO) build -o ../../../base.bin .)
	cd cmd/hpmpbench && $(GO) build -o ../../.bench_build/head.bin .
	.bench_build/head.bin compare -base .bench_build/base.bin -head .bench_build/head.bin -pairs 10 -seconds 20

# Interleaved A/B of the full-size evaluation's wall time against a base
# revision: builds hpmpsim at BASE (same temporary export as bench-ab) and
# at the working tree, runs `hpmpsim -parallel 1 run all` PAIRS times per
# side, alternating which side runs first, and prints every wall time, each
# side's median and quartiles (as hpmpbench compare computes them) and the
# pairs the head won. It calls the head faster or slower only as `compare`
# would call a gain: one side wins at least 9 in 10 pairs and the medians
# differ by more than the base's interquartile range; otherwise it prints
# "within noise". About 10 s per pair on a 2-vCPU host; keep the machine
# otherwise idle. It reports whether the two sides' stdout matched,
# and it proves they simulate the same machines at full size, which the
# committed metrics baseline (quick size) does not cover: every run writes
# -metrics-dir (each side keeps its last run's), and `hpmpsim diff` between
# the two sides fails the target on any status, counter, derived-rate or
# histogram difference (wall time is reported, never fatal). Usage:
#   make bench-full-ab BASE=HEAD~1 [PAIRS=3]
PAIRS ?= 3
bench-full-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-full-ab BASE=<rev> [PAIRS=n]" >&2; exit 2; }
	@test "$(PAIRS)" -ge 3 || { echo "bench-full-ab: PAIRS must be at least 3" >&2; exit 2; }
	$(call base-build,$(GO) build -o ../hpmpsim-base ./cmd/hpmpsim)
	$(GO) build -o .bench_build/hpmpsim-head ./cmd/hpmpsim
	@rm -rf .bench_build/full-walls.txt .bench_build/full-metrics-base .bench_build/full-metrics-head; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="base head"; [ $$((i % 2)) -eq 0 ] && order="head base"; \
		for side in $$order; do \
			rm -rf .bench_build/full-metrics-$$side; \
			start=$$(date +%s.%N); \
			.bench_build/hpmpsim-$$side -parallel 1 -metrics-dir .bench_build/full-metrics-$$side run all > .bench_build/full-$$side.out 2>/dev/null || exit 1; \
			wall=$$(awk -v s=$$start -v e=$$(date +%s.%N) 'BEGIN { printf "%.2f", e - s }'); \
			echo "pair $$i $$side $$wall s"; echo "$$i $$side $$wall" >> .bench_build/full-walls.txt; \
		done; \
	done; \
	awk 'function quart(s, n, i,  m, j, d) { m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; else if (j > n - 1) j = n - 1; \
			d = i * m - j * 4; return (s[j] * (4 - d) + s[j + 1] * d) / 4 } \
		{ w[$$2, $$1] = $$3; if ($$1 > np) np = $$1 } \
		END { for (k = 0; k < 2; k++) { side = k ? "head" : "base"; \
				for (p = 1; p <= np; p++) { v = w[side, p]; for (j = p - 1; j > 0 && s[j] > v; j--) s[j + 1] = s[j]; s[j + 1] = v } \
				q1[side] = quart(s, np, 1); q2[side] = quart(s, np, 2); q3[side] = quart(s, np, 3); \
				printf "%s median %.2f s [q1 %.2f, q3 %.2f] over %d runs\n", side, q2[side], q1[side], q3[side], np } \
			for (p = 1; p <= np; p++) { if (w["head", p] < w["base", p]) won++; if (w["base", p] < w["head", p]) lost++ } \
			d = q2["head"] - q2["base"]; iqr = q3["base"] - q1["base"]; verdict = "within noise"; \
			if (won * 10 >= 9 * np && -d > iqr) verdict = "head faster"; \
			if (lost * 10 >= 9 * np && d > iqr) verdict = "head slower"; \
			printf "head faster in %d/%d pairs, slower in %d; median %+.2f s against a base interquartile range of %.2f s: %s\n", won, np, lost, d, iqr, verdict }' \
		.bench_build/full-walls.txt; \
	if cmp -s .bench_build/full-base.out .bench_build/full-head.out; then echo "stdout: identical"; else echo "stdout: differs"; fi; \
	.bench_build/hpmpsim-head diff .bench_build/full-metrics-base .bench_build/full-metrics-head > .bench_build/full-metrics-diff.txt; \
	status=$$?; head -1 .bench_build/full-metrics-diff.txt; \
	[ $$status -eq 0 ] || { cat .bench_build/full-metrics-diff.txt; exit 1; }

# base-build exports BASE's committed tree into a temporary directory with
# git archive, runs $(1) at its root, and removes the directory again
# (bench-ab, bench-full-ab).
define base-build
	rm -rf .bench_build/base-src
	mkdir -p .bench_build/base-src
	git archive $(BASE) | tar -x -C .bench_build/base-src
	cd .bench_build/base-src && $(1)
	rm -rf .bench_build/base-src
endef

# The full evaluation: every table and figure at full size.
eval:
	$(GO) run ./cmd/hpmpsim run all

eval-quick:
	$(GO) run ./cmd/hpmpsim -quick run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/serverless
	$(GO) run ./examples/redis
	$(GO) run ./examples/virtualization
	$(GO) run ./examples/attestation

# The artifacts the exercise asks for.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
	rm -rf obs-out
