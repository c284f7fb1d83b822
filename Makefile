GO ?= go

.PHONY: build vet test race race-equality smoke-16x16 smoke-32x32 smoke-64x64 bench-json bench-smoke bench-layers fuzz-smoke obs-smoke scenario-smoke cover ci

build:
	$(GO) build ./...

# go vet, then gofmt: vet fails, printing the files, when any tracked
# .go file is not gofmt-formatted. gofmt comes from the same toolchain
# as $(GO), so the two never disagree on formatting. Needs a git checkout.
# afcbench is a separate module (replace afcnet => ../) that nothing else
# here compiles, so vet runs there too: an internal API change that
# breaks the benchmark fails here, not in a benchmark run. (go build
# would leave an afcbench binary in that directory; vet writes nothing.)
vet:
	$(GO) vet ./...
	cd afcbench && $(GO) vet ./...
	@files=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt: these files need formatting:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The bit-for-bit equivalence gates under the race detector, each
# checking its slice of the digests recorded in
# internal/experiments/testdata/golden.json, with the invariant checker
# attached: TestGoldenDigests pins the open/ keys (3x3 open-loop cells,
# fresh, pooled reuse at 1 and 8 workers, and reuse after an abandoned
# cell), the seed-1 and seed-5 scenario/ keys and the fig2a/short/
# closed-loop keys, and its unchecked path runs the fresh open-loop cells
# and the serial scenario cells again without the checker, which ticks
# every cycle, so only there does the kernel coast; TestShardedEqualsSerial
# pins the 8x8/ keys (serial and 2, 3 and 8 shards);
# TestShardCountInvarianceFig2a pins the fig2a/quick/ keys (serial and 2
# and 3 shards). The sharded slices are the ones the race detector bites
# hardest: any unsynchronized cross-shard access in the barrier is a hard
# failure there, not a flaky diff. `race` already covers them via ./...;
# this target exists so CI names them explicitly and a -short or cached
# run cannot skip them. The explicit -timeout overrides go test's 600s
# default: on a single-core machine the 8x8 sharded slice alone can
# exceed it under the race detector.
race-equality:
	$(GO) test -race -count=1 -timeout 45m -run='^(TestGoldenDigests|TestShardedEqualsSerial|TestShardCountInvarianceFig2a)$$' ./internal/experiments

# The large-radix smoke cells: a short 16x16 AFC run with the invariant
# checker attached, serial and through the sharded tick at 8 shards (see
# TestLargeMesh16x16Smoke / TestLargeMesh16x16ShardedSmoke), so the
# regime the slab layout and the sharded barrier target is exercised
# on every CI run even though the paper's own experiments stop at 3x3.
smoke-16x16:
	$(GO) test -short -count=1 -run='^TestLargeMesh16x16(Sharded)?Smoke$$' ./internal/network

# The 1024-node record: the 32x32 cell serial and through the sharded
# tick at 8 shards, checker attached (see TestLargeMesh32x32Smoke).
# On demand rather than in `ci` — the cell is ~50x the 16x16 smoke.
smoke-32x32:
	$(GO) test -count=1 -run='^TestLargeMesh32x32(Sharded)?Smoke$$' ./internal/network

# The kilonode record: the 64x64 cell (4096 nodes — the slab-resident
# router state's target regime) serial and through the sharded tick at
# 8 shards, checker attached (see TestLargeMesh64x64Smoke). Short cycle
# count keeps it cheap enough for `ci`.
smoke-64x64:
	$(GO) test -short -count=1 -run='^TestLargeMesh64x64(Sharded)?Smoke$$' ./internal/network

# Record the next free BENCH_<n>.json: every value/unit pair `go test
# -bench -benchmem` prints for ^BenchmarkKernelStep (root package) and
# ^BenchmarkTick (each router datapath: internal/core, internal/vcrouter
# and internal/deflect), with the Go version, CPU model, NumCPU and
# GOMAXPROCS of the host. The checked-in snapshots are the repo's
# perf history; no gate reads them. LABEL is recorded with the numbers.
LABEL ?=
bench-json:
	$(GO) run ./cmd/benchjson -label '$(LABEL)'

# The paired performance gate: BASE's root test binary (from git
# archive) against the working tree's, on this host, in 10 alternating
# rounds of BenchmarkKernelStep and BenchmarkKernelStep16x16 at fixed
# iteration counts. It fails when the tree loses at least 8 rounds of a
# cell with its median above BASE's upper quartile, or when a cell's
# allocs/op rises; when BenchmarkFig2aLowLoadPerformance at one CPU
# (which also runs the closed-loop harness end to end) allocates more
# than 10% above BASE; and, with GOMAXPROCS >= 2, when the tree's
# BenchmarkKernelStep32x32Sharded is not faster than
# BenchmarkKernelStep32x32. Takes under a minute on a 2-CPU VM. In a
# clean checkout BASE=HEAD compares the tree with itself; pass
# BASE=HEAD~1 (or the branch point) to gate the last commit.
#
# It replaces a gate that compared one run against the newest BENCH
# file, recorded on another host. Its checks now live here: the step
# ns/op bound and the low-load cell's heap bound (paired against BASE),
# the one-iteration Fig2a pass (the heap check runs it), and the live
# sharded speedup (the 32x32 check). Its steady-state allocation check
# of the 3x3, low-load, 16x16 and 16x16-sharded kernel steps is
# bench-layers'. Its wall-clock warnings and its check of the sharded
# pairs recorded in a BENCH file, which measured nothing, are gone.
BASE ?= HEAD
bench-smoke:
	$(GO) run ./cmd/benchjson -base $(BASE)

# The per-layer microbenchmarks: each router datapath's Tick on a canned
# input that stays saturated — the AFC router in backpressured mode
# (BenchmarkTickBuffered) and backpressureless mode (BenchmarkTickBless),
# the baseline VC router (BenchmarkTickBackpressured), the deflection
# router (BenchmarkTickBackpressureless) and the drop router
# (BenchmarkTickBackpressurelessDrop) — and NI pops through a standing
# source backlog (BenchmarkNIPop); then the serial kernel step
# of every router kind at 3x3 and 16x16 (BenchmarkKernelStepKinds), the
# AFC step at near-idle load (BenchmarkKernelStepLowLoad), the 16x16 AFC
# step through the sharded tick (BenchmarkKernelStep16x16Sharded) and
# the 3x3 AFC step with the invariant checker attached
# (BenchmarkKernelStepChecked), each at a fixed iteration count. ns/op
# is printed for the record; any allocs/op in any cell fails the target.
# That includes the 16x16 backpressureless-drop kernel step, which at
# rate 0.08 is past the drop kind's saturation (it accepts about 0.05),
# so its source backlog grows for as long as it runs: a backlogged
# packet is a descriptor in its NI's ring, packetized only at the head
# of its queue, so the growth is an occasional ring doubling (B/op), not
# an arena block per queued packet. This is the repo's steady-state
# allocation gate, bench-smoke's included.
bench-layers:
	@out=$$($(GO) test -run='^$$' -bench='^Benchmark(Tick|NIPop)' -benchmem -benchtime=200000x ./internal/core ./internal/vcrouter ./internal/deflect ./internal/ni) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '$(ALLOC_GATE)'
	@out=$$($(GO) test -run='^$$' -bench='^BenchmarkKernelStep(Kinds|LowLoad|16x16Sharded|Checked)$$' -benchmem -benchtime=20000x .) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '$(ALLOC_GATE)'

# ALLOC_GATE is the awk program bench-layers runs over `go test -bench
# -benchmem` output: it fails when no benchmark ran or when any
# benchmark reports non-zero allocs/op.
ALLOC_GATE = /^Benchmark/ { n++; for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) != 0) { bad = 1; print "FAIL: allocates in steady state: " $$1 } } \
	END { if (n == 0) { print "FAIL: no benchmark ran"; exit 1 } exit bad }

# Short run of every native fuzz target (~10s each). The corpora under
# testdata/fuzz (checked in as they grow) replay first, so previously
# found inputs regress loudly.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzKindJSON$$' -fuzztime=10s ./internal/network
	$(GO) test -run='^$$' -fuzz='^FuzzConfig$$' -fuzztime=10s ./internal/check
	$(GO) test -run='^$$' -fuzz='^FuzzNetworkStep$$' -fuzztime=10s ./internal/check
	$(GO) test -run='^$$' -fuzz='^FuzzArenaHandles$$' -fuzztime=10s ./internal/flit
	$(GO) test -run='^$$' -fuzz='^FuzzShardBarrier$$' -fuzztime=10s ./internal/network
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/scenario

# One tiny run of each command with the observability flags on: each
# must succeed, leave a heap profile behind, and produce a manifest that
# names the command and counts its executed cells. The gossip artifact
# is a single run outside the worker pool, so figures records no cells.
obs-smoke:
	$(GO) run ./cmd/sweep -kinds afc -min 0.1 -max 0.1 -seeds 1 \
		-warmup 200 -measure 400 -progress \
		-manifest obs-manifest.json -memprofile obs-mem.pprof > /dev/null
	@grep -q '"command": "sweep"' obs-manifest.json
	@grep -q '"cellsTotal": 1' obs-manifest.json
	@grep -q '"cellsDone": 1' obs-manifest.json
	@test -s obs-mem.pprof
	@rm -f obs-manifest.json obs-mem.pprof
	$(GO) run ./cmd/afcsim -bench water -kind afc -warmup 50 -tx 100 -progress \
		-manifest obs-manifest.json -memprofile obs-mem.pprof > /dev/null
	@grep -q '"command": "afcsim"' obs-manifest.json
	@grep -q '"cellsDone": 1' obs-manifest.json
	@test -s obs-mem.pprof
	@rm -f obs-manifest.json obs-mem.pprof
	$(GO) run ./cmd/figures -quick -fig gossip -progress \
		-manifest obs-manifest.json -memprofile obs-mem.pprof > /dev/null
	@grep -q '"command": "figures"' obs-manifest.json
	@grep -q '"cellsDone": 0' obs-manifest.json
	@test -s obs-mem.pprof
	@rm -f obs-manifest.json obs-mem.pprof
	@echo "obs smoke ok"

# The scenario-layer gates under the race detector: the determinism
# test TestScenarioEqualsSerial (the same spec across experiment
# parallelism and shard counts, checker attached — deflective and
# buffered kinds with a ramp, burst, hotspot move, dead link, dead
# router and a duty-cycled throttle — hashes to the seed-1 and seed-2
# scenario/ keys of internal/experiments/testdata/golden.json) plus the
# mid-run dead-link fault test (deflective kinds reroute, buffered kinds
# degrade gracefully, conservation holds) plus the 16x16 scenario x
# shards x faults gate (dead links, a dead router and a throttle under
# -shards 8, bit-identical to serial).
scenario-smoke:
	$(GO) test -race -count=1 -timeout 45m -run='^(TestScenarioEqualsSerial|TestScenarioFaultCompletion|TestScenarioFaultShards16x16)$$' ./internal/experiments

# Whole-repo statement coverage, compared against the checked-in
# baseline (coverage-baseline.txt) with half a point of slack so
# refactors can't silently shed tests.
cover:
	$(GO) test -short -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	base=$$(cat coverage-baseline.txt); \
	awk -v t="$$total" -v b="$$base" 'BEGIN { if (t + 0.5 < b) { printf "coverage regressed: %.1f%% < baseline %.1f%%\n", t, b; exit 1 } else { printf "coverage ok: %.1f%% (baseline %.1f%%)\n", t, b } }'

ci: build vet race race-equality smoke-16x16 smoke-64x64 bench-smoke bench-layers fuzz-smoke obs-smoke scenario-smoke cover
