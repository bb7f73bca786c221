GO ?= go

# Packages whose concurrent hot paths must stay race-clean. Since the
# virtual-clock migration this includes the full functional stack:
# fabric/core/reliability run their lossy scenarios as deterministic
# discrete-event simulations instead of racy-by-design timer goroutines.
# netem (queues/topologies) and collective (clocked ring/tree
# harnesses) joined with the multi-datacenter emulation; collective
# runs -short to skip its single-threaded Monte Carlo model sweeps,
# and its real-clock smokes skip themselves under the race detector
# (retransmit DMA vs staging reads is the documented motivating
# hazard — the lossy coverage runs on the virtual harness).
RACE_PKGS = ./internal/bitmap/ ./internal/gf256/ ./internal/ec/ \
	./internal/clock/ ./internal/fabric/ ./internal/core/ ./internal/reliability/ \
	./internal/netem/ ./internal/simnet/ ./internal/session/ ./internal/chaos/ \
	./internal/nicsim/ ./internal/telemetry/ ./internal/stats/ ./internal/dpa/ ./cmd/sdr-perftest/

.PHONY: ci vet vet-arm64 build test race bench bench-kernels bench-json bench-par smoke-flows smoke-adaptive smoke-perftest smoke-trace smoke-chaos

ci: vet vet-arm64 build race test smoke-perftest smoke-trace smoke-chaos

# On amd64, vet's asmdecl pass checks the gf256 assembly against its Go
# declarations. The arm64 pass keeps the pure-Go fallback that every
# other architecture runs compiling and vetted.
vet:
	$(GO) vet ./...

vet-arm64:
	GOARCH=arm64 $(GO) vet ./internal/gf256/ ./internal/ec/ && GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

# experiments runs -short under race so the multi-lane sweep path
# (parallel virtual cells + GOMAXPROCS determinism) is race-checked
# without paying for the single-threaded model sweeps.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short ./internal/protosim/ ./internal/collective/ ./internal/experiments/

test:
	$(GO) test ./...

# Kernel micro-benchmarks: gf256 kernels and the fused dot product, EC
# serial-vs-parallel encode, bitmap polling — the hot paths tracked by
# the bench trajectory.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkXORSlice|BenchmarkMulAddSlice|BenchmarkDot' ./internal/gf256/
	$(GO) test -run xxx -bench 'Encode|Reconstruct' ./internal/ec/
	$(GO) test -run xxx -bench 'BenchmarkBitmap|BenchmarkFirstZero|BenchmarkMarkPacket' ./internal/bitmap/

# Full benchmark sweep including figure regeneration.
bench: bench-kernels
	$(GO) test -run xxx -bench . -benchtime 0.2x .

# Machine-readable benchmark trajectory: event-engine + simulator
# micro-benchmarks, the DES-backed figure benchmarks, and the WAN
# functional-stack wall-clock pair (virtual vs real clock), emitted as
# op -> {ns/op, allocs/op, ...} JSON so per-PR performance is diffable.
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkSimnet' -benchmem ./internal/simnet/ > bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkCampaign|BenchmarkDES' -benchmem ./internal/protosim/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkDESValidation|BenchmarkGBNBaseline' -benchtime 2x -benchmem . >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkVirtualHandoff|BenchmarkVirtualSleepChurn|BenchmarkRealWaitNotify' -benchmem ./internal/clock/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkSessionChurn' -benchmem ./internal/session/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkWANVirtual|BenchmarkWANReal' -benchtime 3x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkWANFunctionalSweep|BenchmarkMultiDCSweep|BenchmarkAdaptiveSweep' -benchtime 3x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkNetemQueue' -benchmem ./internal/netem/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkFunctionalAllreduceVirtual' -benchtime 5x -benchmem ./internal/collective/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkMultiDCVirtual|BenchmarkMultiDCReal' -benchtime 2x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkPerftestSR|BenchmarkPerftestEC|BenchmarkPerftestAdaptive' -benchtime 5x -benchmem ./cmd/sdr-perftest/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkTelemetryProbe|BenchmarkTelemetryDepthFold' -benchmem ./internal/telemetry/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkChaosScenario' -benchtime 3x -benchmem ./internal/chaos/ >> bench-json.tmp
	$(GO) run ./cmd/benchjson < bench-json.tmp > BENCH_protosim.json
	rm -f bench-json.tmp

# Serial-vs-parallel sweep scaling: runs the WAN functional sweep with
# one worker and with one worker per core, and prints the speedup.
# On a single-core host the two configurations execute the same
# schedule and the ratio is ≈1.0 — the target documents scaling, it
# does not gate on it.
bench-par:
	@$(GO) test -run xxx -bench 'BenchmarkWANFunctionalSweep(Serial|Parallel)$$' -benchtime 3x ./internal/experiments/ | tee bench-par.tmp
	@awk '/BenchmarkWANFunctionalSweepSerial/   {s=$$3} \
	      /BenchmarkWANFunctionalSweepParallel/ {p=$$3} \
	      END { if (s && p) printf "sweep serial/parallel speedup: %.2fx (serial %.0f ns/op, parallel %.0f ns/op)\n", s/p, s, p }' bench-par.tmp
	@rm -f bench-par.tmp

# Thousand-flow smoke: the elastic session fabric must sustain 1000
# sequential + 100 concurrent dumbbell flows from its deployment pool.
smoke-flows:
	$(GO) test -count=1 -run 'TestDumbbellThousandSequentialFlows|TestDumbbellHundredConcurrentFlows' -v ./internal/netem/

# Adaptive-reliability smoke: dynamic faults land mid-transfer (flap +
# reroute with data in flight), the mid-flight adaptor switches rungs
# deterministically, and the adaptive figure strictly beats every
# static scheme through the regime sweep.
smoke-adaptive:
	$(GO) test -count=1 -run 'TestFlapRerouteInFlightTransfer' -v ./internal/netem/
	$(GO) test -count=1 -run 'TestAdaptiveSwitchoverDeterministic' -v ./internal/reliability/
	$(GO) test -count=1 -run 'TestAdaptiveBeatsStaticSchemes|TestAdaptiveFunctionalSweepParallelMatchesSerial' -v ./internal/experiments/

# Line-rate perftest smoke: every scheme (plus the contended-bottleneck
# mode) moves verified bytes through the full stack, repeated runs are
# byte-identical per seed, and the steady-state data path stays inside
# its allocation budget.
smoke-perftest:
	$(GO) test -count=1 -run 'TestPerftestSchemes|TestPerftestDeterminism|TestPerftestSteadyStateAllocs' -v ./cmd/sdr-perftest/

# Flight-recorder smoke: the adaptive figure's trace is Perfetto-loadable
# JSON carrying ladder switches, the flap and the tail-drops; trace and
# figure bytes are identical across worker counts and GOMAXPROCS; a
# traced perftest emits per-transfer events and completion quantiles;
# the disabled probe path allocates nothing.
smoke-trace:
	$(GO) test -count=1 -run 'TestAdaptiveTraceSmoke|TestAdaptiveTraceByteIdentical' -v ./internal/experiments/
	$(GO) test -count=1 -run 'TestPerftestTraceAndQuantiles' -v ./cmd/sdr-perftest/
	$(GO) test -count=1 -run 'TestDisabledProbeAllocs|TestWriteChromeParses' -v ./internal/telemetry/

# Chaos smoke: 50 fixed-seed fault programs across all five schemes —
# every transfer completes byte-verified or fails with a typed error
# inside the bound, no virtual-clock deadlocks, no poisoned pool
# leases; the report is byte-identical across sweep-worker counts.
smoke-chaos:
	$(GO) test -count=1 -run 'TestChaosSmoke|TestChaosWorkerDeterminism' -v ./internal/chaos/
