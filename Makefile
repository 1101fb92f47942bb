# Convenience entry points; see script/check.sh for the tier-1 gate.

.PHONY: check build test race vet bench conformance fuzz soak scenarios

check: ## gofmt + vet + build + race-enabled tests (tier-1 gate)
	./script/check.sh

conformance: ## analytic-oracle suite over a wider seed sweep (the short tier runs inside `make check`)
	METASCOPE_CONFORMANCE_SEEDS=$(or $(SEEDS),8) go test ./internal/conformance -count=1 -v -run 'TestOracle|TestMutationSensitivity'
	go test ./internal/conformance -count=1 -run 'TestMetamorphic|TestFault'

soak: ## minutes-long analysis-service soak under -race (the seconds-long tier runs inside `make check`); SOAK_SECONDS=300 for longer
	METASCOPE_SOAK_SECONDS=$(or $(SOAK_SECONDS),60) go test -race -count=1 -v -run 'TestServeSoak' ./internal/serve

FUZZTIME ?= 10s
fuzz: ## coverage-guided fuzzing of the trace decoders and scenario parser (seed corpora alone run in plain `go test`); FUZZTIME=5m for a long local run
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecodeV2$$' -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME)
	go test ./internal/scenario -run '^$$' -fuzz 'FuzzScenarioParse$$' -fuzztime $(FUZZTIME)
	go test ./internal/phase -run '^$$' -fuzz 'FuzzPhaseAlign$$' -fuzztime $(FUZZTIME)

scenarios: ## compile, run, and oracle-check every library scenario (the v1 subtests re-check seed 1 from its checked-in v1 archive)
	go test ./internal/conformance -count=1 -v -run 'TestKernelOracle|TestKernelTruncationFails'
	go test ./internal/scenario -count=1 -run 'TestLibraryCompiles|TestArchiveDeterminism'

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

bench: ## replay + ingestion + flight-recorder + per-phase severity benchmarks; BENCH_replay.json plus delta vs the committed baseline
	@if [ -f BENCH_replay.json ]; then cp BENCH_replay.json BENCH_replay.prev.json; fi
	go test -run '^$$' -bench 'BenchmarkParallelReplay|BenchmarkArchiveLoad|BenchmarkScalabilityAnalysis|BenchmarkServeThroughput|BenchmarkFlight|BenchmarkStreamingIngest|BenchmarkPhaseAnalysis' \
		-benchmem -json . ./internal/obs/flight > BENCH_replay.json
	@if [ -f BENCH_replay.prev.json ]; then \
		go run ./script/benchdelta -base BENCH_replay.prev.json BENCH_replay.json; \
		rm -f BENCH_replay.prev.json; \
	else \
		go run ./script/benchdelta BENCH_replay.json; \
	fi
	@echo "bench results written to BENCH_replay.json"
