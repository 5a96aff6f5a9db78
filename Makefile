GO ?= go

.PHONY: all build test race vet fmt-check lint ci eval bench microbench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo-invariant static-analysis suite plus the compiler-backed
# zero-alloc gate (see DESIGN.md "Static analysis"), on its own and
# uncached. Fails on any finding or stale //lint:ignore; `make test`
# runs the same test.
lint:
	$(GO) test -count=1 -run '^TestRepoInvariants$$' ./internal/lint

# The full tier-1 gate, same as the GitHub Actions workflow.
ci: fmt-check vet lint build race

# Run eval's default experiment (eval.DefaultOptions: a 2 min reference,
# then a 10 min run with a factor-3 CPU hog for 20 s every 2 min; not the
# paper's 6 h 17 m §III run) and drop the JSON report next to the repo.
eval:
	$(GO) run ./cmd/enduratrace eval -out BENCH_eval.json

# The distance ablation at matched recall (DESIGN.md "A-distance
# ablation"): both catalogue distances over an alpha axis, each cell
# gated at its own reference quantile, at CI-sized durations; the table
# sorts by recall so that equal-recall rows sit side by side. Drops the
# per-cell summary array (mean ± 95% CI over seeds) next to the repo.
ABLATION_ALPHAS = 1.2,1.5,1.75,2,2.25,2.5,3,3.5,4,5,6,7,8,10
bench:
	$(GO) run ./cmd/enduratrace sweep -q -gate-threshold auto -distances symkl,kl \
		-alphas $(ABLATION_ALPHAS) -seeds 3 -sort recall -out BENCH_sweep.json

# Microbenchmarks for the monitoring hot path: LOF scoring and fitting
# (filter-and-refine), scoring the default experiment's tripped windows
# against its learned model with the exact kernel calls per query
# (BenchmarkScoreDefaultModel), the distance row/gate kernels (with
# BenchmarkSymmetricKL26: the one-pass symkl kernel the gate and the
# refine's exact calls run, at the monitor's dimension), frame decode (per-event vs batched), windowing (the
# span cutter vs one event at a time), the monitor's per-window cost
# (ProcessWindow alone, and BenchmarkRunQuiet: Monitor.Run over quiet
# windows from memory, in ns and allocs a window — windows are lent by the
# cutter, so a quiet window allocates nothing), the alerting pipeline
# (quiet/flapping Observe fast paths, full fire→resolve emission), the
# anomaly store (the incident encoder, and the durable Append from 1, 2
# and 8 appenders with its records per fsync), the serve path's trip
# recorder into a real store (µs a trip and records per fsync), and the
# latency histogram the serve path's instruments are (per event, per run of 256, and two
# goroutines on one Pipeline; one op is 2^20 events). The before/after
# pairs live side by side (FrameDecodeNext vs FrameReaderReadBatch,
# ByTimeCut/add vs ByTimeCut/cut). These are for working on one layer; the regression gate is end to end,
# `bench -compare` over bench/run.sh reports (see bench/README.md).
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 20x -benchmem \
		./internal/lof ./internal/eval ./internal/distance ./internal/core \
		./internal/traceio ./internal/window ./internal/alert ./internal/anomalystore \
		./internal/obs ./internal/serve | tee BENCH_micro.txt
