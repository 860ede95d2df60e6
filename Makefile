# Convenience targets for the go-taskvine-context reproduction.

# PR numbers the bench report chain: each PR's run is written to
# BENCH_PR$(PR).json and gated against the previous PR's report.
PR ?= 10
BASELINE ?= BENCH_PR9.json

# The allocation budget: the bench run fails if Table2 allocs/op exceed
# ALLOCS_RATIO x the baseline report's. PR 7's -47% reduction is now in
# the baseline, so this is a plain regression ceiling.
ALLOCS_RATIO ?= 1.1

# The scaling matrix swept by `make bench`: dispatch throughput at each
# GOMAXPROCS x Shards combination, embedded in the bench report.
MATRIX_PROCS ?= 1,2,4
MATRIX_SHARDS ?= 1,4,8

.PHONY: all check build test race fidelity lint lint-extra bench experiments examples clean

all: check

# The pre-merge gate: vet + build, the custom analyzer suite, the plain
# suite, the policy-core fidelity gate, the full suite under the race
# detector (the chaos tests exercise the manager's failure paths
# concurrently, so -race is load-bearing here), and a one-iteration
# dispatch-throughput smoke run so the hot path cannot silently stop
# compiling or deadlock.
check: build lint test fidelity race benchsmoke

# The fidelity gate: the pure policy core's decision-order pins, the
# manager-vs-simulator differential replays, and the golden decision
# traces for the seed workloads — all under -race so view maintenance
# stays data-race-free too.
fidelity:
	go test -race ./internal/policy
	go test -race -run Differential ./internal/manager
	go test -race -run Golden ./internal/experiments

# The repo's own analyzer suite (internal/lint): policy purity, map
# determinism, lock discipline, I/O deadlines, worker layering, pool
# hygiene, and the fidelity-contract four (trace-schema stability,
# sim/manager mirror parity, stats discipline, goroutine lifecycle).
# Zero unsuppressed findings is the bar; suppressions need justified
# //vinelint: pragmas. lint-extra layers on pinned third-party
# checkers when the environment can run them (see the script).
lint:
	go run ./cmd/vinelint ./...
	./scripts/lint-extra.sh

lint-extra:
	RUN_LINT_EXTRA=force ./scripts/lint-extra.sh

# perfbench is a module of its own (the repo benchmark), so the root
# ./... patterns skip it; vetting it here catches internal API changes
# that would break the benchmark build.
build:
	go build ./...
	go vet ./...
	cd perfbench && go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# One dispatch iteration at both ends of the scaling matrix: the wire
# path must not deadlock, drop frames, or stop compiling whether the
# runtime gives it one core (coalescing via cooperative yields) or
# several (true producer/flusher parallelism). The third run pushes a
# live batch through the multi-tenant submission plane (-tenants 4)
# under the race detector, so the plane's lock discipline is gated too.
# The fourth forces the proxy-object spill tier (an owned budget far
# below one result, tiny worker caches, the shared FS stand-in) so the
# spill/promote transitions run under -race on real workers.
benchsmoke:
	GOMAXPROCS=1 go test -run '^$$' -bench DispatchThroughput -benchtime 1x .
	GOMAXPROCS=4 go test -run '^$$' -bench DispatchThroughput -benchtime 1x .
	go test -race -run DispatchTenantsSmoke -count=1 ./internal/dispatchbench
	go test -race -run RefSpillSmoke -count=1 ./taskvine

# One Go benchmark per paper table/figure (reduced scale), plus the
# manager dispatch-throughput benchmark, written to BENCH_PR$(PR).json
# and gated against the previous PR's report: the run fails if dispatch
# throughput drops below 90% of the baseline's dispatch_current or if
# Table2 allocs/op exceed ALLOCS_RATIO x the baseline's. The dispatch
# scaling matrix runs first and is embedded in the report.
bench:
	go run ./cmd/vinebench -dispatch-matrix \
		-procs $(MATRIX_PROCS) -matrix-shards $(MATRIX_SHARDS) \
		-matrix-out dispatch_matrix.json
	go test -run '^$$' -bench=. -benchmem . | go run ./cmd/benchjson \
		-o BENCH_PR$(PR).json \
		-note "dispatch benchmark: 64 in-process workers x 16 slots, no-op invocations; sim_s metrics are simulated seconds at 1/20 scale" \
		-baseline-json $(BASELINE) -min-ratio 0.9 \
		-max-allocs-ratio $(ALLOCS_RATIO) \
		-matrix-json dispatch_matrix.json

# Every table and figure at paper scale (~10 s).
experiments:
	go run ./cmd/vinebench -exp all

examples:
	go run ./examples/quickstart
	go run ./examples/distribution
	go run ./examples/autohoist
	go run ./examples/lnni
	go run ./examples/examol

clean:
	go clean ./...
