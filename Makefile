# Developer entry points. `make check` is the full gate the CI and the
# acceptance criteria run: build, vet, and the test suite with the race
# detector on.

GO ?= go

# Every gate (build, vet, race, the chaos suites, stress, cover,
# fuzz-smoke, bench-smoke) is one row of the table in scripts/check.sh;
# `make <gate>` runs that row and `make check` runs them all.
GATES := $(shell ./scripts/check.sh -l)

.PHONY: check $(GATES) test bench bench-save fleet-matrix bench-hierarchy

check:
	./scripts/check.sh

$(GATES):
	./scripts/check.sh $@

test:
	$(GO) test ./...

# Full evaluation benchmarks (Table I/II/III, Fig. 16-21, the ablation;
# Table I runs its 15 fleet cells). Slow; the test targets above skip them
# via -short where applicable.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifact: micro-bench ns/op, B/op, allocs/op
# plus the serial-vs-pipelined Fig. 19 sweep, checked in as BENCH_<date>.json.
bench-save:
	$(GO) run ./cmd/p4auth-bench -save BENCH_$$(date -u +%Y-%m-%d).json

# Fleet survival matrix artifact: the app × fault × protection matrix at
# k=4 plus k=8 fat-tree / RouteScout wall-clock throughput, checked in
# as BENCH_<date>-matrix.json.
fleet-matrix:
	$(GO) run ./cmd/p4auth-bench -matrix BENCH_$$(date -u +%Y-%m-%d)-matrix.json

# Hierarchical control-plane artifact: cross-pod key-establishment
# latency and aggregate pod write throughput at pods=4/8 with and
# without WAN latency injection, checked in as BENCH_<date>-hierarchy.json.
bench-hierarchy:
	$(GO) run ./cmd/p4auth-bench -hierarchy BENCH_$$(date -u +%Y-%m-%d)-hierarchy.json
