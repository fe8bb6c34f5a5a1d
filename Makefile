# Developer entry points. `make check` is the full gate the CI and the
# acceptance criteria run: build, vet, and the test suite with the race
# detector on.

GO ?= go

# Every gate (build, vet, race, the chaos suites, stress, cover,
# fuzz-smoke, bench-smoke) is one row of the table in scripts/check.sh;
# `make <gate>` runs that row and `make check` runs them all.
GATES := $(shell ./scripts/check.sh -l)

.PHONY: check $(GATES) test bench

check:
	./scripts/check.sh

$(GATES):
	./scripts/check.sh $@

test:
	$(GO) test ./...

# Every go test benchmark: the authenticated write/read and the local-key
# rollover at the root, and the per-package micro-benchmarks (pipeline,
# fabric hop, digesters, ...). The paper's tables and figures are not
# benchmarks: `go run ./cmd/p4auth-bench` prints them and
# internal/bench/testdata/reports.golden pins them.
bench:
	$(GO) test -bench=. -benchmem ./...
