#!/bin/sh
# Verification gates. This file holds the one gate table (name + command);
# the Makefile's gate targets and `make check` call back into it.
#
#   scripts/check.sh          full gate: the serial prefix in order, then
#                             every concurrent gate at once
#   scripts/check.sh GATE...  just the named gates, in the order given
#   scripts/check.sh -l       list the gate names
#
# The serial prefix (build, vet, race, reach) establishes a compiling,
# race-clean tree and measures it while nothing else runs; everything
# after it only re-runs subsets with fixed seeds or fresh interleavings,
# so those gates share no state and run in parallel. Each concurrent
# gate's output is line-prefixed with its name; the script fails if any
# gate fails, after letting all of them finish.
set -eu

cd "$(dirname "$0")/.."

# Rows are "<phase> <name> <command>"; phase s = serial prefix,
# c = concurrent. -count=1 defeats the test cache so the seeded
# invariants run on every gate.
table() {
    sed -e '/^#/d' -e '/^$/d' <<'EOF'
s build go build ./...
s vet go vet ./...
# Every Go file gofmt-clean; the unformatted ones are listed.
s gofmt ! gofmt -l . | grep .
s race go test -race ./...

# Product reach: every cmd/ and examples/ main, every p4auth-inspect
# reference run and one smoke round of each benchmark workload, built
# with coverage; the share of linked statements none of them reaches
# must stay at or below the ceiling in scripts/reach.sh, and every main
# must be among the runs. It runs alone: a smoke round lasts 100 ms, and
# on a loaded machine it runs too few operations to reach count-bound
# paths (the controller's alert ring wraps after 1024 alerts).
s reach ./scripts/reach.sh

# Three seeded harnesses over the chaos kernel, fixed seeds: crash and
# recovery of one controller (kills and switch crashes mid-rollover,
# mid-register-write, mid-port-key-init), the self-healing DP-DP fabric
# (flaps, partitions, one-sided rollovers), and one failover harness for
# the lease-fenced controller group at N=2 (the active/standby pair), 3
# and 5 (rolling kills, split-brain, store outages, acquisition races);
# its N=2 runs are the TestHA* tests, its N>=3 runs the TestGroup* ones.
# Every run must pass every kernel invariant and replay bit-identically;
# one table of pinned runs of all four harnesses, the hierarchy's
# included, must reproduce the hashes in testdata/trace_goldens.txt; each
# invariant is shown to fail on the breach it exists to catch; and an
# unknown scenario or victim is an error.
c chaos go test -race -count=1 -run 'Test(Chaos|Fabric|HA|Group)(Short|Determinism)|TestTraceGoldens|TestInvariantsBite|TestRunRejectsUnknownOptions' ./internal/netsim/chaos/

# The app x fault x protection survival matrix at k=4 with the default
# seed: zero forged operations applied in every protected cell,
# measurable corruption in every unprotected attacked cell, trace
# bit-identical to the checked-in golden, every cell's exact fields and
# RunCell trace hash pinned (testdata/cells_k4.golden; one pass over
# the cells feeds both checks), determinism reruns.
c matrix-chaos go test -race -count=1 -run 'TestMatrixChaos|TestMatrixDeterminism|TestCellsGolden' ./internal/fleet/

# The two-tier control plane (per-pod shard groups + global key broker)
# under forged/torn broker frames, WAN latency spikes, an asymmetric
# partition, and a global-tier kill + election, at 4 and 8 pods: zero
# forged operations applied, no cross-pod key without a fenced grant,
# graceful degradation on cached keys, bounded re-convergence,
# bit-identical traces per seed (clean or failing) and per commit (the
# hierarchy rows of internal/netsim/chaos/testdata/trace_goldens.txt).
# The runs go through chaos.RunHierarchy from hierarchy's external test
# package; the failing-trace replay needs the harness's internals and
# sits in the chaos package.
c hierarchy-chaos go test -race -count=1 -run 'TestHierarchyChaos|TestHierarchyDeterminism|TestHierarchyTraceGoldens|TestHierarchyFailingTraceDeterministic' ./internal/hierarchy/ ./internal/netsim/chaos/

# Concurrency stress with fresh interleavings: pipelined writers vs
# concurrent rollovers under fault taps, the sharded-switch suite, the
# data plane's batch path against concurrent driver mutation, concurrent
# netsim Send/SetDown, the HA failover stress, and a 1000-rollover soak on
# one link with a key-store rollback across the version-tag wrap.
c stress go test -race -count=1 ./internal/controller/ ./internal/pisa/ ./internal/ha/ ./internal/netsim/

# Twenty shuffled runs of the core, controller, switchos, ha and pisa
# tests; prints each failing test id with its count and the shuffle seed.
c flake ./scripts/flake.sh

# >= 85% coverage floor on the trust-boundary packages.
c cover ./scripts/cover.sh

# 10s of mutation per codec fuzz target over the checked-in seed corpora
# (FUZZTIME=30s for a longer local campaign).
c fuzz-smoke ./scripts/fuzz_smoke.sh

# The zero-allocation hot path through the real benchmark harness (an
# authenticated write and the read that follows it in cdp_serial,
# cdp_window32's 32-write batch, and kmp_rollover's local and port key
# rollovers), the four pipeline paths under it (signed write, signed
# read, 8-port probe, bad-digest reject), one fabric hop between two linked secure HULA
# switches (Sim.Step: delivery, verify, re-sign, Send), the dpdp_probes
# loop as a go test benchmark (8 keyed ports, batches of 32: the one to
# run with -cpuprofile), the three digesters, the set-up of a secure k=4
# fat tree and the bring-up of kmp_rollover's two-switch fixture, with
# allocs/op printed: a reintroduced per-packet name
# lookup or per-hop allocation shows here without the 15 s benchmark.
c bench-smoke go test -bench='BenchmarkAuthenticatedWrite|BenchmarkWriteRegisterBatch32|BenchmarkDurableWrite|BenchmarkHostileWrite|BenchmarkAuthenticatedRead|BenchmarkLocalKeyRollover|BenchmarkPortKeyRollover|BenchmarkProcessP4Auth|BenchmarkFabricHop|BenchmarkSwitchProbeBatch32|BenchmarkDigesters|BenchmarkBuildFatTree|BenchmarkBringUpRollover|BenchmarkAuditAppend' -benchtime=10x -run '^$' -short . ./internal/pisa/ ./internal/netsim/ ./internal/hula/ ./internal/crypto/ ./internal/fleet/ ./internal/obs/
EOF
}

if [ "${1:-}" = "-l" ]; then
    table | cut -d' ' -f2
    exit 0
fi

if [ $# -gt 0 ]; then
    for gate in "$@"; do
        cmd="$(table | sed -n "s/^[sc] $gate //p")"
        if [ -z "$cmd" ]; then
            echo "check.sh: unknown gate '$gate' (scripts/check.sh -l lists them)" >&2
            exit 2
        fi
        echo "== $gate: $cmd"
        eval "$cmd"
    done
    exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
table >"$tmp/table"

# Redirected loops (not pipelines) keep the background jobs in this
# shell, so the wait below sees them; the gates read nothing from the
# table on stdin.
while read -r phase name cmd; do
    if [ "$phase" = s ]; then
        echo "== $name: $cmd"
        eval "$cmd" </dev/null
    fi
done <"$tmp/table"

echo "== concurrent gates ($(sed -n 's/^c \([^ ]*\) .*/\1/p' "$tmp/table" | paste -sd' ' -))"
while read -r phase name cmd; do
    if [ "$phase" = c ]; then
        # Prefix every output line with [NAME] and record the exit status
        # in $tmp/NAME.status.
        {
            if eval "$cmd" </dev/null 2>&1; then
                echo 0 >"$tmp/$name.status"
            else
                echo 1 >"$tmp/$name.status"
            fi
        } | sed "s/^/[$name] /" &
    fi
done <"$tmp/table"

wait

failed=0
while read -r phase name cmd; do
    if [ "$phase" = c ] && [ "$(cat "$tmp/$name.status" 2>/dev/null || echo 1)" != 0 ]; then
        echo "== FAILED: $name"
        failed=1
    fi
done <"$tmp/table"
if [ "$failed" != 0 ]; then
    exit 1
fi

echo "== OK"
