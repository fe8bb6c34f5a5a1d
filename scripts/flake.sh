#!/bin/sh
# Flake gate: the packages whose tests run goroutines against each other
# (the key store, the controller, the switch stack, the HA layer and the
# pipeline) run 20 times in shuffled order, so a test that fails at some
# rate, or only after another test, shows here.
# On failure it prints each failing test id as <package>:<test> with the
# number of runs it failed and the shuffle seed that reproduces the order
# (go test -shuffle=<seed>), then the first failures' messages.
set -eu

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
status=0
go test -count=20 -shuffle=on ./internal/core/ ./internal/controller/ \
    ./internal/switchos/ ./internal/ha/ ./internal/pisa/ >"$out" 2>&1 || status=$?
grep -E '^(ok|FAIL)[[:space:]]' "$out" || true
if [ "$status" = 0 ]; then
    exit 0
fi
# Top-level failures are listed before their package's FAIL line; a
# package that failed with none (panic, timeout, build error) is named
# alone.
awk '
    /^-test.shuffle / { seed = $2 }
    /^--- FAIL: / { fails[$3]++ }
    /^(ok|FAIL)[ \t]+p4auth/ {
        n = 0
        for (t in fails) { printf "flaky: %s:%s failed %d of 20 runs (shuffle %s)\n", $2, t, fails[t], seed; n++ }
        if ($1 == "FAIL" && n == 0) printf "failed: %s with no failing test (panic, timeout or build error)\n", $2
        delete fails
    }
' "$out"
grep -A4 '^--- FAIL: ' "$out" | head -40
exit 1
