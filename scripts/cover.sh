#!/bin/sh
# Coverage floor for the trust-boundary packages: the codecs and key
# machinery (internal/core), the primitives every key derives from
# (internal/crypto), the observability layer the post-mortems depend on
# (internal/obs), the fleet scenario harness (internal/fleet) whose
# matrix the protection claims are read off of, the pipeline model
# (internal/pisa) in which every data-plane check of the paper runs, the
# lease and WAL codecs every fenced write and recovery replays from
# (internal/statestore), the simulator whose fault taps every chaos
# verdict is produced under (internal/netsim), the switch software
# stack at whose boundaries the paper's adversary sits
# (internal/switchos), the lease fence that keeps a deposed controller
# off the wire and out of the store (internal/ha), the controller
# whose request path and key-management runner every authenticated
# exchange goes through (internal/controller), the adversary models the
# paper's attacks are run with (internal/attacker), the one scaffold
# that builds every single-switch C-DP app, picks its C-DP path and
# installs its stack adversary (internal/app), and the two-tier control
# plane whose global broker grants every cross-pod key under a fenced
# epoch (internal/hierarchy). A drop below the floor
# means new code shipped without tests in exactly the places where
# silent breakage is unacceptable.
set -eu

cd "$(dirname "$0")/.."

FLOOR="${COVER_FLOOR:-85}"
fail=0
for pkg in ./internal/core/ ./internal/crypto/ ./internal/obs/ ./internal/fleet/ ./internal/pisa/ \
    ./internal/statestore/ ./internal/netsim/ ./internal/switchos/ ./internal/ha/ \
    ./internal/controller/ ./internal/attacker/ ./internal/app/ ./internal/hierarchy/; do
    line=$(go test -cover "$pkg" | tail -1)
    echo "$line"
    pct=$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "FAIL: no coverage reported for $pkg"
        fail=1
        continue
    fi
    if [ "$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}')" != 1 ]; then
        echo "FAIL: $pkg coverage $pct% is below the $FLOOR% floor"
        fail=1
    fi
done
exit $fail
