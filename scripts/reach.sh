#!/bin/sh
# Product reach: the share of linked non-test statements that no entry
# point of the product reaches. Every main under cmd/ and examples/ and
# the benchmark are built with `go build -cover -coverpkg=./...` and run
# under one GOCOVERDIR: the paper reports (p4auth-bench), the demos and
# examples, every p4auth-inspect reference run, and one smoke round of
# every benchmark workload. Test coverage cannot show whether a line earns
# its place, since tests reach almost everything; this counts only what
# the product itself runs.
#
# It prints one "unreached / total" row per file and the total share, and
# fails if
#   - the share is above CEILING (a later change may only lower it), or
#   - go list finds a main package under cmd/ or examples/ that RUNS does
#     not run.
set -eu

cd "$(dirname "$0")/.."

# Unreached share of linked statements, in percent, at most.
CEILING=26.61

# One run per line: "<package dir> [args...]". The binary runs from the
# repository root; its output is discarded, its exit status is checked.
RUNS='
./cmd/p4auth-bench
./cmd/p4auth-demo
./cmd/p4auth-keys
./cmd/p4auth-inspect
./cmd/p4auth-inspect -dump p4auth-shell
./cmd/p4auth-inspect -dump hula+p4auth
./cmd/p4auth-inspect -dump hula-baseline
./cmd/p4auth-inspect metrics
./cmd/p4auth-inspect links
./cmd/p4auth-inspect ha
./cmd/p4auth-inspect hierarchy
./examples/hula-protect
./examples/key-rollover
./examples/netcache-protect
./examples/quickstart
./examples/routescout-protect
./benchmark -smoke
'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov"

printf '%s\n' "$RUNS" | sed '/^$/d' >"$tmp/runs"
cut -d' ' -f1 "$tmp/runs" | sort -u >"$tmp/pkgs"

missing="$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/... |
    sed "s|^$PWD/|./|" | sort | comm -23 - "$tmp/pkgs")"
if [ -n "$missing" ]; then
    echo "reach.sh: main packages this script does not run:" >&2
    printf '  %s\n' $missing >&2
    exit 1
fi

while read -r pkg; do
    go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$pkg")" "$pkg"
done <"$tmp/pkgs"

while read -r pkg args; do
    # shellcheck disable=SC2086 # args are split on purpose
    if ! GOCOVERDIR="$tmp/cov" "$tmp/bin/$(basename "$pkg")" $args >/dev/null 2>&1 </dev/null; then
        echo "reach.sh: $pkg $args failed" >&2
        exit 1
    fi
done <"$tmp/runs"

go tool covdata textfmt -i="$tmp/cov" -o="$tmp/cover.txt"

# A block is listed once per binary that links it; it is reached if any
# run counted it. The first awk sums each file's blocks, the second
# prints the sorted rows and checks the total share.
awk '
NR == 1 { next }
{
    stmts[$1] = $2
    if ($3 > 0) hit[$1] = 1
}
END {
    for (b in stmts) {
        f = b
        sub(/:[^:]*$/, "", f)
        total[f] += stmts[b]
        if (!(b in hit)) unreached[f] += stmts[b]
    }
    for (f in total) print unreached[f] + 0, total[f], f
}' "$tmp/cover.txt" | LC_ALL=C sort -k3 | awk -v ceiling="$CEILING" '
{
    printf "%6d / %-6d %s\n", $1, $2, $3
    U += $1
    T += $2
}
END {
    share = 100 * U / T
    printf "total: %d / %d unreached (%.2f %%), ceiling %.2f %%\n", U, T, share, ceiling
    if (sprintf("%.2f", share) + 0 > ceiling + 0) {
        printf "reach.sh: unreached share %.2f %% is above the ceiling %.2f %%\n", share, ceiling
        exit 1
    }
}'
