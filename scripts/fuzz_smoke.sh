#!/bin/sh
# Fuzz smoke: run each fuzz target (the codecs, and the pisa packet parser
# and pipeline under the P4Auth program) briefly (FUZZTIME per target,
# default 10s) on top of its checked-in seed corpus. This is not the
# long campaign — it catches regressions where a codec change breaks the
# round-trip property on inputs one generation of mutation away from the
# seeds. New crashers land in the package's testdata/fuzz/ and become
# permanent regression inputs. FuzzDecodeLease's in-test seeds include
# the codec edge cases (max-epoch grants, maximum-length holders, torn
# and truncated records) alongside its corpus; FuzzDecodeBrokerFrame's
# include one hierarchy broker frame of every type plus torn, truncated
# and over-long-name frames.
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
for entry in \
    ./internal/core/:FuzzDecodeMessage \
    ./internal/core/:FuzzMessageBufDecode \
    ./internal/core/:FuzzDecodeJournalEntry \
    ./internal/core/:FuzzDecodeJournalBatch \
    ./internal/core/:FuzzDecodeSnapshot \
    ./internal/core/:FuzzDecodeDeviceSnapshot \
    ./internal/statestore/:FuzzDecodeLease \
    ./internal/hierarchy/:FuzzDecodeBrokerFrame \
    ./internal/pisa/:FuzzProcessP4Auth; do
    pkg="${entry%%:*}"
    target="${entry#*:}"
    echo "-- $pkg $target ($FUZZTIME)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
done
