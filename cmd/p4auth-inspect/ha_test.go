package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p4auth/internal/statestore"
)

// The ha subcommand's reference runs must walk the pair's failover story
// from the group chaos harness: the standby fenced out, the active killed
// mid-rollover, the pre-expiry takeover refused, warm promotion at epoch
// 2 and queued writes landing through it, then the alive deposed active
// refused on write and renew.
func TestRunHAReference(t *testing.T) {
	var sb strings.Builder
	if err := runHA(nil, &sb); err != nil {
		t.Fatalf("runHA: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"scenario rolling-kill, 2 replicas",
		"baseline: standby write refused by fence (never-active)",
		"fault: active ctl-0 killed at packet 3",
		"pre-expiry takeover refused: lease held",
		"ctl-1 serving at epoch 2",
		"shard set rebound to ctl-1",
		"post-failover: fleet state verified against shadow",
		"scenario split-brain, 2 replicas",
		"deposed ctl-0 write s02 lat[1] refused by fence",
		"deposed renewal refused, stale grant dropped",
		"-- result: winner=ctl-1 epoch=2",
		"violations=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ha output missing %q", want)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Error("ha reference runs reported violations")
	}
}

// groupRuns prints the reference runs of more than two replicas.
func groupRuns(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, o := range haRuns {
		if o.Replicas <= 2 {
			continue
		}
		if err := printFailoverRun(&sb, o); err != nil {
			t.Fatalf("printFailoverRun: %v", err)
		}
	}
	return sb.String()
}

// The group reference run must walk the N-replica story the pair cannot
// show: a store blip served on cached evidence, then an outage past the
// bounded-staleness grace that the active survives only by fencing
// itself, and a reconciled audit trail.
func TestRunGroupReference(t *testing.T) {
	out := groupRuns(t)
	for _, want := range []string{
		"scenario store-outage, 3 replicas",
		"blip: read on s01 served on cached evidence",
		"active self-fenced (degraded-grace-exhausted) with lease still unexpired",
		"violations=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("group output missing %q", want)
		}
	}
}

// Two runs must print byte-identical output: the reference runs are
// seeded and driven on a virtual clock.
func TestRunHADeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := runHA(nil, &a); err != nil {
		t.Fatal(err)
	}
	if err := runHA(nil, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("ha reference run is not deterministic")
	}
}

// The group run printed on its own must be byte for byte its section of
// the ha output: no state carries from the pair runs into it.
func TestRunGroupDeterministic(t *testing.T) {
	var all strings.Builder
	if err := runHA(nil, &all); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(all.String(), groupRuns(t)) {
		t.Error("group reference run differs between a run of its own and the ha output")
	}
}

// With a file argument the subcommand decodes a persisted PALS record
// and rejects corrupt ones.
func TestRunHADecodeFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "lease")
	l := &statestore.Lease{Holder: "ctl-x", Epoch: 7, GrantedNs: 100, TTLNs: 50}
	if err := os.WriteFile(good, l.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runHA([]string{good}, &sb); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(sb.String(), "lease holder=ctl-x epoch=7") {
		t.Errorf("decode output = %q", sb.String())
	}

	bad := filepath.Join(dir, "torn")
	if err := os.WriteFile(bad, l.Encode()[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runHA([]string{bad}, &sb); err == nil {
		t.Error("torn lease record decoded without error")
	}
}
