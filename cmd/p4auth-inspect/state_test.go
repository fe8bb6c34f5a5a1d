package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/statestore"
)

func TestFormatStateKeySnapshotRoundTrip(t *testing.T) {
	s := &core.Snapshot{
		TakenNs: 42,
		SeqNext: 17,
		Slots: []core.SlotSnapshot{
			{V0: 0xAAAA, V1: 0xBBBB, Epoch: 1, Set: true},
			{Pending: 0xCCCC, HasPending: true},
		},
	}
	out, err := formatState("snapshot", s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"key snapshot", "seqNext=17", "slot  0 (local)", "ver=1", "pending="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatStateDeviceSnapshotRoundTrip(t *testing.T) {
	ds := &core.DeviceSnapshot{
		TakenNs: 7,
		Regs: map[string][]uint64{
			core.RegSeq: {0, 55, 0, 9},
			core.RegVer: {2, 0, 0, 0},
		},
	}
	out, err := formatState("snapshot", ds.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"device snapshot", core.RegSeq, "[1]=0x37", core.RegVer} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatStateJournalRoundTrip(t *testing.T) {
	e := core.JournalBatch{ID: 0xBEEF, Switch: "s1", Writes: []core.BatchWrite{
		{Register: "lat", Index: 3, Value: 777, State: core.WriteIntent},
	}}
	out, err := formatState("journal", e.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"000000000000beef", "intent", "s1", "lat[3]", "0x309"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatStateRejectsGarbage(t *testing.T) {
	if _, err := formatState("snapshot", []byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot decoded")
	}
	if _, err := formatState("journal", []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage journal entry decoded")
	}
}

// TestRunStateOverFileStore points the subcommands at a statestore.File
// root, the way an operator would inspect a live deployment's state
// directory, and checks each subcommand surfaces its own artifacts.
func TestRunStateOverFileStore(t *testing.T) {
	dir := t.TempDir()
	st, err := statestore.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := &core.Snapshot{SeqNext: 5, Slots: []core.SlotSnapshot{{V0: 1, Set: true}}}
	if err := st.Save("ctl/s1", snap.Encode()); err != nil {
		t.Fatal(err)
	}
	entry := core.JournalBatch{ID: 1, Switch: "s1", Writes: []core.BatchWrite{
		{Register: "lat", Index: 0, Value: 9, State: core.WriteFailed},
	}}
	if err := st.Save("wal/s1/0000000000000001", entry.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}

	var snapOut, jOut strings.Builder
	if err := runState("snapshot", []string{dir}, &snapOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snapOut.String(), "key snapshot") ||
		!strings.Contains(snapOut.String(), filepath.Join("ctl", "s1")) {
		t.Fatalf("snapshot sweep output:\n%s", snapOut.String())
	}
	if err := runState("journal", []string{dir}, &jOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jOut.String(), "failed") || !strings.Contains(jOut.String(), "lat[0]") {
		t.Fatalf("journal sweep output:\n%s", jOut.String())
	}

	// A direct file argument that does not decode must error.
	bad := filepath.Join(dir, "garbage")
	if err := os.WriteFile(bad, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runState("journal", []string{bad}, &strings.Builder{}); err == nil {
		t.Fatal("garbage file accepted")
	}
}
