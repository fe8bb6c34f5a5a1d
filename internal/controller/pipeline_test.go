package controller

import (
	"errors"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/netsim"
	"p4auth/internal/statestore"
)

func TestWriteRegisterBatchBasic(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	writes := make([]RegWrite, 8)
	for i := range writes {
		writes[i] = RegWrite{Register: "lat", Index: uint32(i), Value: uint64(1000 + i)}
	}
	br, err := c.WriteRegisterBatch("s1", 4, writes)
	if err != nil {
		t.Fatal(err)
	}
	if br.Failed != 0 {
		t.Fatalf("failed entries: %d (%v)", br.Failed, br.Errs)
	}
	if br.Rounds != 2 {
		t.Errorf("8 writes at window 4 took %d rounds, want 2", br.Rounds)
	}
	if br.Lat <= 0 {
		t.Error("batch latency must be positive")
	}
	for i := range writes {
		if v, _ := s1.Host.SW.RegisterRead("lat", i); v != uint64(1000+i) {
			t.Fatalf("lat[%d] = %d, want %d", i, v, 1000+i)
		}
	}
}

// TestPipelineSubmitAutoFlush: a batch that is not a multiple of the window
// is sent window by window and ends with a short window; every entry lands.
func TestPipelineSubmitAutoFlush(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	writes := make([]RegWrite, 7)
	for i := range writes {
		writes[i] = RegWrite{Register: "lat", Index: uint32(i % 8), Value: uint64(i)}
	}
	br, err := c.WriteRegisterBatch("s1", 3, writes)
	if err != nil {
		t.Fatal(err)
	}
	if br.Failed != 0 || len(br.Errs) != 7 {
		t.Fatalf("batch: %d failed of %d (%v)", br.Failed, len(br.Errs), br.Errs)
	}
	if br.Rounds != 3 {
		t.Errorf("7 writes at window 3 took %d rounds, want 3", br.Rounds)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 6); v != 6 {
		t.Fatalf("lat[6] = %d, want 6", v)
	}
}

func TestReadRegisterBatch(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.WriteRegister("s1", "lat", uint32(i), uint64(42+i)); err != nil {
			t.Fatal(err)
		}
	}
	reads := make([]RegRead, 6)
	for i := range reads {
		reads[i] = RegRead{Register: "lat", Index: uint32(i)}
	}
	br, err := c.ReadRegisterBatch("s1", 8, reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range br.Values {
		if v != uint64(42+i) {
			t.Fatalf("Values[%d] = %d, want %d", i, v, 42+i)
		}
	}
}

// TestBatchPartialFailure mixes a write to a nonexistent register into a
// window and checks the batch fails only that entry.
func TestBatchPartialFailure(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	br, err := c.WriteRegisterBatch("s1", 4, []RegWrite{
		{Register: "lat", Index: 0, Value: 7},
		{Register: "no_such_register", Index: 0, Value: 8},
		{Register: "lat", Index: 1, Value: 9},
	})
	if err == nil {
		t.Fatal("batch with a bad register must report an error")
	}
	if br.Failed != 1 || br.Errs[1] == nil || br.Errs[0] != nil || br.Errs[2] != nil {
		t.Fatalf("per-entry outcomes wrong: %v", br.Errs)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 1); v != 9 {
		t.Fatalf("surviving entry not applied: lat[1] = %d", v)
	}
}

// TestBatchUnderLossAndReorder drives windowed writes through a tap that
// drops and reorders requests. Reordering makes the switch's replay
// floor overtake held-back window members, so their retransmissions draw
// verified replay alerts and must be re-signed with fresh sequence
// numbers — the core out-of-order-safety property of the design.
func TestBatchUnderLossAndReorder(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// The reorder tap permanently drops one request in three (the slot the
	// held packet displaces) on top of 15% response loss — harsher than
	// the 20% the stock resilient policy budgets for, so widen it.
	pol := ResilientRetryPolicy()
	pol.MaxAttempts = 12
	c.SetRetryPolicy(pol)
	if err := c.SetControlTaps("s1", netsim.ReorderTap(), netsim.LossTap(0.15, 0xBADF00D)); err != nil {
		t.Fatal(err)
	}
	// Entries of a batch are an unordered set (out-of-order completion is
	// the point), so writes to the same index carry the same value — the
	// end state is deterministic no matter which copy lands last.
	writes := make([]RegWrite, 16)
	for i := range writes {
		writes[i] = RegWrite{Register: "lat", Index: uint32(i % 8), Value: uint64(3000 + i%8)}
	}
	br, err := c.WriteRegisterBatch("s1", 8, writes)
	if err != nil {
		t.Fatalf("batch under faults: %v (%d rounds)", err, br.Rounds)
	}
	if br.Rounds < 2 {
		t.Errorf("faults injected but batch completed in %d round(s)", br.Rounds)
	}
	for i := 0; i < 8; i++ {
		if v, _ := s1.Host.SW.RegisterRead("lat", i); v != uint64(3000+i) {
			t.Fatalf("lat[%d] = %d, want %d", i, v, 3000+i)
		}
	}
	// The reorder tap must actually have provoked replay handling.
	replays := 0
	for _, a := range c.Alerts() {
		if a.Reason == core.AlertReplay {
			replays++
		}
	}
	if replays == 0 {
		t.Error("no replay alerts raised despite reordering")
	}
}

// TestBatchGroupCommitJournal checks the one-record-per-batch WAL
// discipline: a clean batch leaves nothing behind, a partly-failed batch
// leaves one rewritten record with per-entry final states (never a
// surviving intent).
func TestBatchGroupCommitJournal(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	st := statestore.NewMem()
	if err := c.EnableCrashSafety(st); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegisterBatch("s1", 4, []RegWrite{
		{Register: "lat", Index: 0, Value: 1},
		{Register: "lat", Index: 1, Value: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if keys, _ := st.Keys("wal/"); len(keys) != 0 {
		t.Fatalf("clean batch left journal records: %v", keys)
	}
	if _, err := c.WriteRegisterBatch("s1", 4, []RegWrite{
		{Register: "lat", Index: 2, Value: 3},
		{Register: "bogus", Index: 0, Value: 4},
	}); err == nil {
		t.Fatal("expected partial failure")
	}
	entries, err := c.JournalEntries("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expanded journal entries: %d, want 2", len(entries))
	}
	states := map[core.WriteState]int{}
	for _, e := range entries {
		states[e.State]++
	}
	if states[core.WriteIntent] != 0 {
		t.Fatal("an intent survived a live settle")
	}
	if states[core.WriteApplied] != 1 || states[core.WriteFailed] != 1 {
		t.Fatalf("per-entry states wrong: %v", states)
	}
}

// TestBatchJournalCrashRecovery plants a batch record as a crash would
// leave it (all intents) and checks replayJournal settles each entry
// independently: read-back retires writes that landed, re-drives the
// rest, and deletes the fully-settled record.
func TestBatchJournalCrashRecovery(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	st := statestore.NewMem()
	if err := c.EnableCrashSafety(st); err != nil {
		t.Fatal(err)
	}
	// Entry 0 "landed before the crash"; entry 1 did not.
	if _, err := c.WriteRegister("s1", "lat", 5, 500); err != nil {
		t.Fatal(err)
	}
	rec := &core.JournalBatch{ID: 0x42, Switch: "s1", Writes: []core.BatchWrite{
		{Register: "lat", Index: 5, Value: 500, State: core.WriteIntent},
		{Register: "lat", Index: 6, Value: 600, State: core.WriteIntent},
	}}
	if err := st.Save(walKey("s1", 0x42), rec.Encode()); err != nil {
		t.Fatal(err)
	}
	h, err := c.handle("s1")
	if err != nil {
		t.Fatal(err)
	}
	applied, redriven, failed, jerr := c.replayJournal(h)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if applied != 1 || redriven != 1 || failed != 0 {
		t.Fatalf("applied=%d redriven=%d failed=%d, want 1/1/0", applied, redriven, failed)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 6); v != 600 {
		t.Fatalf("re-driven write missing: lat[6] = %d", v)
	}
	if keys, _ := st.Keys("wal/"); len(keys) != 0 {
		t.Fatalf("settled batch record not deleted: %v", keys)
	}
}

func TestBatchRecordCodecRoundTrip(t *testing.T) {
	rec := &core.JournalBatch{ID: 0xDEADBEEF, Switch: "s9", Writes: []core.BatchWrite{
		{Register: "lat", Index: 1, Value: 11, State: core.WriteIntent},
		{Register: "pa_seq", Index: 2, Value: 22, State: core.WriteFailed},
	}}
	b := rec.Encode()
	got, err := core.DecodeJournalBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.Switch != rec.Switch || len(got.Writes) != 2 ||
		got.Writes[1].Register != "pa_seq" || got.Writes[1].State != core.WriteFailed {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A single-entry decoder must reject it (distinct magic), and a
	// flipped bit must not decode.
	if _, err := core.DecodeJournalEntry(b); err == nil {
		t.Fatal("batch record decoded as single entry")
	}
	b[len(b)-1] ^= 0x80
	if _, err := core.DecodeJournalBatch(b); err == nil {
		t.Fatal("corrupted batch record decoded")
	}
}

func TestBatchOnQuarantinedSwitchFailsFast(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, FlowRetries: 1})
	c.SetHealthPolicy(HealthPolicy{DegradeAfter: 1, QuarantineAfter: 1})
	if err := c.SetControlTaps("s1", netsim.LossTap(1.0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegisterBatch("s1", 4, []RegWrite{{Register: "lat", Index: 0, Value: 1}}); err == nil {
		t.Fatal("total loss must fail the batch")
	}
	if err := c.SetControlTaps("s1", nil, nil); err != nil {
		t.Fatal(err)
	}
	br, err := c.WriteRegisterBatch("s1", 4, []RegWrite{{Register: "lat", Index: 0, Value: 1}})
	if err == nil || !errors.Is(br.Errs[0], ErrQuarantined) {
		t.Fatalf("want ErrQuarantined fast-fail, got %v", err)
	}
}
