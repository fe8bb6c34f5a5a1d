package core

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

func TestKeyStoreSnapshotRoundTrip(t *testing.T) {
	ks := NewKeyStore(4, 0x5eed)
	if _, err := ks.Install(KeyIndexLocal, 0x1111); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Install(2, 0x2222); err != nil {
		t.Fatal(err)
	}
	if err := ks.Prepare(1, 0x3333); err != nil {
		t.Fatal(err)
	}

	snap := ks.Snapshot()
	snap.SeqNext = 77
	snap.TakenNs = 123456

	dec, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, dec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, snap)
	}

	// Restore into a fresh store and verify behavioural equivalence.
	ks2 := NewKeyStore(4, 0xDEAD)
	if err := ks2.Restore(dec); err != nil {
		t.Fatal(err)
	}
	k1, v1, err := ks.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	k2, v2, err := ks2.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || v1 != v2 {
		t.Fatalf("restored local key (%#x,%d) != original (%#x,%d)", k2, v2, k1, v1)
	}
	// The seed must still be reachable at version 0 (two-version table).
	if old, err := ks2.At(KeyIndexLocal, 0); err != nil || old != 0x5eed {
		t.Fatalf("At(0) = %#x, %v; want seed", old, err)
	}
	if !ks2.Pending(1) {
		t.Fatal("prepared key lost in round trip")
	}
	if ver, err := ks2.Commit(1); err != nil || ver != 0 {
		t.Fatalf("Commit after restore: ver=%d err=%v", ver, err)
	}
	if got, _, err := ks2.Current(1); err != nil || got != 0x3333 {
		t.Fatalf("committed restored pending key = %#x, %v", got, err)
	}
}

func TestSnapshotRestoreGeometryMismatch(t *testing.T) {
	snap := NewKeyStore(2, 1).Snapshot()
	if err := NewKeyStore(4, 1).Restore(snap); err == nil {
		t.Fatal("restore across slot-count mismatch must fail")
	}
	if err := (&KeyStore{slots: make([]keySlot, 3)}).Restore(nil); err == nil {
		t.Fatal("nil snapshot must fail")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	snap := NewKeyStore(2, 0x5eed).Snapshot()
	snap.Floors = []uint32{10, 20, 30, 40, 50, 60}
	b := snap.Encode()

	if _, err := DecodeSnapshot(b[:len(b)-1]); err == nil {
		t.Fatal("truncated snapshot must fail decode")
	}
	for _, idx := range []int{0, 4, 9, len(b) - 2} {
		c := append([]byte(nil), b...)
		c[idx] ^= 0x40
		if _, err := DecodeSnapshot(c); err == nil {
			t.Fatalf("bit flip at %d undetected", idx)
		}
	}
	// Unsupported future version.
	c := append([]byte(nil), b...)
	c[4] = 99
	if _, err := DecodeSnapshot(c); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestKeyStoreRollback(t *testing.T) {
	ks := NewKeyStore(2, 0x5eed)
	if _, err := ks.Install(KeyIndexLocal, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Install(KeyIndexLocal, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	if err := ks.Rollback(KeyIndexLocal); err != nil {
		t.Fatal(err)
	}
	k, v, err := ks.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if k != 0xAAAA || v != 1 {
		t.Fatalf("after rollback: key=%#x ver=%d, want 0xAAAA ver 1", k, v)
	}
	if err := ks.Rollback(KeyIndexLocal); err != nil {
		t.Fatal(err)
	}
	if err := ks.Rollback(KeyIndexLocal); err == nil {
		t.Fatal("rollback below version 0 must fail")
	}
	if err := ks.Rollback(1); err == nil {
		t.Fatal("rollback of unestablished slot must fail")
	}
}

func TestKeyStoreResetToSeed(t *testing.T) {
	ks := NewKeyStore(2, 0x5eed)
	if _, err := ks.Install(1, 0x42); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Install(KeyIndexLocal, 0x43); err != nil {
		t.Fatal(err)
	}
	ks.ResetToSeed(0x5eed)
	k, v, err := ks.Current(KeyIndexLocal)
	if err != nil || k != 0x5eed || v != 0 {
		t.Fatalf("after reset: key=%#x ver=%d err=%v", k, v, err)
	}
	if ks.Established(1) {
		t.Fatal("port slot survived reset")
	}
}

func TestSeqTrackerResumeAndSkip(t *testing.T) {
	s := NewSeqTracker()
	for i := 0; i < 5; i++ {
		s.Next()
	}
	if s.Peek() != 6 {
		t.Fatalf("Peek = %d, want 6", s.Peek())
	}
	if s.Outstanding() != 5 {
		t.Fatalf("Outstanding = %d", s.Outstanding())
	}

	// Resume ahead: counter jumps, outstanding forgotten.
	s.Resume(100)
	if s.Peek() != 100 || s.Outstanding() != 0 {
		t.Fatalf("after Resume(100): peek=%d outstanding=%d", s.Peek(), s.Outstanding())
	}
	// Resume behind is a no-op on the counter (never reissue).
	s.Resume(50)
	if s.Peek() != 100 {
		t.Fatalf("Resume must never move the counter backwards: %d", s.Peek())
	}

	s.SkipAhead(FloorLease)
	if s.Peek() != 100+FloorLease {
		t.Fatalf("SkipAhead: peek=%d", s.Peek())
	}
	// Saturation, not wraparound.
	s.SkipAhead(^uint32(0))
	if s.Peek() != ^uint32(0) {
		t.Fatalf("SkipAhead must saturate: %d", s.Peek())
	}
	// Next stays at the top too: a wrapped counter would be replay-rejected
	// forever, and would break the issue order Settle searches in.
	const top = ^uint32(0)
	if a, b := s.Next(), s.Next(); a != top || b != top || s.Peek() != top {
		t.Fatalf("Next at the top: %d, %d, then peek=%d; want %d three times", a, b, s.Peek(), top)
	}
	// Two requests carry the top number, so it is outstanding twice and
	// settles twice, and no more.
	if s.Outstanding() != 2 {
		t.Fatalf("Outstanding after two Next at the top = %d, want 2", s.Outstanding())
	}
	for i, wantLeft := range []int{1, 0} {
		if err := s.Settle(top); err != nil {
			t.Fatalf("Settle %d of a number outstanding twice: %v", i+1, err)
		}
		if s.Outstanding() != wantLeft {
			t.Fatalf("Outstanding after Settle %d = %d, want %d", i+1, s.Outstanding(), wantLeft)
		}
	}
	if err := s.Settle(top); err == nil {
		t.Fatal("third Settle of a number issued twice must fail")
	}
	s.Reset()
	if s.Peek() != 1 || s.Outstanding() != 0 {
		t.Fatalf("after Reset: peek=%d outstanding=%d", s.Peek(), s.Outstanding())
	}
}

// buildTestSwitch compiles a minimal P4Auth switch for device snapshot
// tests.
func buildTestSwitch(t *testing.T) (*pisa.Switch, Config) {
	t.Helper()
	cfg := DefaultConfig(4, DigestCRC32)
	prog := &pisa.Program{
		Name:         "snap_test",
		Headers:      []*pisa.HeaderDef{PTypeHeader()},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: HdrPType}},
		DeparseOrder: []string{HdrPType},
	}
	if err := AddToProgram(prog, cfg, Integration{}); err != nil {
		t.Fatal(err)
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Boot(sw, cfg); err != nil {
		t.Fatal(err)
	}
	return sw, cfg
}

func TestDeviceSnapshotRoundTripAndFloorLease(t *testing.T) {
	sw, cfg := buildTestSwitch(t)
	// Give the device distinctive state.
	if err := sw.RegisterWrite(RegKeysV1, 2, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterWrite(RegVer, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterWrite(RegSeq, 0, 41); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterWrite(RegSeq, 1, 17); err != nil {
		t.Fatal(err)
	}

	ds, err := SnapshotDevice(sw, 999)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeDeviceSnapshot(ds.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, dec) {
		t.Fatal("device snapshot round trip mismatch")
	}

	// Cold-wipe the switch, then warm-restore.
	if err := FactoryReset(sw, cfg); err != nil {
		t.Fatal(err)
	}
	if err := RestoreDevice(sw, dec); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.RegisterRead(RegKeysV1, 2); v != 0xFEED {
		t.Fatalf("key not restored: %#x", v)
	}
	if v, _ := sw.RegisterRead(RegVer, 2); v != 3 {
		t.Fatalf("version not restored: %d", v)
	}
	// Replay floors come back with the lease bump, never verbatim.
	if v, _ := sw.RegisterRead(RegSeq, 0); v != 41+FloorLease {
		t.Fatalf("floor[0] = %d, want %d", v, 41+FloorLease)
	}
	if v, _ := sw.RegisterRead(RegSeq, 1); v != 17+FloorLease {
		t.Fatalf("floor[1] = %d, want %d", v, 17+FloorLease)
	}

	// Corruption must be detected, not restored.
	b := ds.Encode()
	b[len(b)/2] ^= 0x01
	if _, err := DecodeDeviceSnapshot(b); err == nil {
		t.Fatal("corrupted device snapshot decoded")
	}
}

func TestDeviceSnapshotFloorSaturates(t *testing.T) {
	sw, _ := buildTestSwitch(t)
	if err := sw.RegisterWrite(RegSeq, 3, 0xFFFF_FFF0); err != nil {
		t.Fatal(err)
	}
	ds, err := SnapshotDevice(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreDevice(sw, ds); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.RegisterRead(RegSeq, 3); v != 0xFFFF_FFFF {
		t.Fatalf("floor near top must saturate at 2^32-1, got %#x", v)
	}
}

// TestKeyStoreEpochWraps runs one slot past 256 installs: the version tag
// wraps with pa_ver, but Commit keeps returning a nonzero epoch, and
// Rollback steps back across the wrap to the key of tag 255.
func TestKeyStoreEpochWraps(t *testing.T) {
	ks := NewKeyStore(1, 0x5eed)
	for i := uint32(1); i <= 256; i++ {
		if err := ks.Prepare(KeyIndexLocal, 0xABCD0000|uint64(i)); err != nil {
			t.Fatal(err)
		}
		epoch, err := ks.Commit(KeyIndexLocal)
		if err != nil || epoch != i {
			t.Fatalf("commit %d: epoch %d, err %v", i, epoch, err)
		}
	}
	key, tag, err := ks.Current(KeyIndexLocal)
	if err != nil || key != 0xABCD0100 || tag != 0 {
		t.Fatalf("after 256 commits: key %#x tag %d err %v, want 0xabcd0100 tag 0", key, tag, err)
	}
	if err := ks.Rollback(KeyIndexLocal); err != nil {
		t.Fatalf("rollback across the wrap: %v", err)
	}
	key, tag, err = ks.Current(KeyIndexLocal)
	if err != nil || key != 0xABCD00FF || tag != 255 {
		t.Fatalf("after rollback: key %#x tag %d err %v, want 0xabcd00ff tag 255", key, tag, err)
	}
	if epoch, err := ks.Epoch(KeyIndexLocal); err != nil || epoch != 255 {
		t.Fatalf("epoch after rollback = %d, %v; want 255", epoch, err)
	}
	// The epoch survives a snapshot round trip; the tag alone would not.
	if epoch, err := ks.Install(KeyIndexLocal, 0x77); err != nil || epoch != 256 {
		t.Fatalf("install after rollback: epoch %d, err %v", epoch, err)
	}
	dec, err := DecodeSnapshot(ks.Snapshot().Encode())
	if err != nil {
		t.Fatal(err)
	}
	ks2 := NewKeyStore(1, 0)
	if err := ks2.Restore(dec); err != nil {
		t.Fatal(err)
	}
	if epoch, err := ks2.Epoch(KeyIndexLocal); err != nil || epoch != 256 {
		t.Fatalf("restored epoch = %d, %v; want 256", epoch, err)
	}
	if err := ks2.Rollback(KeyIndexLocal); err != nil {
		t.Fatalf("rollback after restore: %v", err)
	}
}

// TestSnapshotDecodesFormat1: a snapshot written before slots carried
// their epoch stored the 8-bit tag in its place and decodes with
// epoch = tag.
func TestSnapshotDecodesFormat1(t *testing.T) {
	b := binary.BigEndian.AppendUint32(nil, snapMagic)
	b = append(b, 1)
	b = binary.BigEndian.AppendUint64(b, 99) // taken
	b = binary.BigEndian.AppendUint32(b, 2)  // slots
	for _, sl := range []struct {
		v0, v1  uint64
		tag     uint8
		flags   byte
		pending uint64
	}{
		{0xAAAA, 0xBBBB, 3, slotFlagSet, 0},
		{0, 0, 0, slotFlagPending, 0xCCCC},
	} {
		b = binary.BigEndian.AppendUint64(b, sl.v0)
		b = binary.BigEndian.AppendUint64(b, sl.v1)
		b = append(b, sl.tag, sl.flags)
		b = binary.BigEndian.AppendUint64(b, sl.pending)
	}
	b = binary.BigEndian.AppendUint32(b, 17) // seqNext
	b = binary.BigEndian.AppendUint32(b, 0)  // floors
	b = appendCRC(b)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{TakenNs: 99, SeqNext: 17, Slots: []SlotSnapshot{
		{V0: 0xAAAA, V1: 0xBBBB, Epoch: 3, Set: true},
		{Pending: 0xCCCC, HasPending: true},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("format 1 decode:\n got %+v\nwant %+v", got, want)
	}
}
