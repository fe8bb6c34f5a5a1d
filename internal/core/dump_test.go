package core

import (
	"strings"
	"testing"
)

// TestPeekControl pins the cheap header peeks the switch agent keys its
// idempotency cache with: they must agree with the full decoder on
// plausible messages and reject everything else.
func TestPeekControl(t *testing.T) {
	// The peeks check their input against a constant; the generated
	// program's header definitions stay the source of truth for it.
	if got := ptypeDef.Bytes() + authDef.Bytes(); minWireBytes != got || authWireBytes != authDef.Bytes() {
		t.Fatalf("minWireBytes = %d, authWireBytes = %d; the ptype and pa_h definitions say %d and %d",
			minWireBytes, authWireBytes, got, authDef.Bytes())
	}
	m := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: 0x01020304, KeyVersion: 1},
		Reg:    &RegPayload{RegID: 2, Index: 5, Value: 77},
	}
	data := m.AppendEncode(nil)

	hdr, seq, ok := PeekControl(data)
	if !ok || hdr != HdrRegister || seq != 0x01020304 {
		t.Fatalf("PeekControl = (%d, %#x, %v), want (%d, 0x01020304, true)", hdr, seq, ok, HdrRegister)
	}
	mt, ok := PeekMsgType(data)
	if !ok || mt != MsgWriteReq {
		t.Fatalf("PeekMsgType = (%d, %v), want (%d, true)", mt, ok, MsgWriteReq)
	}

	for name, b := range map[string][]byte{
		"empty":       nil,
		"short":       {PTypeP4Auth, HdrRegister},
		"wrong ptype": append([]byte{0x00}, data[1:]...),
	} {
		if _, _, ok := PeekControl(b); ok {
			t.Errorf("PeekControl accepted %s input", name)
		}
		if _, ok := PeekMsgType(b); ok {
			t.Errorf("PeekMsgType accepted %s input", name)
		}
	}
}

// TestDigestInput: the exported form must equal the append form the hot
// path uses — they are the same bytes a switch hashes.
func TestDigestInput(t *testing.T) {
	m := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: 9},
		Reg:    &RegPayload{RegID: 1, Index: 2, Value: 3},
	}
	di, err := m.DigestInput()
	if err != nil {
		t.Fatal(err)
	}
	if string(di) != string(m.AppendDigestInput(nil)) {
		t.Fatal("DigestInput disagrees with AppendDigestInput")
	}
}

// TestWriteStateString covers the journal state labels, including the
// defensive rendering of a corrupt state byte.
func TestWriteStateString(t *testing.T) {
	for want, s := range map[string]WriteState{
		"intent": WriteIntent, "applied": WriteApplied, "failed": WriteFailed,
		"WriteState(9)": WriteState(9),
	} {
		if got := s.String(); got != want {
			t.Errorf("WriteState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestOperatorDumps exercises the p4auth-inspect rendering paths: every
// Dump must name the thing it renders and the load-bearing fields, so an
// operator reading a post-mortem sees switches, registers, and states.
func TestOperatorDumps(t *testing.T) {
	je := &JournalEntry{ID: 0xAB, Switch: "s1", Register: "lat", Index: 3, Value: 0xFF, State: WriteIntent}
	if d := je.Dump(); !strings.Contains(d, "s1") || !strings.Contains(d, "lat[3]") || !strings.Contains(d, "intent") {
		t.Errorf("journal entry dump missing fields: %q", d)
	}

	jb := &JournalBatch{ID: 7, Switch: "s2", Writes: []BatchWrite{
		{Register: "lat", Index: 0, Value: 1, State: WriteApplied},
		{Register: "q", Index: 2, Value: 3, State: WriteFailed},
	}}
	if d := jb.Dump(); !strings.Contains(d, "s2") || !strings.Contains(d, "(2 writes)") || !strings.Contains(d, "failed") {
		t.Errorf("journal batch dump missing fields: %q", d)
	}
	ents := jb.Entries()
	if len(ents) != 2 || ents[0].Switch != "s2" || ents[0].ID != 7 ||
		ents[1].Register != "q" || ents[1].State != WriteFailed {
		t.Errorf("batch entry expansion wrong: %+v", ents)
	}

	ks := &Snapshot{
		TakenNs: 5,
		Slots: []SlotSnapshot{
			{V0: 0xA, Epoch: 1, Set: true},
			{Pending: 0xB, HasPending: true},
		},
		SeqNext: 100,
		Floors:  []uint32{1, 2},
	}
	if d := ks.Dump(); !strings.Contains(d, "seqNext=100") || !strings.Contains(d, "local") ||
		!strings.Contains(d, "pending=") {
		t.Errorf("key snapshot dump missing fields: %q", d)
	}

	ds := &DeviceSnapshot{TakenNs: 9, Regs: map[string][]uint64{
		RegSeq: {0, 4, 0, 0}, "lat": {7},
	}}
	if d := ds.Dump(); !strings.Contains(d, RegSeq) || !strings.Contains(d, "nonzero=1") {
		t.Errorf("device snapshot dump missing fields: %q", d)
	}
}
