package core

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz targets for every wire and persistence codec: feeding arbitrary
// bytes to a decoder must never panic, and any input a decoder accepts
// must survive a re-encode/re-decode round trip unchanged (the decoders
// are the trust boundary — the controller decodes switch-originated
// bytes, and recovery decodes whatever survived a crash on disk).
//
// Seed corpora live in testdata/fuzz/<target>/ in `go test fuzz v1`
// format; run with `go test -fuzz <target> ./internal/core/`.

func fuzzMsgSeeds(f *testing.F) {
	msgs := []*Message{
		{Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: 7, KeyVersion: 1, Digest: 0xDEADBEEF},
			Reg: &RegPayload{RegID: 3, Index: 9, Value: 0x1122334455667788}},
		{Header: Header{HdrType: HdrAlert, MsgType: AlertReplay, SeqNum: 99},
			Reg: &RegPayload{Value: 2}},
		{Header: Header{HdrType: HdrKeyExch, MsgType: MsgADHKD1, SeqNum: 2, KeyVersion: 0},
			Kx: &KxPayload{Port: 4, PK: 0xCAFEBABE, Salt: 0x5A17, Phase: 1}},
		{Header: Header{HdrType: HdrFeedback, MsgType: 0, SeqNum: 1},
			Aux: []byte{0xAA, 0xBB, 0xCC}},
	}
	for _, m := range msgs {
		f.Add(m.AppendEncode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{PTypeP4Auth})
	f.Add([]byte{PTypeP4Auth, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
}

// FuzzDecodeMessage: the fresh-storage decoder.
func FuzzDecodeMessage(f *testing.F) {
	fuzzMsgSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		re := m.AppendEncode(nil)
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed message:\n  %+v\n  %+v", m, m2)
		}
	})
}

// FuzzMessageBufDecode: the zero-alloc decoder must accept and reject
// exactly the same inputs as the fresh-storage one, with equal results.
func FuzzMessageBufDecode(f *testing.F) {
	fuzzMsgSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf MessageBuf
		bm, berr := buf.Decode(data)
		fm, ferr := DecodeMessage(data)
		if (berr == nil) != (ferr == nil) {
			t.Fatalf("decoders disagree: buf=%v fresh=%v", berr, ferr)
		}
		if berr != nil {
			return
		}
		if !bytes.Equal(bm.AppendEncode(nil), fm.AppendEncode(nil)) {
			t.Fatal("buffered and fresh decoders produced different messages")
		}
	})
}

// FuzzDecodeJournalEntry: the single-write WAL record (PAWJ).
func FuzzDecodeJournalEntry(f *testing.F) {
	e := &JournalEntry{ID: 42, Switch: "s1", Register: "lat", Index: 3, Value: 0xFFEE, State: WriteIntent}
	f.Add(e.Encode())
	f.Add((&JournalEntry{State: WriteFailed}).Encode())
	f.Add([]byte{0x50, 0x41, 0x57, 0x4A, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeJournalEntry(data)
		if err != nil {
			return
		}
		e2, err := DecodeJournalEntry(e.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed entry:\n  %+v\n  %+v", e, e2)
		}
		// Appending into a used buffer leaves what was there and encodes
		// the same record after it.
		prefix := []byte("used")
		if got := e.AppendEncode(prefix); string(got[:len(prefix)]) != "used" ||
			!bytes.Equal(got[len(prefix):], e.Encode()) {
			t.Fatalf("AppendEncode onto %q = %x, want the prefix then %x", prefix, got, e.Encode())
		}
	})
}

// FuzzDecodeJournalBatch: the group-commit WAL record (PAWB).
func FuzzDecodeJournalBatch(f *testing.F) {
	b := &JournalBatch{ID: 7, Switch: "s2", Writes: []BatchWrite{
		{Register: "lat", Index: 0, Value: 1, State: WriteIntent},
		{Register: "lat", Index: 1, Value: 2, State: WriteApplied},
		{Register: "q", Index: 9, Value: 0xDEAD, State: WriteFailed},
	}}
	f.Add(b.Encode())
	f.Add((&JournalBatch{Switch: "x"}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeJournalBatch(data)
		if err != nil {
			return
		}
		e2, err := DecodeJournalBatch(e.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed batch:\n  %+v\n  %+v", e, e2)
		}
	})
}

// FuzzDecodeSnapshot: the controller key snapshot (PAKS).
func FuzzDecodeSnapshot(f *testing.F) {
	s := &Snapshot{
		TakenNs: 123,
		Slots: []SlotSnapshot{
			{V0: 1, V1: 2, Current: 1, Set: true},
			{Pending: 9, HasPending: true},
		},
		SeqNext: 1000,
		Floors:  []uint32{5, 6, 7, 8},
	}
	f.Add(s.Encode())
	f.Add((&Snapshot{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		s2, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed snapshot:\n  %+v\n  %+v", s, s2)
		}
	})
}

// FuzzDecodeDeviceSnapshot: the switch register-file snapshot (PADS).
func FuzzDecodeDeviceSnapshot(f *testing.F) {
	ds := &DeviceSnapshot{TakenNs: 9, Regs: map[string][]uint64{
		RegSeq: {1, 2}, RegVer: {3}, RegKeysV0: {0xAB, 0, 0xCD},
	}}
	f.Add(ds.Encode())
	f.Add((&DeviceSnapshot{Regs: map[string][]uint64{}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := DecodeDeviceSnapshot(data)
		if err != nil {
			return
		}
		ds2, err := DecodeDeviceSnapshot(ds.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(ds, ds2) {
			t.Fatalf("round trip changed device snapshot:\n  %+v\n  %+v", ds, ds2)
		}
	})
}
