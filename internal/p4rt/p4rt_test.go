package p4rt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"p4auth/internal/pisa"
)

func testProgram() *pisa.Program {
	return &pisa.Program{
		Name: "p",
		Registers: []*pisa.RegisterDef{
			{Name: "lat_path1", Width: 32, Entries: 16},
			{Name: "lat_path2", Width: 32, Entries: 16},
			{Name: "keys", Width: 64, Entries: 33},
		},
	}
}

func TestInfoFromProgram(t *testing.T) {
	info := InfoFromProgram(testProgram())
	if len(info.Registers) != 3 {
		t.Fatalf("got %d registers", len(info.Registers))
	}
	ri, err := info.RegisterByName("keys")
	if err != nil {
		t.Fatal(err)
	}
	if ri.Width != 64 || ri.Entries != 33 {
		t.Errorf("keys info = %+v", ri)
	}
	back, err := info.RegisterByID(ri.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "keys" {
		t.Errorf("round trip by id gave %q", back.Name)
	}
	if _, err := info.RegisterByID(0xdead); err == nil {
		t.Error("expected unknown-id error")
	}
	if _, err := info.RegisterByName("ghost"); err == nil {
		t.Error("expected unknown-name error")
	}
}

func TestInfoIDsDeterministic(t *testing.T) {
	a := InfoFromProgram(testProgram())
	b := InfoFromProgram(testProgram())
	for i := range a.Registers {
		if a.Registers[i].ID != b.Registers[i].ID {
			t.Fatal("register IDs are not deterministic")
		}
	}
	seen := map[uint32]bool{}
	for _, r := range a.Registers {
		if seen[r.ID] {
			t.Fatal("duplicate register ID")
		}
		seen[r.ID] = true
	}
}

func TestMessageRoundtrips(t *testing.T) {
	msgs := []Message{
		{Type: MsgRegisterWrite, RegID: 0x05000001, Index: 3, Value: 0xdeadbeefcafef00d},
		{Type: MsgRegisterRead, RegID: 0x05000002, Index: 9},
		{Type: MsgReadResponse, Value: 42, OK: true},
		{Type: MsgReadResponse, Value: 0, OK: false},
		{Type: MsgWriteResponse, OK: true},
		{Type: MsgPacketOut, Payload: []byte{1, 2, 3, 4}},
		{Type: MsgPacketIn, Payload: nil},
	}
	for _, m := range msgs {
		m := m
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if got.Type != m.Type || got.RegID != m.RegID || got.Index != m.Index ||
			got.Value != m.Value || got.OK != m.OK || !bytes.Equal(got.Payload, m.Payload) {
			t.Errorf("roundtrip mismatch: sent %+v, got %+v", m, got)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{99, 0, 0, 0, 0}, // unknown type
		{byte(MsgRegisterWrite), 0, 0, 0, 3, 1, 2, 3},                  // wrong body size
		{byte(MsgWriteResponse), 0, 0, 0, 1, 2},                        // flag neither 0 nor 1
		{byte(MsgReadResponse), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 7}, // likewise
		func() []byte { // header/body length mismatch
			b := (&Message{Type: MsgPacketOut, Payload: []byte{1, 2}}).Encode()
			return b[:len(b)-1]
		}(),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestPacketPayloadRoundtripQuick(t *testing.T) {
	f := func(payload []byte) bool {
		m := Message{Type: MsgPacketOut, Payload: payload}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	m := Message{Type: MsgPacketIn, Payload: []byte{5, 6, 7}}
	enc := m.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[headerLen] = 0xFF
	if got.Payload[0] != 5 {
		t.Error("decoded payload aliases the input frame")
	}
}

// FuzzDecodeP4RT holds the stream framing to three properties: Decode
// never panics, a frame it accepts re-encodes to the same bytes, and a
// message of every type built from the input survives Encode then Decode.
// The seeds are one frame per MsgType plus truncated and over-long ones.
func FuzzDecodeP4RT(f *testing.F) {
	for _, m := range []Message{
		{Type: MsgRegisterWrite, RegID: 0x05000001, Index: 3, Value: 0xdeadbeefcafef00d},
		{Type: MsgRegisterRead, RegID: 0x05000002, Index: 9},
		{Type: MsgReadResponse, Value: 42, OK: true},
		{Type: MsgWriteResponse, OK: true},
		{Type: MsgPacketOut, Payload: []byte{1, 2, 3, 4}},
		{Type: MsgPacketIn, Payload: []byte{5}},
	} {
		frame := m.Encode()
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame, 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data); err == nil {
			if again := m.Encode(); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame %x re-encodes to %x", data, again)
			}
		}

		// The input, padded, supplies every field; the type cycles
		// through all six, and each keeps only the fields its frame carries.
		var b [18]byte
		copy(b[:], data)
		m := Message{Type: MsgType(b[0]%6 + 1)}
		switch m.Type {
		case MsgRegisterWrite:
			m.Value = binary.BigEndian.Uint64(b[9:17])
			fallthrough
		case MsgRegisterRead:
			m.RegID = binary.BigEndian.Uint32(b[1:5])
			m.Index = binary.BigEndian.Uint32(b[5:9])
		case MsgReadResponse:
			m.Value = binary.BigEndian.Uint64(b[9:17])
			fallthrough
		case MsgWriteResponse:
			m.OK = b[17]&1 == 1
		case MsgPacketOut, MsgPacketIn:
			if len(data) > 1 {
				m.Payload = data[1:]
			}
		}
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got.Type != m.Type || got.RegID != m.RegID || got.Index != m.Index ||
			got.Value != m.Value || got.OK != m.OK || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("sent %+v, got %+v", m, got)
		}
	})
}
