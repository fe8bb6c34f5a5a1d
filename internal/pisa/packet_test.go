package pisa

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundtrip(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{
		{Name: "a", Width: 4},
		{Name: "b", Width: 12},
		{Name: "c", Width: 32},
		{Name: "d", Width: 64},
		{Name: "e", Width: 16},
	}}
	if err := def.validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d, e uint64) bool {
		in := []uint64{a & mask(4), b & mask(12), c & mask(32), d, e & mask(16)}
		packed, err := PackHeader(def, in)
		if err != nil {
			return false
		}
		out, err := UnpackHeader(def, packed)
		if err != nil {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackHeaderMasksOversizedValues(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}
	packed, err := PackHeader(def, []uint64{0x1ff})
	if err != nil {
		t.Fatal(err)
	}
	if packed[0] != 0xff {
		t.Errorf("got %#x, want masked 0xff", packed[0])
	}
}

func TestPackHeaderWireOrderMSBFirst(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{
		{Name: "hi", Width: 8},
		{Name: "lo", Width: 8},
		{Name: "word", Width: 16},
	}}
	packed, err := PackHeader(def, []uint64{0xAB, 0xCD, 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xAB, 0xCD, 0x12, 0x34}
	if !bytes.Equal(packed, want) {
		t.Errorf("got % x, want % x", packed, want)
	}
}

func TestUnpackHeaderShortPacket(t *testing.T) {
	def := &HeaderDef{Name: "h", Fields: []FieldDef{{Name: "x", Width: 32}}}
	if _, err := UnpackHeader(def, []byte{1, 2}); err == nil {
		t.Fatal("expected error for short packet")
	}
}

func TestHeaderValidation(t *testing.T) {
	tests := []struct {
		name string
		def  HeaderDef
		ok   bool
	}{
		{"valid", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 8}}}, true},
		{"unaligned", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 7}}}, false},
		{"zero width", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 0}}}, false},
		{"too wide", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 65}}}, false},
		{"dup field", HeaderDef{Name: "h", Fields: []FieldDef{{Name: "a", Width: 8}, {Name: "a", Width: 8}}}, false},
		{"empty name", HeaderDef{Fields: []FieldDef{{Name: "a", Width: 8}}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.def.validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestPacketClone(t *testing.T) {
	p := Packet{Data: []byte{1, 2, 3}, Port: 4}
	c := p.Clone()
	c.Data[0] = 9
	if p.Data[0] != 1 {
		t.Error("clone shares backing array")
	}
}

// packBitsRef and unpackBitsRef are the bit-at-a-time codec the byte-wise
// one replaced, kept as the executable definition of MSB-first packing.
func packBitsRef(buf []byte, off int, v uint64, width int) int {
	for i := width - 1; i >= 0; i-- {
		if (v>>uint(i))&1 != 0 {
			buf[off/8] |= 1 << uint(7-off%8)
		}
		off++
	}
	return off
}

func unpackBitsRef(buf []byte, off, width int) (uint64, int) {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<1 | uint64(buf[off/8]>>uint(7-off%8))&1
		off++
	}
	return v, off
}

// TestBitCodecMatchesReference holds the byte-wise codec equal to the
// reference for every width and bit offset, OR-ing into buffers that
// already carry bits and packing values wider than the field.
func TestBitCodecMatchesReference(t *testing.T) {
	rng := uint64(0x243f6a8885a308d3)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for width := 1; width <= 64; width++ {
		for bit := 0; bit < 8; bit++ {
			for _, base := range []int{0, 3} {
				off := base*8 + bit
				for round := 0; round < 8; round++ {
					got, want := make([]byte, base+10), make([]byte, base+10)
					if round%2 == 1 { // OR into a buffer that is not zero
						for i := range got {
							got[i] = byte(next())
						}
						copy(want, got)
					}
					v := next()
					switch round {
					case 0:
						v = ^uint64(0)
					case 2:
						v = 0
					}
					gotOff := packBits(got, off, v, width)
					wantOff := packBitsRef(want, off, v, width)
					if gotOff != wantOff || !bytes.Equal(got, want) {
						t.Fatalf("packBits(off=%d, v=%#x, width=%d) = %x off %d, reference %x off %d",
							off, v, width, got, gotOff, want, wantOff)
					}
					gv, gOff := unpackBits(got, off, width)
					wv, wOff := unpackBitsRef(got, off, width)
					if gv != wv || gOff != wOff {
						t.Fatalf("unpackBits(%x, off=%d, width=%d) = %#x off %d, reference %#x off %d",
							got, off, width, gv, gOff, wv, wOff)
					}
				}
			}
		}
	}
}
