package pisa

import (
	"bytes"
	"fmt"
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

// refRNG is the xorshift stream the codec reference tests draw from.
type refRNG uint64

func (r *refRNG) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

// checkPlan holds one byte plan equal to the bit-at-a-time reference on
// fields of the given widths laid end to end: packFields into zeroed and
// into non-zero buffers (it ORs, as packBits does) from values wider than
// their fields, loadFields back out, and the whole-byte steps chosen for
// exactly the 1, 2, 4 and 8-byte fields that sit on byte boundaries.
func checkPlan(t *testing.T, name string, plan []move, widths []int, r *refRNG) {
	t.Helper()
	if len(plan) != len(widths) {
		t.Fatalf("%s: plan has %d steps for %d fields", name, len(plan), len(widths))
	}
	off, nvals := 0, 0
	for i, m := range plan {
		w := widths[i]
		wantBytes := 0
		if off%8 == 0 && (w == 8 || w == 16 || w == 32 || w == 64) {
			wantBytes = w / 8
		}
		if int(m.off) != off || int(m.width) != w || int(m.bytes) != wantBytes {
			t.Fatalf("%s step %d: {off %d, width %d, bytes %d}, want {%d, %d, %d}", name, i, m.off, m.width, m.bytes, off, w, wantBytes)
		}
		off += w
		nvals = max(nvals, int(m.src)+1)
	}
	if got, want := planBytes(plan), (off+7)/8; got != want {
		t.Fatalf("%s: planBytes = %d, want %d", name, got, want)
	}
	for round := 0; round < 8; round++ {
		got, want := make([]byte, (off+7)/8+2), make([]byte, (off+7)/8+2)
		if round%2 == 1 {
			for i := range got {
				got[i] = byte(r.next())
			}
			copy(want, got)
		}
		vals := make([]uint64, nvals)
		for i := range vals {
			vals[i] = r.next()
			switch round {
			case 0:
				vals[i] = ^uint64(0)
			case 2:
				vals[i] = 0
			}
		}
		packFields(plan, got, vals)
		o := 0
		for i, m := range plan {
			o = packBitsRef(want, o, vals[m.src], widths[i])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s round %d: packFields = %x, reference %x", name, round, got, want)
		}
		loaded, ref := make([]uint64, nvals), make([]uint64, nvals)
		loadFields(plan, got, loaded)
		o = 0
		for i, m := range plan {
			ref[m.src], o = unpackBitsRef(got, o, widths[i])
		}
		for i := range ref {
			if loaded[i] != ref[i] {
				t.Fatalf("%s round %d: loadFields(%x) value %d = %#x, reference %#x", name, round, got, i, loaded[i], ref[i])
			}
		}
	}
}

// checkCompiledPlans runs checkPlan over every header of a compiled
// program and every hash op's pack plan (the corpus test in the external
// package reaches it through export_test.go).
func checkCompiledPlans(t *testing.T, c *Compiled) {
	t.Helper()
	r := refRNG(0x13198a2e03707344)
	for hi, def := range c.Program.Headers {
		h := c.headers[hi]
		widths := make([]int, len(def.Fields))
		for i, f := range def.Fields {
			widths[i] = f.Width
			if h.plan[i].src != h.first+int32(i) {
				t.Fatalf("%s.%s: plan moves slot %d, want %d", def.Name, f.Name, h.plan[i].src, h.first+int32(i))
			}
		}
		checkPlan(t, c.Program.Name+"."+def.Name, h.plan, widths, &r)
	}
	for pc, op := range c.code {
		if OpKind(op.kind) != OpHash {
			continue
		}
		// The linker resolved each input's width; what is held here is
		// the layout it derived from them and the codec over it.
		plan := c.hashIns[op.x:op.b]
		widths := make([]int, len(plan))
		for i, m := range plan {
			widths[i] = int(m.width)
		}
		checkPlan(t, fmt.Sprintf("%s hash at %d", c.Program.Name, pc), plan, widths, &r)
	}
}

// TestBitCodecMatchesReference holds the byte-wise codec equal to the
// reference for every width and bit offset, OR-ing into buffers that
// already carry bits and packing values wider than the field, and the
// byte plans the linker builds on top of it equal to the same reference
// on a header that mixes 1..7-bit runs with whole-byte fields on and off
// byte boundaries.
func TestBitCodecMatchesReference(t *testing.T) {
	var fields []FieldDef
	for i, w := range []int{
		1, 7, 8, 3, 5, 16, 2, 6, 32, 4, 4, 48, 5, 3, 64, 6, 2, 8, 8,
		4, 16, 4, 24, 40, 56, 7, 1, 64, 32, 16, 8, 4, 64, 4, 3, 32, 5, 2, 8, 6,
	} {
		fields = append(fields, FieldDef{Name: fmt.Sprintf("f%d", i), Width: w})
	}
	mixed := &Program{
		Name:         "mixed",
		Headers:      []*HeaderDef{{Name: "h", Fields: fields}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Metadata:     []FieldDef{{Name: "d", Width: 32}},
		Control: []Op{
			Hash(F(MetaHeader, "d"), HashCRC32, R(F("h", "f0")), R(F("h", "f1")), R(F("h", "f5")), C(7), R(F("h", "f3")), R(F("h", "f8"))),
		},
	}
	compiled, err := Compile(mixed, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	checkCompiledPlans(t, compiled)

	rng := refRNG(0x243f6a8885a308d3)
	next := rng.next
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
