package pisa_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"p4auth/internal/pisa"
)

// Register-lane fuzz input: one byte for the register count (1-4), two
// per register (width 1-64, entries 1-70), then records of laneOpBytes:
// an op kind, a register, a 16-bit index and a 64-bit value.
const (
	laneOpBytes = 12
	laneMaxOps  = 64
	// laneOpKinds are the packet-path ops: RegRead, RegWrite and the four
	// RegRMW kinds, in that order. Kinds laneOpKinds and laneOpKinds+1
	// are the driver's RegisterRead and RegisterWrite.
	laneOpKinds = 6
)

var laneRMW = [...]pisa.RMWKind{pisa.RMWAdd, pisa.RMWWrite, pisa.RMWMax, pisa.RMWXor}

// laneProgram declares the registers and, per register and packet-path
// op, one gateway on h.sel that runs that op at h.idx with h.val as the
// operand and h.out as the destination.
func laneProgram(regs []*pisa.RegisterDef) *pisa.Program {
	h := func(f string) pisa.FieldRef { return pisa.F("h", f) }
	var control []pisa.Op
	for r, reg := range regs {
		ops := []pisa.Op{
			pisa.RegRead(h("out"), reg.Name, pisa.R(h("idx"))),
			pisa.RegWrite(reg.Name, pisa.R(h("idx")), pisa.R(h("val"))),
		}
		for _, k := range laneRMW {
			ops = append(ops, pisa.RegRMW(h("out"), reg.Name, pisa.R(h("idx")), k, pisa.R(h("val"))))
		}
		for k, op := range ops {
			control = append(control, pisa.If(pisa.Eq(pisa.R(h("sel")), pisa.C(uint64(r*laneOpKinds+k))), []pisa.Op{op}))
		}
	}
	control = append(control, pisa.Forward(pisa.C(1)))
	return &pisa.Program{
		Name: "lanes",
		Headers: []*pisa.HeaderDef{{Name: "h", Fields: []pisa.FieldDef{
			{Name: "sel", Width: 8},
			{Name: "idx", Width: 16},
			{Name: "val", Width: 64},
			{Name: "out", Width: 64},
		}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    regs,
		Control:      control,
	}
}

// laneSeed is a seed input: registers of width w with 70 entries (not a
// multiple of any lane count), 13 entries and one entry, beside an 8-bit
// register of 9 entries, and a splitmix-drawn op stream that keeps most
// indexes in range and most values wider than the register.
func laneSeed(w int) []byte {
	data := []byte{3, byte(w - 1), 69, byte(w - 1), 12, byte(w - 1), 0, 7, 8}
	r := corpusRNG(w)
	for i := 0; i < laneMaxOps; i++ {
		rec := make([]byte, laneOpBytes)
		rec[0] = byte(r.intn(laneOpKinds + 2))
		rec[1] = byte(r.intn(4))
		idx := r.intn(80)
		if r.intn(8) == 0 {
			idx = r.intn(1 << 16)
		}
		binary.BigEndian.PutUint16(rec[2:], uint16(idx))
		v := r.next()
		if r.intn(4) == 0 {
			v &= 0xff
		}
		binary.BigEndian.PutUint64(rec[4:], v)
		data = append(data, rec...)
	}
	return data
}

// FuzzRegisterLanes is differential: the input declares registers and a
// stream of register ops, by packet and by the driver path, and after
// every op each entry of each register must equal a plain [][]uint64
// reference whose writes are cut to the register's width. A packet-path
// index past a register's end wraps (and counts in reg_index_wrap); a
// driver-path one is an error and changes nothing.
func FuzzRegisterLanes(f *testing.F) {
	for _, w := range []int{1, 7, 8, 9, 16, 17, 32, 33, 48, 64} {
		f.Add(laneSeed(w))
	}
	f.Add([]byte{0, 63, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%4
		if len(data) < 1+2*n {
			return
		}
		regs := make([]*pisa.RegisterDef, n)
		for i := range regs {
			regs[i] = &pisa.RegisterDef{
				Name:    fmt.Sprintf("r%d", i),
				Width:   1 + int(data[1+2*i])%64,
				Entries: 1 + int(data[2+2*i])%70,
			}
		}
		sw, err := pisa.NewSwitch(laneProgram(regs), pisa.BMv2Profile())
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][]uint64, n)
		widthMask := make([]uint64, n)
		for i, r := range regs {
			ref[i] = make([]uint64, r.Entries)
			widthMask[i] = ^uint64(0) >> (64 - r.Width)
		}
		var wraps uint64
		var res pisa.Result
		ops := data[1+2*n:]
		for i := 0; i+laneOpBytes <= len(ops) && i < laneMaxOps*laneOpBytes; i += laneOpBytes {
			rec := ops[i : i+laneOpBytes]
			kind := int(rec[0]) % (laneOpKinds + 2)
			ri := int(rec[1]) % n
			idx := int(binary.BigEndian.Uint16(rec[2:]))
			val := binary.BigEndian.Uint64(rec[4:])
			reg, cells, m := regs[ri], ref[ri], widthMask[ri]
			switch kind {
			case laneOpKinds: // driver read
				got, err := sw.RegisterRead(reg.Name, idx)
				if idx >= reg.Entries {
					if err == nil {
						t.Fatalf("op %d: RegisterRead(%s, %d) of %d entries succeeded", i/laneOpBytes, reg.Name, idx, reg.Entries)
					}
				} else if err != nil || got != cells[idx] {
					t.Fatalf("op %d: RegisterRead(%s, %d) = %#x, %v; want %#x", i/laneOpBytes, reg.Name, idx, got, err, cells[idx])
				}
			case laneOpKinds + 1: // driver write
				err := sw.RegisterWrite(reg.Name, idx, val)
				if idx >= reg.Entries {
					if err == nil {
						t.Fatalf("op %d: RegisterWrite(%s, %d) of %d entries succeeded", i/laneOpBytes, reg.Name, idx, reg.Entries)
					}
				} else if err != nil {
					t.Fatalf("op %d: RegisterWrite(%s, %d): %v", i/laneOpBytes, reg.Name, idx, err)
				} else {
					cells[idx] = val & m
				}
			default:
				if idx >= reg.Entries {
					wraps++
				}
				cell := &cells[idx%reg.Entries]
				old := *cell
				switch kind {
				case 0:
				case 1:
					*cell = val & m
				default:
					switch laneRMW[kind-2] {
					case pisa.RMWAdd:
						*cell = (old + val) & m
					case pisa.RMWWrite:
						*cell = val & m
					case pisa.RMWMax:
						*cell = max(old, val) & m
					case pisa.RMWXor:
						*cell = (old ^ val) & m
					}
				}
				pkt := make([]byte, 19)
				pkt[0] = byte(ri*laneOpKinds + kind)
				binary.BigEndian.PutUint16(pkt[1:], uint16(idx))
				binary.BigEndian.PutUint64(pkt[3:], val)
				if err := sw.ProcessInto(pisa.Packet{Data: pkt, Port: 2}, &res); err != nil || len(res.Emissions) != 1 {
					t.Fatalf("op %d: %d emissions, err %v", i/laneOpBytes, len(res.Emissions), err)
				}
				// A write leaves h.out at zero; a read and every RMW
				// return the entry's old value.
				want := old
				if kind == 1 {
					want = 0
				}
				if got := binary.BigEndian.Uint64(res.Emissions[0].Data[11:]); got != want {
					t.Fatalf("op %d: %s on %s[%d] returned %#x, want %#x", i/laneOpBytes, laneOpName(kind), reg.Name, idx, got, want)
				}
			}
			for r, reg := range regs {
				for e, want := range ref[r] {
					if got, err := sw.RegisterRead(reg.Name, e); err != nil || got != want {
						t.Fatalf("after op %d (%s on %s[%d]): %s[%d] (width %d) = %#x, %v; want %#x",
							i/laneOpBytes, laneOpName(kind), regs[ri].Name, idx, reg.Name, e, reg.Width, got, err, want)
					}
				}
			}
		}
		if got := sw.Counter("reg_index_wrap"); got != wraps {
			t.Fatalf("reg_index_wrap = %d, want %d", got, wraps)
		}
	})
}

func laneOpName(kind int) string {
	switch kind {
	case 0:
		return "RegRead"
	case 1:
		return "RegWrite"
	case laneOpKinds:
		return "RegisterRead"
	case laneOpKinds + 1:
		return "RegisterWrite"
	}
	return fmt.Sprintf("RegRMW(%d)", laneRMW[kind-2])
}
