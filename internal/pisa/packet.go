package pisa

import (
	"encoding/binary"
	"fmt"
)

// Packet is a raw packet: bytes on the wire plus the port it arrived on.
type Packet struct {
	// Data is the full packet, headers first.
	Data []byte
	// Port is the ingress port. Use CPUPort for PacketOut injections.
	Port int
}

// packBits ORs the low `width` bits of v into buf starting at bit offset
// off (MSB-first), returning the new offset. It moves whole bytes: a
// partial first byte, full bytes, a partial last byte.
func packBits(buf []byte, off int, v uint64, width int) int {
	v &= mask(width)
	i, end := off>>3, off+width
	room := 8 - off&7 // bits free in the first byte
	if width <= room {
		buf[i] |= byte(v << uint(room-width))
		return end
	}
	rem := width - room
	buf[i] |= byte(v >> uint(rem))
	for rem >= 8 {
		i++
		rem -= 8
		buf[i] |= byte(v >> uint(rem))
	}
	if rem > 0 {
		buf[i+1] |= byte(v << uint(8-rem))
	}
	return end
}

// unpackBits reads `width` bits from buf starting at bit offset off
// (MSB-first), whole bytes at a time.
func unpackBits(buf []byte, off, width int) (uint64, int) {
	i, end := off>>3, off+width
	have := 8 - off&7 // bits taken from the first byte
	v := uint64(buf[i]) & (0xff >> uint(off&7))
	if width <= have {
		return v >> uint(have-width), end
	}
	rem := width - have
	for ; rem >= 8; rem -= 8 {
		i++
		v = v<<8 | uint64(buf[i])
	}
	if rem > 0 {
		v = v<<uint(rem) | uint64(buf[i+1])>>uint(8-rem)
	}
	return v, end
}

// loadFields reads the fields of a byte plan out of buf into the value
// file: whole big-endian bytes where the plan says so, the bit codec
// elsewhere. buf holds at least the bytes the plan covers.
func loadFields(plan []move, buf []byte, vals []uint64) {
	for i := range plan {
		m := &plan[i]
		b := buf[m.off>>3:]
		switch m.bytes {
		case 1:
			vals[m.src] = uint64(b[0])
		case 2:
			vals[m.src] = uint64(binary.BigEndian.Uint16(b))
		case 4:
			vals[m.src] = uint64(binary.BigEndian.Uint32(b))
		case 8:
			vals[m.src] = binary.BigEndian.Uint64(b)
		default:
			vals[m.src], _ = unpackBits(buf, int(m.off), int(m.width))
		}
	}
}

// packFields ORs the fields of a byte plan from the value file into buf,
// each cut to its width, as packBits would field by field.
func packFields(plan []move, buf []byte, vals []uint64) {
	for i := range plan {
		m := &plan[i]
		b := buf[m.off>>3:]
		v := vals[m.src]
		switch m.bytes {
		case 1:
			b[0] |= byte(v)
		case 2:
			binary.BigEndian.PutUint16(b, binary.BigEndian.Uint16(b)|uint16(v))
		case 4:
			binary.BigEndian.PutUint32(b, binary.BigEndian.Uint32(b)|uint32(v))
		case 8:
			binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)|v)
		default:
			packBits(buf, int(m.off), v, int(m.width))
		}
	}
}

// PackHeader serializes field values (in declaration order) per the header
// definition, MSB-first.
func PackHeader(def *HeaderDef, values []uint64) ([]byte, error) {
	if len(values) != len(def.Fields) {
		return nil, fmt.Errorf("pisa: header %s: got %d values for %d fields", def.Name, len(values), len(def.Fields))
	}
	buf := make([]byte, def.Bytes())
	off := 0
	for i, f := range def.Fields {
		off = packBits(buf, off, values[i], f.Width)
	}
	return buf, nil
}

// UnpackHeader parses a header's field values from the front of data.
func UnpackHeader(def *HeaderDef, data []byte) ([]uint64, error) {
	if len(data) < def.Bytes() {
		return nil, fmt.Errorf("pisa: header %s needs %d bytes, packet has %d", def.Name, def.Bytes(), len(data))
	}
	values := make([]uint64, len(def.Fields))
	off := 0
	for i, f := range def.Fields {
		values[i], off = unpackBits(data, off, f.Width)
	}
	return values, nil
}
