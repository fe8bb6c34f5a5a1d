package pisa

import "fmt"

// Packet is a raw packet: bytes on the wire plus the port it arrived on.
type Packet struct {
	// Data is the full packet, headers first.
	Data []byte
	// Port is the ingress port. Use CPUPort for PacketOut injections.
	Port int
}

// Clone returns a deep copy of the packet.
func (p Packet) Clone() Packet {
	d := make([]byte, len(p.Data))
	copy(d, p.Data)
	return Packet{Data: d, Port: p.Port}
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
