package pisa

import (
	"fmt"
	"strings"
)

// FieldDef declares one field of a header or metadata block. Widths up to
// 64 bits are supported; the compiler charges fields wider than the
// target's ALU width as multiple ALU/PHV containers.
type FieldDef struct {
	Name  string
	Width int // bits, 1..64
}

// HeaderDef declares a packet header: an ordered list of fields packed
// MSB-first on the wire. The total width must be a whole number of bytes.
type HeaderDef struct {
	Name   string
	Fields []FieldDef
}

// Bits returns the total header width in bits.
func (h *HeaderDef) Bits() int {
	total := 0
	for _, f := range h.Fields {
		total += f.Width
	}
	return total
}

// Bytes returns the header length in bytes.
func (h *HeaderDef) Bytes() int { return h.Bits() / 8 }

func (h *HeaderDef) validate() error {
	if h.Name == "" {
		return fmt.Errorf("pisa: header with empty name")
	}
	seen := make(map[string]bool, len(h.Fields))
	for _, f := range h.Fields {
		if f.Width < 1 || f.Width > 64 {
			return fmt.Errorf("pisa: header %s field %s: width %d out of range [1,64]", h.Name, f.Name, f.Width)
		}
		if seen[f.Name] {
			return fmt.Errorf("pisa: header %s: duplicate field %s", h.Name, f.Name)
		}
		seen[f.Name] = true
	}
	if h.Bits()%8 != 0 {
		return fmt.Errorf("pisa: header %s: total width %d bits is not byte-aligned", h.Name, h.Bits())
	}
	return nil
}

// FieldRef names a field as "header.field" ("meta.field" for metadata).
// References are resolved to dense slots at compile time.
type FieldRef string

// F builds a FieldRef from a header and field name.
func F(header, field string) FieldRef {
	return FieldRef(header + "." + field)
}

func (r FieldRef) split() (header, field string, err error) {
	i := strings.IndexByte(string(r), '.')
	if i <= 0 || i == len(r)-1 {
		return "", "", fmt.Errorf("pisa: malformed field reference %q (want header.field)", string(r))
	}
	return string(r[:i]), string(r[i+1:]), nil
}

// MetaHeader is the reserved name of the per-packet metadata block. The
// standard intrinsic fields below always exist.
const MetaHeader = "meta"

// ArgHeader is the reserved pseudo-header exposing Program.Args.
const ArgHeader = "arg"

// Intrinsic metadata fields present in every program.
const (
	MetaIngressPort = "ingress_port" // port the packet arrived on
	MetaEgressPort  = "egress_port"  // chosen output port
	MetaDrop        = "drop"         // 1 = drop at deparse
	MetaToCPU       = "to_cpu"       // 1 = emit on the CPU port (PacketIn)
	MetaRecirc      = "recirc"       // 1 = recirculate for another pass
	MetaMcastGroup  = "mcast_group"  // nonzero = replicate to group ports
	MetaPass        = "pass"         // recirculation pass counter (read-only)
	MetaTimestamp   = "timestamp"    // ingress timestamp (ns), from SetNow
	MetaPktLen      = "pkt_len"      // packet length in bytes
)

func intrinsicMetadata() []FieldDef {
	return []FieldDef{
		{Name: MetaIngressPort, Width: 16},
		{Name: MetaEgressPort, Width: 16},
		{Name: MetaDrop, Width: 1},
		{Name: MetaToCPU, Width: 1},
		{Name: MetaRecirc, Width: 1},
		{Name: MetaMcastGroup, Width: 16},
		{Name: MetaPass, Width: 8},
		{Name: MetaTimestamp, Width: 48},
		{Name: MetaPktLen, Width: 16},
	}
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}
