// Package p4rt models the P4Runtime-facing plumbing of a programmable
// switch: the p4info catalog that names data-plane objects (registers get
// numeric IDs the controller uses and names the SDK resolves), and the
// binary framing of the control channel (register RPCs, PacketOut,
// PacketIn).
//
// The real protocol is protobuf over gRPC; this model keeps the same
// roles — IDs vs names, per-field request composition, stream messages
// wrapping opaque packets — with a compact deterministic encoding, so the
// relative costs of composing reads (index only) versus writes (index and
// data) remain visible, which is what Fig. 18/19 of the paper measures.
package p4rt

import (
	"encoding/binary"
	"fmt"

	"p4auth/internal/pisa"
)

// RegisterInfo describes one register in p4info.
type RegisterInfo struct {
	ID      uint32
	Name    string
	Width   int
	Entries int
}

// P4Info is the compiled program's object catalog.
type P4Info struct {
	Program   string
	Registers []RegisterInfo

	byID   map[uint32]*RegisterInfo
	byName map[string]*RegisterInfo
}

// registerIDBase matches the P4Runtime convention of prefixing object IDs
// with a resource-type byte.
const registerIDBase = 0x05000000

// RegisterID is the p4info ID of the register a program declares at
// index i: IDs follow declaration order.
func RegisterID(i int) uint32 { return registerIDBase + uint32(i) + 1 }

// InfoOf returns the compilation's p4info. It is built once per
// compilation and shared by every switch of it, so it lives exactly as
// long as the compilation does; callers only read it.
func InfoOf(c *pisa.Compiled) *P4Info {
	return c.Catalog(func(p *pisa.Program) any { return InfoFromProgram(p) }).(*P4Info)
}

// InfoFromProgram builds p4info for a pisa program, assigning register IDs
// deterministically in declaration order.
func InfoFromProgram(prog *pisa.Program) *P4Info {
	info := &P4Info{
		Program: prog.Name,
		byID:    make(map[uint32]*RegisterInfo),
		byName:  make(map[string]*RegisterInfo),
	}
	for i, r := range prog.Registers {
		info.Registers = append(info.Registers, RegisterInfo{
			ID:      RegisterID(i),
			Name:    r.Name,
			Width:   r.Width,
			Entries: r.Entries,
		})
	}
	for i := range info.Registers {
		ri := &info.Registers[i]
		info.byID[ri.ID] = ri
		info.byName[ri.Name] = ri
	}
	return info
}

// RegisterByID resolves a register ID, as the switch SDK does.
func (p *P4Info) RegisterByID(id uint32) (*RegisterInfo, error) {
	ri, ok := p.byID[id]
	if !ok {
		return nil, fmt.Errorf("p4rt: unknown register id %#x", id)
	}
	return ri, nil
}

// RegisterByName resolves a register name, as the controller does when it
// loads p4info.
func (p *P4Info) RegisterByName(name string) (*RegisterInfo, error) {
	ri, ok := p.byName[name]
	if !ok {
		return nil, fmt.Errorf("p4rt: unknown register %q", name)
	}
	return ri, nil
}

// MsgType tags a stream message.
type MsgType uint8

// Stream message types.
const (
	MsgRegisterWrite MsgType = iota + 1
	MsgRegisterRead
	MsgReadResponse
	MsgWriteResponse
	MsgPacketOut
	MsgPacketIn
)

// Message is one frame on the controller-switch stream.
type Message struct {
	Type MsgType
	// Register RPC fields.
	RegID uint32
	Index uint32
	Value uint64
	OK    bool
	// PacketOut/PacketIn payload.
	Payload []byte
}

const headerLen = 1 + 4 // type + payload length

// Encode serializes the message (fixed header, then typed body).
func (m *Message) Encode() []byte {
	var body []byte
	switch m.Type {
	case MsgRegisterWrite:
		body = make([]byte, 16)
		binary.BigEndian.PutUint32(body[0:4], m.RegID)
		binary.BigEndian.PutUint32(body[4:8], m.Index)
		binary.BigEndian.PutUint64(body[8:16], m.Value)
	case MsgRegisterRead:
		body = make([]byte, 8)
		binary.BigEndian.PutUint32(body[0:4], m.RegID)
		binary.BigEndian.PutUint32(body[4:8], m.Index)
	case MsgReadResponse:
		body = make([]byte, 9)
		binary.BigEndian.PutUint64(body[0:8], m.Value)
		if m.OK {
			body[8] = 1
		}
	case MsgWriteResponse:
		body = make([]byte, 1)
		if m.OK {
			body[0] = 1
		}
	case MsgPacketOut, MsgPacketIn:
		body = m.Payload
	}
	out := make([]byte, headerLen+len(body))
	out[0] = byte(m.Type)
	binary.BigEndian.PutUint32(out[1:5], uint32(len(body)))
	copy(out[headerLen:], body)
	return out
}

// Decode parses one frame.
func Decode(data []byte) (*Message, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("p4rt: frame too short (%d bytes)", len(data))
	}
	m := &Message{Type: MsgType(data[0])}
	n := binary.BigEndian.Uint32(data[1:5])
	body := data[headerLen:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("p4rt: frame length %d, header says %d", len(body), n)
	}
	switch m.Type {
	case MsgRegisterWrite:
		if len(body) != 16 {
			return nil, fmt.Errorf("p4rt: register write body %d bytes, want 16", len(body))
		}
		m.RegID = binary.BigEndian.Uint32(body[0:4])
		m.Index = binary.BigEndian.Uint32(body[4:8])
		m.Value = binary.BigEndian.Uint64(body[8:16])
	case MsgRegisterRead:
		if len(body) != 8 {
			return nil, fmt.Errorf("p4rt: register read body %d bytes, want 8", len(body))
		}
		m.RegID = binary.BigEndian.Uint32(body[0:4])
		m.Index = binary.BigEndian.Uint32(body[4:8])
	case MsgReadResponse:
		if len(body) != 9 {
			return nil, fmt.Errorf("p4rt: read response body %d bytes, want 9", len(body))
		}
		m.Value = binary.BigEndian.Uint64(body[0:8])
		m.OK = body[8] == 1
	case MsgWriteResponse:
		if len(body) != 1 {
			return nil, fmt.Errorf("p4rt: write response body %d bytes, want 1", len(body))
		}
		m.OK = body[0] == 1
	case MsgPacketOut, MsgPacketIn:
		m.Payload = append([]byte(nil), body...)
	default:
		return nil, fmt.Errorf("p4rt: unknown message type %d", data[0])
	}
	// Encode writes a response flag as 0 or 1; any other byte would not
	// re-encode to this frame.
	if (m.Type == MsgReadResponse || m.Type == MsgWriteResponse) && body[len(body)-1] > 1 {
		return nil, fmt.Errorf("p4rt: response flag %d, want 0 or 1", body[len(body)-1])
	}
	return m, nil
}
