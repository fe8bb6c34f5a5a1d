// Package core implements the P4Auth protocol (DSN 2025): the
// authentication header and digest rules of §V, the key-management
// messages of §VI (EAK, ADHKD, KMP), the versioned key store for
// consistent key rollover, and — most importantly — the P4Auth data-plane
// program of §VII, built on the internal/pisa substrate so that every
// check the paper runs in the switch pipeline runs in a modeled pipeline
// here, under the same operation and resource constraints.
//
// Wire format of a P4Auth message:
//
//	ptype(1B) | pa_h(11B) | payload
//
//	pa_h:    hdrType(8) msgType(8) seqNum(32) keyVersion(8) digest(32)
//	pa_reg:  regID(32) index(32) value(64)                 (register ops, alerts)
//	pa_kx:   port(16) pk(64) salt(32) phase(8)             (key exchange)
//
// The digest (Eqn. 4) is the keyed hash of the header fields (digest
// excluded) followed by the payload fields (the internal phase field
// excluded), packed MSB-first at field width — exactly the bytes a
// pipeline hash unit consumes, so the controller-side computation in this
// package and the data-plane computation in the generated program agree
// bit for bit.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

// PTypeP4Auth is the packet-type tag that routes a packet into the P4Auth
// parser branch. Host programs reserve the 1-byte ptype header; their own
// traffic uses other values.
const PTypeP4Auth = 0xA1

// Header, payload, and internal header names in generated programs.
const (
	HdrPType = "ptype"
	HdrAuth  = "pa_h"
	HdrReg   = "pa_reg"
	HdrKx    = "pa_kx"
	HdrInt   = "pa_int"
)

// HdrType values (Fig. 7).
const (
	// HdrRegister tags register read/write requests and their responses.
	HdrRegister = 1
	// HdrAlert tags data-plane alerts to the controller.
	HdrAlert = 2
	// HdrKeyExch tags key-management messages.
	HdrKeyExch = 3
	// HdrFeedback tags DP-DP in-network feedback (e.g. HULA probes); the
	// feedback body is a host-program header registered as an auxiliary
	// digest payload.
	HdrFeedback = 4
)

// Register msgType values.
const (
	MsgReadReq  = 1
	MsgWriteReq = 2
	MsgAck      = 3
	MsgNAck     = 4
)

// Key-exchange msgType values.
const (
	MsgEAKSalt1       = 1
	MsgEAKSalt2       = 2
	MsgADHKD1         = 3
	MsgADHKD2         = 4
	MsgPortKeyInit    = 5
	MsgPortKeyUpdate  = 6
	MsgKeyAck         = 7
	MsgLocalKeyUpdate = 8 // controller command preceding a local ADHKD
)

// Alert msgType values (reasons).
const (
	AlertBadDigest = 1
	AlertReplay    = 2
	// AlertUnreachable is controller-originated: a switch exhausted its
	// retransmission budget repeatedly and was circuit-broken (quarantined).
	AlertUnreachable = 3
)

// Feedback msgType.
const MsgProbe = 1

// KeyIndexLocal is the key-register slot of the local (controller) key;
// port keys live at their port number.
const KeyIndexLocal = 0

// Exchange phase values carried in pa_kx.phase (recirculation state).
const (
	PhaseVerify  = 0 // on-the-wire phase: verify and dispatch
	PhaseInstall = 1 // derive via KDF and install the new key
	PhaseForward = 2 // sign and forward an initiator ADHKD1
)

// PTypeHeader returns the shared 1-byte packet-type header definition.
func PTypeHeader() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrPType, Fields: []pisa.FieldDef{{Name: "v", Width: 8}}}
}

// AuthHeader returns the pa_h definition.
func AuthHeader() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrAuth, Fields: []pisa.FieldDef{
		{Name: "hdrType", Width: 8},
		{Name: "msgType", Width: 8},
		{Name: "seqNum", Width: 32},
		{Name: "keyVersion", Width: 8},
		{Name: "digest", Width: 32},
	}}
}

// RegPayloadHeader returns the pa_reg definition.
func RegPayloadHeader() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrReg, Fields: []pisa.FieldDef{
		{Name: "regid", Width: 32},
		{Name: "index", Width: 32},
		{Name: "value", Width: 64},
	}}
}

// KxPayloadHeader returns the pa_kx definition.
func KxPayloadHeader() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrKx, Fields: []pisa.FieldDef{
		{Name: "port", Width: 16},
		{Name: "pk", Width: 64},
		{Name: "salt", Width: 32},
		{Name: "phase", Width: 8},
	}}
}

// IntHeader returns the recirculation-internal pa_int definition (never on
// the wire: invalidated before final deparse).
func IntHeader() *pisa.HeaderDef {
	return &pisa.HeaderDef{Name: HdrInt, Fields: []pisa.FieldDef{
		{Name: "newkey", Width: 64},
		{Name: "s1", Width: 32},
		{Name: "idx", Width: 16},
		{Name: "inport", Width: 16},
		{Name: "resp", Width: 8},
	}}
}

// Header is the Go-side pa_h.
type Header struct {
	HdrType    uint8
	MsgType    uint8
	SeqNum     uint32
	KeyVersion uint8
	Digest     uint32
}

// RegPayload is the Go-side pa_reg.
type RegPayload struct {
	RegID uint32
	Index uint32
	Value uint64
}

// KxPayload is the Go-side pa_kx.
type KxPayload struct {
	Port  uint16
	PK    uint64
	Salt  uint32
	Phase uint8
}

// Message is a complete P4Auth message. Exactly one payload pointer should
// be set, matching HdrType (alerts carry a RegPayload whose Value holds
// the reason metadata).
type Message struct {
	Header
	Reg *RegPayload
	Kx  *KxPayload
	// Aux is an opaque feedback body (HdrFeedback): the host protocol's
	// header bytes, e.g. a HULA probe. It follows pa_h on the wire.
	Aux []byte
}

var (
	ptypeDef = PTypeHeader()
	authDef  = AuthHeader()
	regDef   = RegPayloadHeader()
	kxDef    = KxPayloadHeader()
)

// Wire sizes. Every field in the P4Auth headers is byte-aligned, so the
// hot-path codec writes bytes directly instead of going through the
// bit-packing pisa.PackHeader/UnpackHeader (which allocate per call). The
// generated-program header definitions above stay the source of truth;
// TestWireCodecEquivalence pins the direct codec to the packed one.
const (
	authWireBytes = 11 // hdrType(1) msgType(1) seqNum(4) keyVersion(1) digest(4)
	regWireBytes  = 16 // regid(4) index(4) value(8)
	kxWireBytes   = 15 // port(2) pk(8) salt(4) phase(1)

	// minWireBytes is the shortest P4Auth message: ptype(1) and pa_h.
	minWireBytes = 1 + authWireBytes
)

// AppendEncode serializes ptype + pa_h + payload into dst and returns the
// extended slice. It never allocates beyond growing dst.
func (m *Message) AppendEncode(dst []byte) []byte {
	dst = append(dst, PTypeP4Auth, m.HdrType, m.MsgType)
	dst = binary.BigEndian.AppendUint32(dst, m.SeqNum)
	dst = append(dst, m.KeyVersion)
	dst = binary.BigEndian.AppendUint32(dst, m.Digest)
	switch {
	case m.Reg != nil:
		dst = binary.BigEndian.AppendUint32(dst, m.Reg.RegID)
		dst = binary.BigEndian.AppendUint32(dst, m.Reg.Index)
		dst = binary.BigEndian.AppendUint64(dst, m.Reg.Value)
	case m.Kx != nil:
		dst = binary.BigEndian.AppendUint16(dst, m.Kx.Port)
		dst = binary.BigEndian.AppendUint64(dst, m.Kx.PK)
		dst = binary.BigEndian.AppendUint32(dst, m.Kx.Salt)
		dst = append(dst, m.Kx.Phase)
	case m.Aux != nil:
		dst = append(dst, m.Aux...)
	}
	return dst
}

// Encode serializes ptype + pa_h + payload.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(nil), nil
}

// decodeInto parses data into m, using reg/kx as payload storage so a
// caller that owns them can decode without allocating. On return exactly
// one of m.Reg/m.Kx/m.Aux is populated (matching HdrType).
func decodeInto(m *Message, reg *RegPayload, kx *KxPayload, data []byte) error {
	if len(data) < minWireBytes {
		return fmt.Errorf("core: message truncated: %d bytes", len(data))
	}
	if data[0] != PTypeP4Auth {
		return fmt.Errorf("core: ptype %#x is not a P4Auth message", data[0])
	}
	b := data[1:]
	m.HdrType = b[0]
	m.MsgType = b[1]
	m.SeqNum = binary.BigEndian.Uint32(b[2:6])
	m.KeyVersion = b[6]
	m.Digest = binary.BigEndian.Uint32(b[7:11])
	body := b[authWireBytes:]
	m.Reg, m.Kx, m.Aux = nil, nil, m.Aux[:0]
	switch m.HdrType {
	case HdrRegister, HdrAlert:
		if len(body) < regWireBytes {
			return fmt.Errorf("core: pa_reg truncated: %d bytes", len(body))
		}
		reg.RegID = binary.BigEndian.Uint32(body[0:4])
		reg.Index = binary.BigEndian.Uint32(body[4:8])
		reg.Value = binary.BigEndian.Uint64(body[8:16])
		m.Reg = reg
	case HdrKeyExch:
		if len(body) < kxWireBytes {
			return fmt.Errorf("core: pa_kx truncated: %d bytes", len(body))
		}
		kx.Port = binary.BigEndian.Uint16(body[0:2])
		kx.PK = binary.BigEndian.Uint64(body[2:10])
		kx.Salt = binary.BigEndian.Uint32(body[10:14])
		kx.Phase = body[14]
		m.Kx = kx
	case HdrFeedback:
		m.Aux = append(m.Aux, body...)
	default:
		return fmt.Errorf("core: unknown hdrType %d", m.HdrType)
	}
	return nil
}

// DecodeMessage parses a P4Auth message from the wire into fresh storage.
func DecodeMessage(data []byte) (*Message, error) {
	m := &Message{}
	if err := decodeInto(m, &RegPayload{}, &KxPayload{}, data); err != nil {
		return nil, err
	}
	return m, nil
}

// MessageBuf is a reusable decode target: Decode parses into storage owned
// by the buffer, so steady-state decoding does not allocate. The returned
// *Message (and its payload) is valid until the next Decode on the same
// buffer; callers that retain a message across decodes must copy it.
type MessageBuf struct {
	msg Message
	reg RegPayload
	kx  KxPayload
}

// Decode parses data into the buffer's storage.
func (b *MessageBuf) Decode(data []byte) (*Message, error) {
	if err := decodeInto(&b.msg, &b.reg, &b.kx, data); err != nil {
		return nil, err
	}
	return &b.msg, nil
}

// digestHdrDef packs the digest-covered header fields (digest excluded).
var digestHdrDef = &pisa.HeaderDef{Name: "dig_h", Fields: []pisa.FieldDef{
	{Name: "hdrType", Width: 8},
	{Name: "msgType", Width: 8},
	{Name: "seqNum", Width: 32},
	{Name: "keyVersion", Width: 8},
}}

// digestRegDef and digestKxDef pack the digest-covered payload fields
// (phase excluded for kx).
var (
	digestRegDef = &pisa.HeaderDef{Name: "dig_reg", Fields: regDef.Fields}
	digestKxDef  = &pisa.HeaderDef{Name: "dig_kx", Fields: kxDef.Fields[:3]}
)

// AppendDigestInput appends the exact bytes the digest is computed over
// (header fields with the digest excluded, then the payload fields with
// the kx phase excluded) and returns the extended slice.
func (m *Message) AppendDigestInput(dst []byte) []byte {
	dst = append(dst, m.HdrType, m.MsgType)
	dst = binary.BigEndian.AppendUint32(dst, m.SeqNum)
	dst = append(dst, m.KeyVersion)
	switch {
	case m.Reg != nil:
		dst = binary.BigEndian.AppendUint32(dst, m.Reg.RegID)
		dst = binary.BigEndian.AppendUint32(dst, m.Reg.Index)
		dst = binary.BigEndian.AppendUint64(dst, m.Reg.Value)
	case m.Kx != nil:
		dst = binary.BigEndian.AppendUint16(dst, m.Kx.Port)
		dst = binary.BigEndian.AppendUint64(dst, m.Kx.PK)
		dst = binary.BigEndian.AppendUint32(dst, m.Kx.Salt)
	case m.Aux != nil:
		dst = append(dst, m.Aux...)
	}
	return dst
}

// DigestInput returns the exact bytes the digest is computed over.
func (m *Message) DigestInput() ([]byte, error) {
	return m.AppendDigestInput(nil), nil
}

// digestScratch pools the sign/verify input buffer so the hot path does
// not allocate per message.
var digestScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

// Sign computes and sets the digest under key.
func (m *Message) Sign(d crypto.PRF32, key uint64) error {
	bp := digestScratch.Get().(*[]byte)
	m.SignBuf(d, key, bp)
	digestScratch.Put(bp)
	return nil
}

// Verify recomputes the digest under key and compares in constant time.
func (m *Message) Verify(d crypto.PRF32, key uint64) bool {
	bp := digestScratch.Get().(*[]byte)
	ok := m.VerifyBuf(d, key, bp)
	digestScratch.Put(bp)
	return ok
}

// SignBuf is Sign with the digest input built in a buffer the caller owns
// (and keeps, grown if need be, for the next message): a caller that
// already serializes its messages, as a controller handle does under its
// operation lock, pays no pool round trip.
func (m *Message) SignBuf(d crypto.PRF32, key uint64, buf *[]byte) {
	*buf = m.AppendDigestInput((*buf)[:0])
	m.Digest = d.Sum32(key, *buf)
}

// VerifyBuf is Verify with a caller-owned digest-input buffer, as SignBuf.
func (m *Message) VerifyBuf(d crypto.PRF32, key uint64, buf *[]byte) bool {
	*buf = m.AppendDigestInput((*buf)[:0])
	return crypto.Verify(d, key, *buf, m.Digest)
}
