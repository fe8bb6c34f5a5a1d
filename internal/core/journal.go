package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
)

// Write-ahead journal entry codec. The controller records every
// authenticated register write in a durable journal BEFORE putting it on
// the wire, so a crash mid-write leaves evidence: on restart the recovery
// protocol finds the intent, reads the register back under the restored
// key, and either confirms the write landed or re-drives it. Entries use
// the same magic/version/CRC armour as the snapshots — a torn journal
// record is detected, not replayed.

const (
	walMagic   = 0x5041574A // "PAWJ": P4Auth Write Journal
	walVersion = 1
)

// WriteState is a journal entry's position in the intent → applied/failed
// lifecycle. Entries in WriteIntent only survive a crash: a live
// controller settles every write to applied (deleted) or failed before
// returning to its caller.
type WriteState uint8

const (
	// WriteIntent: recorded before the wire send; outcome unknown.
	WriteIntent WriteState = iota
	// WriteApplied: confirmed on the switch (normally deleted instead).
	WriteApplied
	// WriteFailed: definitively not applied, kept for the operator.
	WriteFailed
)

func (s WriteState) String() string {
	switch s {
	case WriteIntent:
		return "intent"
	case WriteApplied:
		return "applied"
	case WriteFailed:
		return "failed"
	}
	return fmt.Sprintf("WriteState(%d)", int(s))
}

// JournalEntry is one journaled register write.
type JournalEntry struct {
	ID       uint64
	Switch   string
	Register string
	Index    uint32
	Value    uint64
	State    WriteState
}

// Encode serializes the entry with a trailing CRC32.
func (e *JournalEntry) Encode() []byte {
	return e.AppendEncode(make([]byte, 0, 48+len(e.Switch)+len(e.Register)))
}

// AppendEncode appends the entry's encoding to dst and returns the
// extended slice, so a caller can encode into a buffer it reuses. The CRC
// covers the appended record only.
func (e *JournalEntry) AppendEncode(dst []byte) []byte {
	start := len(dst)
	b := binary.BigEndian.AppendUint32(dst, walMagic)
	b = append(b, walVersion)
	b = binary.BigEndian.AppendUint64(b, e.ID)
	b = append(b, byte(e.State))
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Switch)))
	b = append(b, e.Switch...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Register)))
	b = append(b, e.Register...)
	b = binary.BigEndian.AppendUint32(b, e.Index)
	b = binary.BigEndian.AppendUint64(b, e.Value)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// DecodeJournalEntry parses and checksum-verifies an encoded entry.
func DecodeJournalEntry(b []byte) (*JournalEntry, error) {
	body, err := checkCRC(b, walMagic, walVersion, "journal entry")
	if err != nil {
		return nil, err
	}
	r := reader{b: body}
	e := &JournalEntry{ID: r.u64(), State: WriteState(r.u8())}
	e.Switch = r.str()
	e.Register = r.str()
	e.Index = r.u32()
	e.Value = r.u64()
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated journal entry: %w", r.err)
	}
	if e.State > WriteFailed {
		return nil, fmt.Errorf("core: journal entry has unknown state %d", uint8(e.State))
	}
	return e, nil
}

// Dump renders the entry for operators (p4auth-inspect journal).
func (e *JournalEntry) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal entry %016x  %-7s  %s: %s[%d] <- %#x",
		e.ID, e.State, e.Switch, e.Register, e.Index, e.Value)
	return b.String()
}

// Batch (group-commit) journal records. The pipelined transport journals
// one record per windowed batch instead of one per write: a single
// durable Save covers the whole window's intents, and a single settle
// rewrites (or deletes) it. Per-entry exactly-once-or-failed is
// preserved — each write inside the record carries its own WriteState,
// and recovery read-back disambiguates each intent independently.
const walBatchMagic = 0x50415742 // "PAWB": P4Auth Write Batch

// BatchWrite is one write inside a batch journal record.
type BatchWrite struct {
	Register string
	Index    uint32
	Value    uint64
	State    WriteState
}

// JournalBatch is one journaled window of register writes toward a
// single switch, committed as one durable record.
type JournalBatch struct {
	ID     uint64
	Switch string
	Writes []BatchWrite
}

// Encode serializes the batch with the same magic/version/CRC armour as
// single entries (distinct magic, so decoders can tell them apart).
func (e *JournalBatch) Encode() []byte {
	n := 32 + len(e.Switch)
	for i := range e.Writes {
		n += 15 + len(e.Writes[i].Register)
	}
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint32(b, walBatchMagic)
	b = append(b, walVersion)
	b = binary.BigEndian.AppendUint64(b, e.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Switch)))
	b = append(b, e.Switch...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Writes)))
	for i := range e.Writes {
		w := &e.Writes[i]
		b = append(b, byte(w.State))
		b = binary.BigEndian.AppendUint16(b, uint16(len(w.Register)))
		b = append(b, w.Register...)
		b = binary.BigEndian.AppendUint32(b, w.Index)
		b = binary.BigEndian.AppendUint64(b, w.Value)
	}
	return appendCRC(b)
}

// DecodeJournalBatch parses and checksum-verifies an encoded batch.
func DecodeJournalBatch(b []byte) (*JournalBatch, error) {
	body, err := checkCRC(b, walBatchMagic, walVersion, "journal batch")
	if err != nil {
		return nil, err
	}
	r := reader{b: body}
	e := &JournalBatch{ID: r.u64()}
	e.Switch = r.str()
	count := int(r.u16())
	if r.err == nil && count >= 0 {
		e.Writes = make([]BatchWrite, 0, count)
		for i := 0; i < count; i++ {
			w := BatchWrite{State: WriteState(r.u8())}
			w.Register = r.str()
			w.Index = r.u32()
			w.Value = r.u64()
			if w.State > WriteFailed {
				return nil, fmt.Errorf("core: journal batch write has unknown state %d", uint8(w.State))
			}
			e.Writes = append(e.Writes, w)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated journal batch: %w", r.err)
	}
	return e, nil
}

// Entries expands the batch into per-write JournalEntry views (same ID,
// per-write state), for tooling that lists journal contents uniformly.
func (e *JournalBatch) Entries() []JournalEntry {
	out := make([]JournalEntry, len(e.Writes))
	for i, w := range e.Writes {
		out[i] = JournalEntry{
			ID: e.ID, Switch: e.Switch,
			Register: w.Register, Index: w.Index, Value: w.Value, State: w.State,
		}
	}
	return out
}

// Dump renders the batch for operators (p4auth-inspect journal).
func (e *JournalBatch) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal batch %016x  %s  (%d writes)", e.ID, e.Switch, len(e.Writes))
	for i := range e.Writes {
		w := &e.Writes[i]
		fmt.Fprintf(&b, "\n  %-7s  %s[%d] <- %#x", w.State, w.Register, w.Index, w.Value)
	}
	return b.String()
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
