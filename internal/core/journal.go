package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Write-ahead journal record codec. The controller records every
// authenticated register write in a durable journal BEFORE putting it on
// the wire, so a crash mid-write leaves evidence: on restart the recovery
// protocol finds the intent, reads the register back under the restored
// key, and either confirms the write landed or re-drives it. A record
// covers the writes of one call toward one switch — one for a serial
// write, a window's worth for a batch — each with its own WriteState, so
// recovery disambiguates every write independently. Records use the same
// magic/version/CRC armour as the snapshots: a torn record is detected,
// not replayed.
const (
	walMagic   = 0x50415742 // "PAWB": P4Auth Write Batch
	walVersion = 1
)

// WriteState is a journaled write's position in the intent →
// applied/failed lifecycle. Writes in WriteIntent only survive a crash: a
// live controller settles every write to applied or failed (deleting the
// record when all applied) before returning to its caller.
type WriteState uint8

const (
	// WriteIntent: recorded before the wire send; outcome unknown.
	WriteIntent WriteState = iota
	// WriteApplied: confirmed on the switch.
	WriteApplied
	// WriteFailed: definitively not applied, kept for the operator.
	WriteFailed
	// WriteTorn marks, in the operator's view only, a record that does
	// not decode: recovery keeps it and counts it failed. It is never
	// encoded, and a record that carries it does not decode.
	WriteTorn
)

func (s WriteState) String() string {
	switch s {
	case WriteIntent:
		return "intent"
	case WriteApplied:
		return "applied"
	case WriteFailed:
		return "failed"
	case WriteTorn:
		return "torn"
	}
	return fmt.Sprintf("WriteState(%d)", int(s))
}

// JournalEntry is one journaled register write, the per-write view of a
// record (JournalBatch.Entries).
type JournalEntry struct {
	ID       uint64
	Switch   string
	Register string
	Index    uint32
	Value    uint64
	State    WriteState
}

// Dump renders the entry for operators.
func (e *JournalEntry) Dump() string {
	if e.State == WriteTorn {
		return fmt.Sprintf("journal entry %016x  %-7s  %s: record does not decode", e.ID, e.State, e.Switch)
	}
	return fmt.Sprintf("journal entry %016x  %-7s  %s: %s[%d] <- %#x",
		e.ID, e.State, e.Switch, e.Register, e.Index, e.Value)
}

// BatchWrite is one write inside a journal record.
type BatchWrite struct {
	Register string
	Index    uint32
	Value    uint64
	State    WriteState
}

// JournalBatch is one journal record: the writes of one call toward a
// single switch, committed as one durable record.
type JournalBatch struct {
	ID     uint64
	Switch string
	Writes []BatchWrite
}

// AppendEncode appends the record's encoding, with a trailing CRC32, to
// dst and returns the extended slice, so a caller can encode into a
// buffer it reuses. The CRC covers the appended record only.
func (e *JournalBatch) AppendEncode(dst []byte) []byte {
	start := len(dst)
	b := binary.BigEndian.AppendUint32(dst, walMagic)
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
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// DecodeJournalBatch parses and checksum-verifies an encoded record.
func DecodeJournalBatch(b []byte) (*JournalBatch, error) {
	body, err := checkCRC(b, walMagic, walVersion, "journal batch")
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

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
