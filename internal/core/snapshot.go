package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"p4auth/internal/pisa"
)

// This file is the crash-survival codec layer: versioned, checksummed
// serializations of the two kinds of P4Auth key state —
//
//   - Snapshot: an endpoint's KeyStore image plus its replay high-water
//     marks (the controller persists one per switch; a software KMP
//     endpoint would persist its own),
//   - DeviceSnapshot: a switch's P4Auth register file (keys, versions,
//     replay floors, exchange nonces), the switch-agent side of warm
//     restart.
//
// Both formats carry a magic, a format version, and a trailing CRC32 of
// everything before it, so a torn or corrupted file is detected at decode
// time and the recovery protocol can fall back to EAK re-seeding instead
// of restoring garbage keys.

// Snapshot format constants.
const (
	snapMagic   = 0x50414B53 // "PAKS": P4Auth Key Snapshot
	devMagic    = 0x50414453 // "PADS": P4Auth Device Snapshot
	snapVersion = 2          // 2 carries each slot's epoch; 1 carried its 8-bit tag

	// FloorLease is the sequence-number headroom applied when replay
	// floors are restored from a snapshot. A snapshot is a lower bound on
	// the floors the crashed node had actually advanced to; restoring the
	// raw values would reopen a replay window for every message accepted
	// after the snapshot was taken. Bumping each restored floor by
	// FloorLease closes that window for up to FloorLease messages per
	// slot between snapshot and crash — the persistence contract is
	// therefore "snapshot at least once per FloorLease accepted
	// messages". The peer recovers from the jump by skipping its own
	// sequence counter forward (SeqTracker.SkipAhead) when it sees an
	// authenticated replay alert.
	FloorLease = 1 << 16
)

// SlotSnapshot is the serializable image of one KeyStore slot, including
// in-flight transactional state (a prepared-but-uncommitted key), so a
// restart lands in the same prepare/commit state machine position the
// crash interrupted.
type SlotSnapshot struct {
	V0, V1 uint64
	// Epoch is the slot's install epoch; its low byte is the version tag.
	// A format-1 snapshot stored only the tag and decodes with Epoch = tag.
	Epoch      uint32
	Set        bool
	Pending    uint64
	HasPending bool
}

// Snapshot is a persistable image of an endpoint's key state: the
// KeyStore slots plus the endpoint's replay high-water marks. For the
// controller, SeqNext is the next unissued sequence number toward one
// switch; Floors is unused. For a switch-side software agent mirroring
// pa_seq, Floors holds the per-slot replay floors. Unused fields encode
// as empty.
type Snapshot struct {
	// TakenNs is the (virtual or wall) time the snapshot was taken, in
	// nanoseconds; informational.
	TakenNs uint64
	Slots   []SlotSnapshot
	// SeqNext is the next sequence number the endpoint would issue.
	SeqNext uint32
	// Floors are replay high-water marks (the pa_seq image: two per slot,
	// even = register/alert stream, odd = key-exchange stream).
	Floors []uint32
}

// Snapshot captures the store's current state, including prepared keys.
func (ks *KeyStore) Snapshot() *Snapshot {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	s := &Snapshot{Slots: make([]SlotSnapshot, len(ks.slots))}
	for i, sl := range ks.slots {
		s.Slots[i] = SlotSnapshot{
			V0: sl.v[0], V1: sl.v[1],
			Epoch: sl.epoch, Set: sl.set,
			Pending: sl.pending, HasPending: sl.hasPending,
		}
	}
	return s
}

// Restore replaces the store's state with the snapshot image. The slot
// count must match the store's geometry (it is fixed by the switch's port
// count at both ends).
func (ks *KeyStore) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(s.Slots) != len(ks.slots) {
		return fmt.Errorf("core: snapshot has %d slots, store has %d", len(s.Slots), len(ks.slots))
	}
	for i, sl := range s.Slots {
		ks.slots[i] = keySlot{
			v:     [2]uint64{sl.V0, sl.V1},
			epoch: sl.Epoch, set: sl.Set,
			pending: sl.Pending, hasPending: sl.HasPending,
		}
	}
	ks.publish()
	return nil
}

// Rollback abandons a slot's newest installed key and re-activates the
// previous version — the controller-side inverse of one install, used
// when recovery discovers the peer never activated its copy (e.g. the
// switch was warm-restored from a snapshot taken before the rollover).
func (ks *KeyStore) Rollback(idx int) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.check(idx); err != nil {
		return err
	}
	s := &ks.slots[idx]
	if !s.set {
		return fmt.Errorf("core: key slot %d not established", idx)
	}
	if s.epoch == 0 {
		return fmt.Errorf("core: key slot %d has no previous version to roll back to", idx)
	}
	s.v[s.epoch&1] = 0
	s.epoch--
	s.pending, s.hasPending = 0, false
	ks.publish()
	return nil
}

// ResetToSeed wipes every slot and re-establishes slot 0 at the seed key,
// version 0 — the keystore image of a factory-reset switch. Used by the
// EAK re-seed fallback when no usable snapshot exists.
func (ks *KeyStore) ResetToSeed(seed uint64) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for i := range ks.slots {
		ks.slots[i] = keySlot{}
	}
	ks.slots[KeyIndexLocal].v[0] = seed
	ks.slots[KeyIndexLocal].set = true
	ks.publish()
}

const (
	slotFlagSet     = 1 << 0
	slotFlagPending = 1 << 1
)

// Encode serializes the snapshot with a trailing CRC32.
func (s *Snapshot) Encode() []byte {
	b := make([]byte, 0, 16+len(s.Slots)*29+len(s.Floors)*4)
	b = binary.BigEndian.AppendUint32(b, snapMagic)
	b = append(b, snapVersion)
	b = binary.BigEndian.AppendUint64(b, s.TakenNs)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Slots)))
	for _, sl := range s.Slots {
		b = binary.BigEndian.AppendUint64(b, sl.V0)
		b = binary.BigEndian.AppendUint64(b, sl.V1)
		b = binary.BigEndian.AppendUint32(b, sl.Epoch)
		var flags byte
		if sl.Set {
			flags |= slotFlagSet
		}
		if sl.HasPending {
			flags |= slotFlagPending
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, sl.Pending)
	}
	b = binary.BigEndian.AppendUint32(b, s.SeqNext)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Floors)))
	for _, f := range s.Floors {
		b = binary.BigEndian.AppendUint32(b, f)
	}
	return appendCRC(b)
}

// DecodeSnapshot parses and checksum-verifies an encoded Snapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	// Format 1 differs only in each slot's 8-bit tag where format 2 has
	// the 32-bit epoch.
	format := byte(snapVersion)
	if len(b) > 4 && b[4] == 1 {
		format = 1
	}
	body, err := checkCRC(b, snapMagic, format, "key snapshot")
	if err != nil {
		return nil, err
	}
	r := reader{b: body}
	s := &Snapshot{TakenNs: r.u64()}
	n := r.u32()
	if n > 1<<16 {
		return nil, fmt.Errorf("core: key snapshot claims %d slots", n)
	}
	s.Slots = make([]SlotSnapshot, n)
	for i := range s.Slots {
		sl := &s.Slots[i]
		sl.V0, sl.V1 = r.u64(), r.u64()
		if format == 1 {
			sl.Epoch = uint32(r.u8())
		} else {
			sl.Epoch = r.u32()
		}
		flags := r.u8()
		sl.Set = flags&slotFlagSet != 0
		sl.HasPending = flags&slotFlagPending != 0
		sl.Pending = r.u64()
	}
	s.SeqNext = r.u32()
	nf := r.u32()
	if nf > 1<<17 {
		return nil, fmt.Errorf("core: key snapshot claims %d floors", nf)
	}
	s.Floors = make([]uint32, nf)
	for i := range s.Floors {
		s.Floors[i] = r.u32()
	}
	if nf == 0 {
		s.Floors = nil
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated key snapshot: %w", r.err)
	}
	return s, nil
}

// deviceRegisters lists the P4Auth state registers a DeviceSnapshot
// covers, in canonical (encode) order.
var deviceRegisters = []string{
	RegKeysV0, RegKeysV1, RegVer, RegSeq, RegSeqOut, RegAlert,
	RegKxR, RegKxS, RegEgKeysV0, RegEgKeysV1, RegEgVer, RegEgSeq,
}

// DeviceSnapshot is the register-file image of a switch's P4Auth state:
// everything a warm restart must put back so established keys keep
// verifying and the replay defence never regresses.
type DeviceSnapshot struct {
	TakenNs uint64
	Regs    map[string][]uint64
}

// SnapshotDevice reads the P4Auth state registers from a running data
// plane. Registers the program does not declare (e.g. insecure builds)
// are skipped.
func SnapshotDevice(sw *pisa.Switch, takenNs uint64) (*DeviceSnapshot, error) {
	prog := sw.Compiled().Program
	ds := &DeviceSnapshot{TakenNs: takenNs, Regs: make(map[string][]uint64)}
	for _, name := range deviceRegisters {
		def := prog.Register(name)
		if def == nil {
			continue
		}
		vals := make([]uint64, def.Entries)
		for i := range vals {
			v, err := sw.RegisterRead(name, i)
			if err != nil {
				return nil, fmt.Errorf("core: snapshot %s[%d]: %w", name, i, err)
			}
			vals[i] = v
		}
		ds.Regs[name] = vals
	}
	return ds, nil
}

// RestoreDevice writes a device snapshot back into the data plane,
// applying the replay-floor rule: every pa_seq floor is restored to the
// snapshot value plus FloorLease, so no sequence number at or below
// anything the pre-crash switch could have accepted (within the lease
// contract) is ever accepted again. All other registers are restored
// verbatim.
func RestoreDevice(sw *pisa.Switch, ds *DeviceSnapshot) error {
	prog := sw.Compiled().Program
	for _, name := range deviceRegisters {
		vals, ok := ds.Regs[name]
		if !ok {
			continue
		}
		def := prog.Register(name)
		if def == nil {
			return fmt.Errorf("core: snapshot register %s not in program", name)
		}
		if len(vals) != def.Entries {
			return fmt.Errorf("core: snapshot %s has %d entries, register has %d", name, len(vals), def.Entries)
		}
		for i, v := range vals {
			// pa_seq floors are bumped so nothing the pre-crash switch
			// accepted is accepted again; pa_seq_out counters are bumped
			// by the same lease so this switch's own DP-DP traffic clears
			// the floors its peers advanced after the snapshot was taken.
			if name == RegSeq || name == RegSeqOut {
				v += FloorLease
				// The register is 32 bits wide; saturate rather than wrap
				// (a wrapped floor would reopen the replay window).
				if v > 0xFFFF_FFFF {
					v = 0xFFFF_FFFF
				}
			}
			if err := sw.RegisterWrite(name, i, v); err != nil {
				return fmt.Errorf("core: restore %s[%d]: %w", name, i, err)
			}
		}
	}
	return nil
}

// Encode serializes the device snapshot with a trailing CRC32. Registers
// encode in canonical order so equal snapshots produce equal bytes.
func (ds *DeviceSnapshot) Encode() []byte {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint32(b, devMagic)
	b = append(b, snapVersion)
	b = binary.BigEndian.AppendUint64(b, ds.TakenNs)
	names := make([]string, 0, len(ds.Regs))
	for name := range ds.Regs {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.BigEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		vals := ds.Regs[name]
		b = binary.BigEndian.AppendUint32(b, uint32(len(vals)))
		for _, v := range vals {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}
	return appendCRC(b)
}

// DecodeDeviceSnapshot parses and checksum-verifies an encoded
// DeviceSnapshot.
func DecodeDeviceSnapshot(b []byte) (*DeviceSnapshot, error) {
	body, err := checkCRC(b, devMagic, snapVersion, "device snapshot")
	if err != nil {
		return nil, err
	}
	r := reader{b: body}
	ds := &DeviceSnapshot{TakenNs: r.u64(), Regs: make(map[string][]uint64)}
	n := r.u32()
	if n > 1<<10 {
		return nil, fmt.Errorf("core: device snapshot claims %d registers", n)
	}
	for i := uint32(0); i < n; i++ {
		name := r.str()
		ne := r.u32()
		if ne > 1<<20 {
			return nil, fmt.Errorf("core: device snapshot register %q claims %d entries", name, ne)
		}
		vals := make([]uint64, ne)
		for j := range vals {
			vals[j] = r.u64()
		}
		if r.err != nil {
			break
		}
		ds.Regs[name] = vals
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated device snapshot: %w", r.err)
	}
	return ds, nil
}

// appendCRC appends the IEEE CRC32 of b to b.
func appendCRC(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// checkCRC validates magic, version, and trailing checksum, returning the
// body between the version byte and the CRC.
func checkCRC(b []byte, magic uint32, version byte, what string) ([]byte, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("core: %s too short (%d bytes)", what, len(b))
	}
	if got := binary.BigEndian.Uint32(b); got != magic {
		return nil, fmt.Errorf("core: %s has magic %#x, want %#x", what, got, magic)
	}
	if b[4] != version {
		return nil, fmt.Errorf("core: %s format version %d not supported (want %d)", what, b[4], version)
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("core: %s checksum mismatch (torn or corrupted)", what)
	}
	return body[5:], nil
}

// reader is a bounds-checked big-endian cursor; after the first short
// read every subsequent read returns zero and err is set.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		if r.err == nil {
			r.err = fmt.Errorf("need %d bytes, have %d", n, len(r.b))
		}
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) str() string {
	lb := r.take(2)
	if lb == nil {
		return ""
	}
	n := int(binary.BigEndian.Uint16(lb))
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
