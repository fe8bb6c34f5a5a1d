package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// KeyStore is the two-version key table used for consistent key updates
// (§VI-C "Consistent key updates", after [66]): each slot holds an old and
// a new key; the sender tags messages with the version it signed with, and
// the receiver validates with the tagged version, so in-flight messages
// survive a rollover. Slot 0 is the local key; slots 1..N are port keys.
//
// The controller holds one KeyStore per switch; the switch data plane's
// equivalent state lives in the pa_keys_v0/pa_keys_v1/pa_ver registers of
// the generated program.
//
// Reads and writes go different ways. The mutators (Install, Prepare,
// Commit, Abort, Rollback, Restore, ResetToSeed) and the accessors that
// must see staged state (Pending, Snapshot) work on slots under mu. The
// two accessors every signed message pays for, Current and At, take no
// lock: they read the image, an immutable copy of slots that each mutator
// of an established key republishes before it releases mu. A reader
// therefore sees a slot as it was after some completed mutation, never
// half of one. Prepare and Abort touch only the staged key, which no
// image reader reads, so they publish nothing: a prepared key stays
// invisible until Commit, and a confirmed rollover publishes once.
type KeyStore struct {
	mu    sync.Mutex
	slots []keySlot
	image atomic.Pointer[[]keySlot]
}

type keySlot struct {
	v [2]uint64
	// epoch counts the installs since the slot was first established. Its
	// low byte is the version tag on the wire and in pa_ver; only the
	// tag's parity selects one of v. Counting past 255 here keeps Commit
	// and Rollback meaningful once the tag wraps.
	epoch uint32
	set   bool
	// Transactional rollover staging (prepare/commit/abort): a derived key
	// awaiting confirmation that the peer activated its copy. A prepared
	// key is invisible to Current/At until committed, so in-flight messages
	// keep verifying under the established versions.
	pending    uint64
	hasPending bool
}

// NewKeyStore returns a store with slots 0..ports. Slot 0 starts at the
// seed key, version 0 — matching a freshly booted switch whose key
// register was loaded from the binary.
func NewKeyStore(ports int, seed uint64) *KeyStore {
	ks := &KeyStore{slots: make([]keySlot, ports+1)}
	ks.slots[KeyIndexLocal].v[0] = seed
	ks.slots[KeyIndexLocal].set = true
	ks.publish()
	return ks
}

// publish replaces the read image with a copy of slots. Every mutator of
// an established key calls it under mu, after its last write to slots.
func (ks *KeyStore) publish() {
	img := append([]keySlot(nil), ks.slots...)
	ks.image.Store(&img)
}

// check validates a slot index; the slot count is fixed at construction,
// so it needs no lock.
func (ks *KeyStore) check(idx int) error {
	if idx < 0 || idx >= len(ks.slots) {
		return fmt.Errorf("core: key slot %d out of range [0,%d)", idx, len(ks.slots))
	}
	return nil
}

// imageSlot returns an established slot's entry in the current read image.
func (ks *KeyStore) imageSlot(idx int) (*keySlot, error) {
	if err := ks.check(idx); err != nil {
		return nil, err
	}
	s := &(*ks.image.Load())[idx]
	if !s.set {
		return nil, fmt.Errorf("core: key slot %d not established", idx)
	}
	return s, nil
}

// Current returns the active key and its version tag for a slot.
func (ks *KeyStore) Current(idx int) (key uint64, version uint8, err error) {
	s, err := ks.imageSlot(idx)
	if err != nil {
		return 0, 0, err
	}
	return s.v[s.epoch&1], uint8(s.epoch), nil
}

// Epoch returns a slot's install epoch: the number of installs since the
// slot was established, whose low byte is the version tag Current returns.
func (ks *KeyStore) Epoch(idx int) (uint32, error) {
	s, err := ks.imageSlot(idx)
	if err != nil {
		return 0, err
	}
	return s.epoch, nil
}

// At returns the key stored under a specific version tag (for validating
// messages signed before a rollover).
func (ks *KeyStore) At(idx int, version uint8) (uint64, error) {
	s, err := ks.imageSlot(idx)
	if err != nil {
		return 0, err
	}
	return s.v[version&1], nil
}

// Install stores a new key in the slot's inactive version and makes it
// current, returning the new epoch (the version tag is its low byte). It
// discards any prepared key (Install is the non-transactional path).
func (ks *KeyStore) Install(idx int, key uint64) (uint32, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.check(idx); err != nil {
		return 0, err
	}
	s := &ks.slots[idx]
	s.pending, s.hasPending = 0, false
	ver := s.install(key)
	ks.publish()
	return ver, nil
}

func (s *keySlot) install(key uint64) uint32 {
	if s.set {
		s.epoch++
	}
	s.v[s.epoch&1] = key
	s.set = true
	return s.epoch
}

// Prepare stages a freshly derived key for a slot without activating it:
// Current and At still answer from the established versions, so everything
// signed before the rollover keeps verifying. A second Prepare replaces
// the staged key.
func (ks *KeyStore) Prepare(idx int, key uint64) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.check(idx); err != nil {
		return err
	}
	s := &ks.slots[idx]
	s.pending, s.hasPending = key, true
	return nil
}

// Commit activates the prepared key at epoch+1 and returns the new epoch.
// It fails if nothing is prepared.
func (ks *KeyStore) Commit(idx int) (uint32, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.check(idx); err != nil {
		return 0, err
	}
	s := &ks.slots[idx]
	if !s.hasPending {
		return 0, fmt.Errorf("core: key slot %d has no prepared key to commit", idx)
	}
	key := s.pending
	s.pending, s.hasPending = 0, false
	ver := s.install(key)
	ks.publish()
	return ver, nil
}

// Abort discards a prepared key, leaving the established versions
// untouched. Aborting with nothing prepared is a no-op.
func (ks *KeyStore) Abort(idx int) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if err := ks.check(idx); err != nil {
		return err
	}
	s := &ks.slots[idx]
	s.pending, s.hasPending = 0, false
	return nil
}

// Pending reports whether a prepared key awaits commit on the slot.
func (ks *KeyStore) Pending(idx int) bool {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if idx < 0 || idx >= len(ks.slots) {
		return false
	}
	return ks.slots[idx].hasPending
}

// Established reports whether a slot holds a key.
func (ks *KeyStore) Established(idx int) bool {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if idx < 0 || idx >= len(ks.slots) {
		return false
	}
	return ks.slots[idx].set
}

// Slots returns the number of slots (ports + 1).
func (ks *KeyStore) Slots() int { return len(ks.slots) }
