package statestore

// The controller-ownership lease record (PALS) and the polling tail API.
//
// High availability splits the controller into an active and a standby
// replica sharing one Store. Ownership is a single lease record: whoever
// holds an unexpired lease with the highest epoch is the active. The
// record is tiny and rewritten often (renewals), so it gets its own
// CRC-armoured codec in the same magic+version+body+CRC32 shape as the
// core PAKS/PAWJ family — a torn or corrupted lease must read as "no
// lease", never as someone else's grant.
//
// The epoch is the fence: it increments on every acquisition (never on
// renewal), and every signed wire send by a replica re-checks that the
// stored record still names it at its epoch. A deposed active — even one
// that is alive and mid-batch — fails that check and its writes are
// refused before they reach the wire.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// LeaseKey is the well-known store key of the controller lease record.
const LeaseKey = "ha/lease"

// MaxLeaseHolderLen is the longest holder name a PALS record can carry:
// the codec's length field is 16 bits. Writers must validate before
// encoding (ha.NewLeaseManager does); Encode refuses loudly rather than
// wrapping the length field into a record that decodes as a different
// holder.
const MaxLeaseHolderLen = 65535

// leaseMagic is "PALS" (P4Auth Lease State).
const leaseMagic = 0x50414C53

const leaseVersion = 1

// Lease is one controller-ownership grant.
type Lease struct {
	// Holder names the replica the lease was granted to.
	Holder string
	// Epoch is the fencing epoch: monotone across acquisitions, stable
	// across renewals. A write stamped with epoch e is valid only while
	// the stored lease still carries epoch e.
	Epoch uint64
	// GrantedNs is the (virtual- or wall-) clock time of the grant or
	// last renewal, in nanoseconds.
	GrantedNs uint64
	// TTLNs is the validity window: the lease is expired once the clock
	// passes GrantedNs+TTLNs and may then be claimed by another replica.
	TTLNs uint64
}

// ExpiresNs returns the end of the validity window, saturating on
// overflow (a forged or fuzzed record must not wrap into the past).
func (l *Lease) ExpiresNs() uint64 {
	if l.TTLNs > ^uint64(0)-l.GrantedNs {
		return ^uint64(0)
	}
	return l.GrantedNs + l.TTLNs
}

// Dump renders the lease in the operator format used by p4auth-inspect.
func (l *Lease) Dump() string {
	return fmt.Sprintf("lease holder=%s epoch=%d granted=%dns ttl=%dns expires=%dns",
		l.Holder, l.Epoch, l.GrantedNs, l.TTLNs, l.ExpiresNs())
}

// Encode renders the lease in the PALS format:
//
//	magic "PALS" | version | holder (len16+bytes) | epoch | grantedNs | ttlNs | CRC32
//
// A holder longer than MaxLeaseHolderLen cannot be represented — the
// 16-bit length field would wrap and the record would carry a silently
// mangled identity. That is a writer bug, not an input condition
// (NewLeaseManager validates names), so Encode panics instead of
// producing a corrupt fencing root.
func (l *Lease) Encode() []byte {
	if len(l.Holder) > MaxLeaseHolderLen {
		panic(fmt.Sprintf("statestore: lease holder is %d bytes, max %d", len(l.Holder), MaxLeaseHolderLen))
	}
	b := make([]byte, 0, 5+2+len(l.Holder)+24+4)
	b = binary.BigEndian.AppendUint32(b, leaseMagic)
	b = append(b, leaseVersion)
	b = binary.BigEndian.AppendUint16(b, uint16(len(l.Holder)))
	b = append(b, l.Holder...)
	b = binary.BigEndian.AppendUint64(b, l.Epoch)
	b = binary.BigEndian.AppendUint64(b, l.GrantedNs)
	b = binary.BigEndian.AppendUint64(b, l.TTLNs)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// DecodeLease parses a PALS record, rejecting torn, truncated, trailing-
// garbage, or checksum-failing input.
func DecodeLease(b []byte) (*Lease, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("statestore: lease record too short (%d bytes)", len(b))
	}
	if got := binary.BigEndian.Uint32(b); got != leaseMagic {
		return nil, fmt.Errorf("statestore: lease record has magic %#x, want %#x", got, uint32(leaseMagic))
	}
	if b[4] != leaseVersion {
		return nil, fmt.Errorf("statestore: lease format version %d not supported (want %d)", b[4], leaseVersion)
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("statestore: lease record checksum mismatch (torn or corrupted)")
	}
	p := body[5:]
	if len(p) < 2 {
		return nil, fmt.Errorf("statestore: lease record truncated")
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) != n+24 {
		return nil, fmt.Errorf("statestore: lease record body is %d bytes, want %d", len(p), n+24)
	}
	l := &Lease{Holder: string(p[:n])}
	p = p[n:]
	l.Epoch = binary.BigEndian.Uint64(p)
	l.GrantedNs = binary.BigEndian.Uint64(p[8:])
	l.TTLNs = binary.BigEndian.Uint64(p[16:])
	return l, nil
}

// Swapper is the optional conditional-write extension of Store, the
// primitive lease acquisition is built on. Both bundled implementations
// provide it.
type Swapper interface {
	// CompareAndSwap atomically replaces key's value with next if and
	// only if the current value equals prev; prev == nil means the key
	// must be absent. It reports whether the swap happened. A false
	// return with nil error is a lost race, not a failure.
	CompareAndSwap(key string, prev, next []byte) (bool, error)
}

// LeaseGuard names one tenure of a lease: the record stored at Key must
// still decode to Holder at Epoch for a guarded write to land.
type LeaseGuard struct {
	Key    string
	Holder string
	Epoch  uint64
}

// holds reports whether a stored lease record names the guard's tenure.
// An absent or corrupt record names nobody's.
func (g LeaseGuard) holds(raw []byte) bool {
	l, err := DecodeLease(raw)
	return err == nil && l.Holder == g.Holder && l.Epoch == g.Epoch
}

// GuardedWriter is the optional fenced-write extension of Store. A check
// of the lease made before a plain Save leaves a gap in which a successor
// can acquire; a guarded write checks the lease record and writes under
// the lock CompareAndSwap takes, so an acquisition lands wholly before
// the write (which is refused) or wholly after it (and then sees it).
type GuardedWriter interface {
	// SaveGuarded saves value under key only while g holds. A false
	// return with nil error means the lease has changed hands.
	SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error)
	// DeleteGuarded deletes key only while g holds, reporting the same.
	DeleteGuarded(g LeaseGuard, key string) (bool, error)
}

// SaveGuarded implements GuardedWriter.
func (s *Mem) SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !g.holds(s.m[g.Key]) {
		return false, nil
	}
	s.m[key] = append([]byte(nil), value...)
	s.saves++
	return true, nil
}

// DeleteGuarded implements GuardedWriter.
func (s *Mem) DeleteGuarded(g LeaseGuard, key string) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !g.holds(s.m[g.Key]) {
		return false, nil
	}
	delete(s.m, key)
	return true, nil
}

// SaveGuarded implements GuardedWriter: the lease read and the atomic
// write run under the store mutex, as CompareAndSwap's do.
func (s *File) SaveGuarded(g LeaseGuard, key string, value []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok, err := s.guardLocked(g); !ok {
		return false, err
	}
	return true, s.writeLocked(key, value)
}

// DeleteGuarded implements GuardedWriter.
func (s *File) DeleteGuarded(g LeaseGuard, key string) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok, err := s.guardLocked(g); !ok {
		return false, err
	}
	return true, s.deleteLocked(key)
}

// guardLocked reads the guard's lease record. Requires s.mu.
func (s *File) guardLocked(g LeaseGuard) (bool, error) {
	cur, err := s.readLocked(g.Key)
	return err == nil && g.holds(cur), err
}

// CompareAndSwap implements Swapper.
func (s *Mem) CompareAndSwap(key string, prev, next []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[key]
	if prev == nil {
		if ok {
			return false, nil
		}
	} else if !ok || !bytes.Equal(cur, prev) {
		return false, nil
	}
	s.m[key] = append([]byte(nil), next...)
	s.saves++
	return true, nil
}

// CompareAndSwap implements Swapper. The read-compare-rename sequence
// runs under the store mutex, so two replicas racing through the same
// File store serialize here; the write itself keeps the atomic
// temp+rename discipline of Save.
func (s *File) CompareAndSwap(key string, prev, next []byte) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.readLocked(key)
	if err != nil {
		return false, err
	}
	if prev == nil {
		if cur != nil {
			return false, nil
		}
	} else if cur == nil || !bytes.Equal(cur, prev) {
		return false, nil
	}
	if err := s.writeLocked(key, next); err != nil {
		return false, err
	}
	return true, nil
}

// Change is one mutation observed by a Tailer between two polls.
type Change struct {
	// Key is the changed store key.
	Key string
	// Value is the new content, or nil when the key was deleted.
	Value []byte
}

// Tailer incrementally follows every key under a prefix — the standby
// replica's view onto the active's snapshots and WAL. It is a polling
// design on purpose: the Store interface stays a dumb byte store (any
// backend qualifies), and a deterministic simulation can drive polls
// from the virtual clock. Changes are detected by content signature
// (length + CRC32), so a rewrite of identical bytes is — correctly —
// not a change.
type Tailer struct {
	st     Store
	prefix string
	// mu guards seen: a replica's TailOnce may be called from several
	// goroutines at once.
	mu   sync.Mutex
	seen map[string]valueSig
}

type valueSig struct {
	n   int
	crc uint32
}

func sigOf(v []byte) valueSig { return valueSig{n: len(v), crc: crc32.ChecksumIEEE(v)} }

// NewTailer returns a Tailer over every key with the given prefix. The
// first Poll reports the entire existing prefix contents as changes.
func NewTailer(st Store, prefix string) *Tailer {
	return &Tailer{st: st, prefix: prefix, seen: make(map[string]valueSig)}
}

// Poll returns the changes since the previous Poll, sorted by key with
// deletions last — a deterministic order, as chaos replay requires. A
// key that vanishes between the listing and the read (ErrNotFound) is
// reported on the next poll instead; a torn read cannot happen (Save is
// atomic per key). Any other Load failure is a real I/O error and is
// surfaced to the caller — a standby that silently skipped records
// during a store brown-out would promote over a hole in its tail.
func (t *Tailer) Poll() ([]Change, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys, err := t.st.Keys(t.prefix)
	if err != nil {
		return nil, err
	}
	var out []Change
	live := make(map[string]bool, len(keys))
	for _, k := range keys {
		v, err := t.st.Load(k)
		if errors.Is(err, ErrNotFound) {
			continue // deleted mid-poll; picked up next time
		}
		if err != nil {
			return nil, fmt.Errorf("statestore: tail %s: %w", k, err)
		}
		live[k] = true
		sig := sigOf(v)
		if old, ok := t.seen[k]; ok && old == sig {
			continue
		}
		t.seen[k] = sig
		out = append(out, Change{Key: k, Value: v})
	}
	gone := make([]string, 0)
	for k := range t.seen {
		if !live[k] {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		delete(t.seen, k)
		out = append(out, Change{Key: k})
	}
	return out, nil
}

// Seen reports how many keys the tailer currently tracks.
func (t *Tailer) Seen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.seen)
}
