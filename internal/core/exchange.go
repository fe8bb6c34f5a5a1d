package core

import (
	"fmt"
	"sync"

	"p4auth/internal/crypto"
)

// SaltPair combines the two 32-bit salt halves into the 64-bit KDF salt
// (S = S1 || S2, §VI-A/§VI-B with each side contributing one half).
func SaltPair(s1, s2 uint32) uint64 {
	return uint64(s1)<<32 | uint64(s2)
}

// EAK is the initiator side of the Exchange of Authentication Key
// (Fig. 11): the controller generates S1, receives S2, and derives K_auth
// from the pre-shared seed.
type EAK struct {
	S1  uint32
	cfg Config
}

// NewEAK starts an EAK exchange.
func NewEAK(cfg Config, rng crypto.RandomSource) *EAK {
	return &EAK{S1: uint32(rng.Uint64()), cfg: cfg}
}

// Complete derives K_auth from the responder's salt half.
func (e *EAK) Complete(s2 uint32) (uint64, error) {
	kdf, err := e.cfg.KDF()
	if err != nil {
		return 0, err
	}
	return kdf.Derive(e.cfg.Seed, SaltPair(e.S1, s2)), nil
}

// ADHKD is the initiator side of the authenticated DH exchange and key
// derivation (Fig. 12): generate (R1, S1), publish PK1, and on (PK2, S2)
// derive the master secret.
type ADHKD struct {
	R1  uint64
	S1  uint32
	cfg Config
}

// NewADHKD starts an ADHKD exchange.
func NewADHKD(cfg Config, rng crypto.RandomSource) *ADHKD {
	return &ADHKD{R1: rng.Uint64(), S1: uint32(rng.Uint64()), cfg: cfg}
}

// PK1 is the initiator's public key.
func (a *ADHKD) PK1() uint64 { return a.cfg.DH.PublicKey(a.R1) }

// Complete derives the master secret from the responder's public key and
// salt half.
func (a *ADHKD) Complete(pk2 uint64, s2 uint32) (uint64, error) {
	kdf, err := a.cfg.KDF()
	if err != nil {
		return 0, err
	}
	pms := a.cfg.DH.SharedSecret(a.R1, pk2)
	return kdf.Derive(pms, SaltPair(a.S1, s2)), nil
}

// RespondADHKD is the responder side in Go (the data plane implements the
// same computation in the pipeline; this is used by tests and by software
// endpoints).
func RespondADHKD(cfg Config, rng crypto.RandomSource, pk1 uint64, s1 uint32) (pk2 uint64, s2 uint32, key uint64, err error) {
	kdf, err := cfg.KDF()
	if err != nil {
		return 0, 0, 0, err
	}
	r2 := rng.Uint64()
	s2 = uint32(rng.Uint64())
	pk2 = cfg.DH.PublicKey(r2)
	pms := cfg.DH.SharedSecret(r2, pk1)
	return pk2, s2, kdf.Derive(pms, SaltPair(s1, s2)), nil
}

// SeqTracker hands out monotonically increasing sequence numbers and
// matches responses to outstanding requests (the controller-side half of
// the replay defence, §VIII). It is safe for concurrent use, so DoS
// monitors can poll Outstanding while exchanges are in flight.
type SeqTracker struct {
	mu   sync.Mutex
	next uint32
	// outstanding holds the unanswered sequence numbers in issue order,
	// which is ascending: next never moves down short of Reset, which
	// also empties the slice. One entry per issue, so at the top of the
	// 32-bit space, where Next repeats itself, a number can be
	// outstanding more than once.
	outstanding []uint32
}

// NewSeqTracker starts sequence numbering at 1 (the data plane's replay
// register starts at 0 and requires strictly increasing numbers).
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{next: 1}
}

// Next reserves and returns the next sequence number. At the top of the
// 32-bit space the counter stays put rather than wrapping: a wrapped
// counter would be rejected by the strictly-increasing replay defence
// forever, while a stuck one is rejected until the keys are re-seeded
// (Reset), the operator's way out either way.
func (s *SeqTracker) Next() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if n != ^uint32(0) {
		s.next++
	}
	s.outstanding = append(s.outstanding, n)
	return n
}

// Settle marks a response's sequence number as answered; it returns an
// error for unknown or duplicate sequence numbers (a replayed or forged
// response). Answers are for recent requests, so the search runs from the
// newest issue backwards: what a request pays is bounded by the window in
// flight, not by how many abandoned numbers sit below it.
func (s *SeqTracker) Settle(seq uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.outstanding) - 1; i >= 0 && s.outstanding[i] >= seq; i-- {
		if s.outstanding[i] == seq {
			s.outstanding = append(s.outstanding[:i], s.outstanding[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("core: response for unknown or already-settled seq %d", seq)
}

// Outstanding reports how many requests lack responses (the controller's
// DoS threshold input, §VIII).
func (s *SeqTracker) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outstanding)
}

// Peek returns the next sequence number without reserving it — the value
// a crash-safety snapshot persists as the issue high-water mark.
func (s *SeqTracker) Peek() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Resume restarts numbering at next (if it is ahead of the current
// counter) and forgets all outstanding requests: any response to a
// pre-crash request is unverifiable after a restart and must read as
// forged. Used when restoring from a snapshot.
func (s *SeqTracker) Resume(next uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.next {
		s.next = next
	}
	s.outstanding = s.outstanding[:0]
}

// SkipAhead advances the counter by delta, abandoning the skipped range.
// The recovery protocol uses it to jump past a restored replay floor it
// cannot see directly: on an authenticated replay alert, skip and retry.
// Saturates at the top of the 32-bit space rather than wrapping, and Next
// stays there once it is reached.
func (s *SeqTracker) SkipAhead(delta uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next > ^uint32(0)-delta {
		s.next = ^uint32(0)
		return
	}
	s.next += delta
}

// Reset returns the tracker to its freshly-constructed state (numbering
// from 1, nothing outstanding) — the EAK re-seed fallback, matching a
// factory-reset switch whose replay floors are zero.
func (s *SeqTracker) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = 1
	s.outstanding = s.outstanding[:0]
}

// PeekControl inspects an encoded control-channel packet without a full
// decode, returning its hdrType and seqNum. ok is false when the bytes are
// not a plausible P4Auth message. Used by the switch agent's idempotency
// cache to key retransmitted requests cheaply.
func PeekControl(data []byte) (hdrType uint8, seqNum uint32, ok bool) {
	// ptype(1B) | pa_h: hdrType(1B) msgType(1B) seqNum(4B) ...
	if len(data) < minWireBytes || data[0] != PTypeP4Auth {
		return 0, 0, false
	}
	hdrType = data[1]
	seqNum = uint32(data[3])<<24 | uint32(data[4])<<16 | uint32(data[5])<<8 | uint32(data[6])
	return hdrType, seqNum, true
}

// PeekMsgType inspects an encoded control-channel packet's msgType (the
// alert reason for HdrAlert packets) without a full decode; same
// plausibility check as PeekControl.
func PeekMsgType(data []byte) (msgType uint8, ok bool) {
	if len(data) < minWireBytes || data[0] != PTypeP4Auth {
		return 0, false
	}
	return data[2], true
}
