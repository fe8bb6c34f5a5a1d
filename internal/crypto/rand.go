package crypto

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
)

// RandomSource yields the random private secrets and salts the protocol
// consumes (the P4 random() extern on the switch, os.urandom at the
// controller). Implementations must be safe for concurrent use.
type RandomSource interface {
	Uint64() uint64
}

// SeededRand is a deterministic RandomSource (splitmix64). Experiments use
// it so every run is reproducible; the paper's §XI discussion that Tofino's
// PRNG "may not be cryptographically strong" is, if anything, modeled
// faithfully by it.
type SeededRand struct {
	mu    sync.Mutex
	state uint64
}

// NewSeededRand returns a deterministic source seeded with seed.
func NewSeededRand(seed uint64) *SeededRand {
	return &SeededRand{state: seed}
}

// Uint64 returns the next splitmix64 output.
func (s *SeededRand) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CryptoRand is a RandomSource backed by crypto/rand, for non-simulated
// deployments.
type CryptoRand struct{}

// Uint64 reads 8 bytes from the system CSPRNG. Failure to read from the
// system entropy source is unrecoverable and panics, matching the stance of
// crypto/rand itself.
func (CryptoRand) Uint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("crypto: system entropy source failed: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}
