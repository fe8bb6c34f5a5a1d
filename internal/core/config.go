package core

import (
	"fmt"

	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

// DigestKind selects the digest algorithm family.
type DigestKind int

// Digest kinds. The paper's prototype uses HalfSipHash (as an extern) on
// BMv2 and CRC32 (native hash units) on Tofino (§VII).
const (
	DigestHalfSipHash DigestKind = iota + 1
	DigestCRC32
)

// Config carries the per-deployment P4Auth parameters. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Ports is the number of switch ports (port keys live at indices
	// 1..Ports; the local key at index 0).
	Ports int
	// Seed is K_seed, compiled into the switch binary and pre-shared with
	// the controller (§VI-A footnote).
	Seed uint64
	// Personalization is the secret KDF constant standing in for the
	// paper's "custom logic in the binary" (§VIII).
	Personalization uint64
	// Digest selects the digest algorithm.
	Digest DigestKind
	// AlertThreshold caps alerts sent to the controller per counting
	// window (DoS mitigation, §VIII).
	AlertThreshold uint64
	// Insecure builds the data plane without digest generation or checks:
	// the DP-Reg-RW baseline of §IX-B.
	Insecure bool
	// Encrypt enables the §XI extension: register values on the C-DP
	// channel are XOR-encrypted with a per-message keystream derived from
	// the shared key and the sequence number (encrypt-then-MAC).
	Encrypt bool
	// DigestWords widens the digest to 32*DigestWords bits for the §XI
	// resource ablation (extra chained hash computations per digest
	// site). Values above 1 are a compile-level study: the wire format
	// and runtime verification continue to use the first word.
	DigestWords int
}

// kdfRounds is the KDF expansion's round count, the prototype's. The
// public modified-Diffie-Hellman parameters are crypto.DefaultDHParams.
const kdfRounds = 1

// DefaultConfig returns a deployable configuration for a switch with the
// given port count, with digest algorithm matched to the target the
// program will be compiled for (CRC32 for Tofino, HalfSipHash for BMv2).
func DefaultConfig(ports int, kind DigestKind) Config {
	return Config{
		Ports:           ports,
		Seed:            0x5eedc0ffee5eed00,
		Personalization: 0x0b5c4e1709151e55, // placeholder; set per deployment
		Digest:          kind,
		AlertThreshold:  64,
	}
}

// Digester returns the controller-side digest implementation matching the
// data plane.
func (c Config) Digester() (crypto.Digester, error) {
	switch c.Digest {
	case DigestHalfSipHash:
		return crypto.SharedHalfSipHashDigester(), nil
	case DigestCRC32:
		return crypto.SharedCRC32Digester(), nil
	default:
		return nil, fmt.Errorf("core: unknown digest kind %d", int(c.Digest))
	}
}

// HashAlg returns the pipeline hash-unit algorithm matching the digest
// kind.
func (c Config) HashAlg() (pisa.HashAlg, error) {
	switch c.Digest {
	case DigestHalfSipHash:
		return pisa.HashHalfSipHash, nil
	case DigestCRC32:
		return pisa.HashCRC32, nil
	default:
		return 0, fmt.Errorf("core: unknown digest kind %d", int(c.Digest))
	}
}

// KDF returns the key derivation function both sides use, built on the
// same PRF as the digest.
func (c Config) KDF() (crypto.KDF, error) {
	d, err := c.Digester()
	if err != nil {
		return crypto.KDF{}, err
	}
	return crypto.KDF{PRF: d, Rounds: kdfRounds, Personalization: c.Personalization}, nil
}

func (c Config) validate() error {
	if c.Ports < 1 {
		return fmt.Errorf("core: config needs at least one port, got %d", c.Ports)
	}
	if _, err := c.Digester(); err != nil {
		return err
	}
	return nil
}
