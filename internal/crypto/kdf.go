package crypto

import (
	"bytes"
	"encoding/binary"
)

// PRF32 is a 32-bit-output keyed pseudo-random function, the primitive the
// KDF (Fig. 13) is built on. The paper's prototype uses CRC32 on Tofino and
// HalfSipHash on BMv2; both satisfy this interface.
type PRF32 interface {
	Sum32(key uint64, data []byte) uint32
}

var (
	_ PRF32 = HalfSipHash{}
	_ PRF32 = KeyedCRC32{}
)

// KDF is the custom key derivation function of §VI-D, following TLS 1.3's
// Extract-and-Expand (HKDF) structure: a randomness-extraction pass keyed
// by the public salt, then an expansion pass producing the output key. The
// PRF yields 32 bits, so each phase runs the PRF twice to produce 64-bit
// values, exactly as the paper describes ("the KDF executes the PRF twice
// to produce the final 64-bit secret").
//
// Personalization is the secret constant standing in for the paper's
// "custom logic in the binary, kept secret between C and DP" (§VIII): it is
// compiled into the controller and switch images and never crosses the
// wire, so an observer who captures every exchange message still cannot
// reproduce the derivation. The zero value uses HalfSipHash-2-4, one round,
// and no personalization.
type KDF struct {
	// PRF is the pseudo-random function; nil means HalfSipHash-2-4.
	PRF PRF32
	// Rounds is the number of expansion iterations; values below 1 are
	// treated as 1 (the paper's prototype setting).
	Rounds int
	// Personalization is the secret per-deployment constant mixed into
	// both phases.
	Personalization uint64
}

// Labels keep the extract and expand phases, and the two PRF invocations
// inside each phase, in distinct domains. They are 64-bit values and the
// derivation buffer is packed big-endian so a PISA pipeline can reproduce
// the computation exactly: hash units there consume MSB-first packed
// fields, and immediate operands are 64 bits wide (see internal/pisa).
const (
	KDFLabelExtractLo uint64 = 0xE1
	KDFLabelExtractHi uint64 = 0xE2
	KDFLabelExpandLo  uint64 = 0x01
	KDFLabelExpandHi  uint64 = 0x02
)

// sum32 runs the KDF's PRF over data. The PRFs of this package are
// called on their concrete types, so data, a stack block of Derive's,
// does not escape through the PRF32 interface; another PRF gets a heap
// copy of it.
func (k KDF) sum32(key uint64, data []byte) uint32 {
	switch p := k.PRF.(type) {
	case nil:
		return NewHalfSipHash24().Sum32(key, data)
	case HalfSipHashDigester:
		return p.Sum32(key, data)
	case CRC32Digester:
		return p.Sum32(key, data)
	case HalfSipHash:
		return p.Sum32(key, data)
	case KeyedCRC32:
		return p.Sum32(key, data)
	}
	return k.PRF.Sum32(key, bytes.Clone(data))
}

// Derive computes a 64-bit key from a 64-bit input secret and a 64-bit
// public salt (Fig. 13): extract a pseudo-random key from (secret, salt),
// then expand it for the configured number of rounds.
func (k KDF) Derive(secret, salt uint64) uint64 {
	rounds := k.Rounds
	if rounds < 1 {
		rounds = 1
	}

	// Extract: key the PRF with the salt, absorb the secret and the
	// personalization. Layout: secret(8) || personalization(8) || label(8),
	// all big-endian — the MSB-first packing a pipeline hash unit produces.
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:8], secret)
	binary.BigEndian.PutUint64(buf[8:16], k.Personalization)
	binary.BigEndian.PutUint64(buf[16:24], KDFLabelExtractLo)
	lo := k.sum32(salt, buf[:])
	binary.BigEndian.PutUint64(buf[16:24], KDFLabelExtractHi)
	hi := k.sum32(salt, buf[:])
	prk := uint64(hi)<<32 | uint64(lo)

	// Expand: iterate the PRF keyed by the pseudo-random key, feeding the
	// previous output and the personalization back in.
	out := prk
	for r := 0; r < rounds; r++ {
		binary.BigEndian.PutUint64(buf[0:8], out)
		binary.BigEndian.PutUint64(buf[8:16], k.Personalization)
		binary.BigEndian.PutUint64(buf[16:24], KDFLabelExpandLo)
		lo = k.sum32(prk, buf[:])
		binary.BigEndian.PutUint64(buf[16:24], KDFLabelExpandHi)
		hi = k.sum32(prk, buf[:])
		out = uint64(hi)<<32 | uint64(lo)
	}
	return out
}
