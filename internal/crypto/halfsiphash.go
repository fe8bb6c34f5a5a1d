package crypto

import "math/bits"

// HalfSipHash implements the 32-bit-word variant of SipHash described by
// Aumasson and Bernstein, with c compression rounds and d finalization
// rounds and a 32-bit output. The paper's BMv2 prototype exposes
// HalfSipHash-2-4 as the compute_digest extern; the state update uses only
// 32-bit additions, XORs and rotations, which is exactly the operation set
// a PISA stage offers.
type HalfSipHash struct {
	// CRounds is the number of compression rounds per message block.
	CRounds int
	// DRounds is the number of finalization rounds.
	DRounds int
}

// NewHalfSipHash24 returns the HalfSipHash-2-4 parameterization used by the
// paper's prototype.
func NewHalfSipHash24() HalfSipHash {
	return HalfSipHash{CRounds: 2, DRounds: 4}
}

// sipState is the key-mixed initial state: everything about the key the
// compression loop needs, computed once and reusable across messages.
type sipState struct{ v0, v1, v2, v3 uint32 }

// initState mixes the 64-bit key (split little-endian into two 32-bit
// words, matching the reference implementation) into the IV.
func initState(key uint64) sipState {
	k0 := uint32(key)
	k1 := uint32(key >> 32)
	return sipState{
		v0: 0 ^ k0,
		v1: 0 ^ k1,
		v2: 0x6c796765 ^ k0,
		v3: 0x74656462 ^ k1,
	}
}

// Sum32 computes the 32-bit HalfSipHash of data under the 64-bit key.
func (h HalfSipHash) Sum32(key uint64, data []byte) uint32 {
	return h.sumFrom(initState(key), data)
}

// SumBatch32 computes the digest of each input under one key, writing
// out[i] for datas[i]. The key mix is performed once for the whole batch;
// out must have len(datas) entries. This is the kernel behind
// SignBatch/VerifyBatch.
func (h HalfSipHash) SumBatch32(key uint64, datas [][]byte, out []uint32) {
	st := initState(key)
	for i, d := range datas {
		out[i] = h.sumFrom(st, d)
	}
}

// sipRound is one SipRound over the four state words.
func sipRound(v0, v1, v2, v3 uint32) (uint32, uint32, uint32, uint32) {
	v0 += v1
	v1 = bits.RotateLeft32(v1, 5)
	v1 ^= v0
	v0 = bits.RotateLeft32(v0, 16)
	v2 += v3
	v3 = bits.RotateLeft32(v3, 8)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft32(v3, 7)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft32(v1, 13)
	v1 ^= v2
	v2 = bits.RotateLeft32(v2, 16)
	return v0, v1, v2, v3
}

// sumFrom runs the compression and finalization over data starting from a
// prepared key state.
func (h HalfSipHash) sumFrom(st sipState, data []byte) uint32 {
	v0, v1, v2, v3 := st.v0, st.v1, st.v2, st.v3

	n := len(data)
	// Whole 4-byte blocks, little-endian.
	i := 0
	for ; n-i >= 4; i += 4 {
		m := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		v3 ^= m
		for r := 0; r < h.CRounds; r++ {
			v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		}
		v0 ^= m
	}

	// Final block: remaining bytes plus the message length modulo 256 in
	// the most significant byte.
	last := uint32(n&0xff) << 24
	switch n - i {
	case 3:
		last |= uint32(data[i+2]) << 16
		fallthrough
	case 2:
		last |= uint32(data[i+1]) << 8
		fallthrough
	case 1:
		last |= uint32(data[i])
	}
	v3 ^= last
	for r := 0; r < h.CRounds; r++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	v0 ^= last

	v2 ^= 0xff
	for r := 0; r < h.DRounds; r++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v1 ^ v3
}
