package crypto

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// KeyedCRC32 is the keyed pseudo-random function used on the Tofino target,
// where the pipeline's hash distribution units natively compute CRC32. The
// key is folded into the stream as an envelope (key || data || key), the
// standard way to key an unkeyed checksum on hardware that cannot change
// the polynomial per packet.
//
// CRC32 is linear and therefore not a cryptographic MAC; the paper accepts
// this trade-off on Tofino (§VII) and strengthens the derived key material
// through the KDF. We reproduce the same choice and document it.
type KeyedCRC32 struct {
	table *crc32.Table
	fold  *keyFold
}

// keyFold holds the slicing-by-8 tables of one polynomial, which advance a
// CRC over the key's eight bytes in one step. They are built on the first
// digest under that polynomial, once per process: 8 KB that a process
// which never hashes with the polynomial does not hold.
type keyFold struct {
	once sync.Once
	t    *[8]crc32.Table
}

var ieeeFold, castFold keyFold

// tables returns the slicing tables over tab, building them on first use:
// t[0] is tab, and t[k][b] is the register t[k-1][b] after one more zero
// byte, so the byte eight places from the end of a block goes through t[7].
func (f *keyFold) tables(tab *crc32.Table) *[8]crc32.Table {
	f.once.Do(func() {
		t := new([8]crc32.Table)
		t[0] = *tab
		for k := 1; k < 8; k++ {
			for b, crc := range t[k-1] {
				t[k][b] = tab[byte(crc)] ^ crc>>8
			}
		}
		f.t = t
	})
	return f.t
}

// NewKeyedCRC32 returns a keyed CRC32 PRF over the IEEE polynomial, the
// polynomial Tofino's hash units expose by default. The lookup table is
// the process-wide singleton (see tables.go).
func NewKeyedCRC32() KeyedCRC32 {
	return KeyedCRC32{table: IEEETable(), fold: &ieeeFold}
}

// NewKeyedCRC32Castagnoli returns the PRF over the Castagnoli polynomial,
// the common alternate polynomial on Tofino hash units.
func NewKeyedCRC32Castagnoli() KeyedCRC32 {
	return KeyedCRC32{table: CastagnoliTable(), fold: &castFold}
}

// Sum32 computes CRC32(key_le || data || key_le) under the configured
// polynomial, in one slicing-by-8 pass over the tables keyFold builds.
// It does not call crc32.Update: Update dispatches through an internal
// function pointer, through which the data it is handed escapes to the
// heap.
func (k KeyedCRC32) Sum32(key uint64, data []byte) uint32 {
	t := k.fold.tables(k.table)
	return sumFrom(t, foldKey(t, ^uint32(0), key), key, data)
}

// SumBatch32 computes the keyed digest of each input under one key,
// writing out[i] for datas[i]. The leading key-envelope pass (a pure
// function of the key) is computed once and reused for the whole batch;
// out must have len(datas) entries.
func (k KeyedCRC32) SumBatch32(key uint64, datas [][]byte, out []uint32) {
	t := k.fold.tables(k.table)
	pre := foldKey(t, ^uint32(0), key)
	for i, d := range datas {
		out[i] = sumFrom(t, pre, key, d)
	}
}

// The functions below work on the CRC register between its initial and
// final inversion, as crc32's own slicing-by-8 loop does.

// sumFrom continues a register that has absorbed the leading key over
// data, eight bytes per step and the tail byte by byte, then over the
// trailing key, and returns the finished CRC.
func sumFrom(t *[8]crc32.Table, crc uint32, key uint64, data []byte) uint32 {
	for ; len(data) >= 8; data = data[8:] {
		crc = step8(t, crc^binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:]))
	}
	for _, b := range data {
		crc = t[0][byte(crc)^b] ^ crc>>8
	}
	return ^foldKey(t, crc, key)
}

// foldKey advances the register over the key's 8 little-endian bytes.
func foldKey(t *[8]crc32.Table, crc uint32, key uint64) uint32 {
	return step8(t, crc^uint32(key), uint32(key>>32))
}

// step8 is one slicing-by-8 step: lo is the register with the block's
// first four bytes (little-endian) folded in, hi the block's last four.
func step8(t *[8]crc32.Table, lo, hi uint32) uint32 {
	return t[7][byte(lo)] ^ t[6][byte(lo>>8)] ^ t[5][byte(lo>>16)] ^ t[4][byte(lo>>24)] ^
		t[3][byte(hi)] ^ t[2][byte(hi>>8)] ^ t[1][byte(hi>>16)] ^ t[0][byte(hi>>24)]
}
