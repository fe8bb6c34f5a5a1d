// Package sketch provides compact data structures that compile onto the
// PISA substrate — the count-min sketch and bloom filter that NetCache and
// SilkRoad keep in switch registers (paper Table I). Each builder adds the
// registers and ops to a pisa program; a Go-side mirror computes the same
// hashes for controllers and tests.
package sketch

import (
	"fmt"

	"p4auth/internal/crypto"
	"p4auth/internal/pisa"
)

// CMS describes a count-min sketch realized as `rows` register arrays of
// `cols` 32-bit counters, indexed by per-row keyed CRC32 hashes of a key
// field. Rows are seeded with distinct hash keys (hardware: distinct CRC
// polynomials/seeds per hash unit).
type CMS struct {
	Name string
	Rows int
	Cols int // power of two
}

// NewCMS validates the geometry.
func NewCMS(name string, rows, cols int) (*CMS, error) {
	if rows < 1 || rows > 8 {
		return nil, fmt.Errorf("sketch: %s: rows %d out of [1,8]", name, rows)
	}
	if cols < 2 || cols&(cols-1) != 0 {
		return nil, fmt.Errorf("sketch: %s: cols %d must be a power of two", name, cols)
	}
	return &CMS{Name: name, Rows: rows, Cols: cols}, nil
}

func (c *CMS) rowReg(r int) string { return fmt.Sprintf("%s_row%d", c.Name, r) }

func (c *CMS) rowSeed(r int) uint64 { return 0xC0153EED + uint64(r)*0x9E3779B9 }

func (c *CMS) idxMeta(r int) string { return fmt.Sprintf("%s_idx%d", c.Name, r) }

func (c *CMS) cntMeta(r int) string { return fmt.Sprintf("%s_cnt%d", c.Name, r) }

// MinMeta is the metadata field holding the sketch estimate after Query
// ops run.
func (c *CMS) MinMeta() string { return c.Name + "_min" }

// AddToProgram declares the registers and metadata the sketch needs.
func (c *CMS) AddToProgram(prog *pisa.Program) {
	for r := 0; r < c.Rows; r++ {
		prog.Registers = append(prog.Registers, &pisa.RegisterDef{
			Name: c.rowReg(r), Width: 32, Entries: c.Cols,
		})
		prog.Metadata = append(prog.Metadata,
			pisa.FieldDef{Name: c.idxMeta(r), Width: 32},
			pisa.FieldDef{Name: c.cntMeta(r), Width: 32},
		)
	}
	prog.Metadata = append(prog.Metadata, pisa.FieldDef{Name: c.MinMeta(), Width: 32})
}

func (c *CMS) hashOps(key pisa.Operand) []pisa.Op {
	var ops []pisa.Op
	for r := 0; r < c.Rows; r++ {
		idx := pisa.F(pisa.MetaHeader, c.idxMeta(r))
		ops = append(ops,
			pisa.KeyedHash(idx, pisa.HashCRC32, pisa.C(c.rowSeed(r)), key),
			pisa.And(idx, pisa.R(idx), pisa.C(uint64(c.Cols-1))),
		)
	}
	return ops
}

// UpdateOps returns ops that increment all rows for the key and leave the
// pre-increment minimum estimate in MinMeta (one RMW per row — a single
// register access each, hardware-legal).
func (c *CMS) UpdateOps(key pisa.Operand) []pisa.Op {
	ops := c.hashOps(key)
	for r := 0; r < c.Rows; r++ {
		cnt := pisa.F(pisa.MetaHeader, c.cntMeta(r))
		ops = append(ops,
			pisa.RegRMW(cnt, c.rowReg(r), pisa.R(pisa.F(pisa.MetaHeader, c.idxMeta(r))), pisa.RMWAdd, pisa.C(1)),
		)
	}
	ops = append(ops, c.minOps()...)
	return ops
}

func (c *CMS) minOps() []pisa.Op {
	min := pisa.F(pisa.MetaHeader, c.MinMeta())
	ops := []pisa.Op{pisa.Set(min, pisa.R(pisa.F(pisa.MetaHeader, c.cntMeta(0))))}
	for r := 1; r < c.Rows; r++ {
		cnt := pisa.R(pisa.F(pisa.MetaHeader, c.cntMeta(r)))
		ops = append(ops, pisa.If(pisa.Lt(cnt, pisa.R(min)), []pisa.Op{pisa.Set(min, cnt)}))
	}
	return ops
}

// RegisterNames lists the sketch's register arrays (for clearing/export).
func (c *CMS) RegisterNames() []string {
	names := make([]string, c.Rows)
	for r := 0; r < c.Rows; r++ {
		names[r] = c.rowReg(r)
	}
	return names
}

// Mirror is the Go-side reference implementation computing the identical
// hashes (used by controllers and tests to predict data-plane state).
type Mirror struct {
	cms *CMS
	prf crypto.KeyedCRC32
}

// NewMirror builds a mirror for the sketch geometry.
func NewMirror(c *CMS) *Mirror {
	return &Mirror{cms: c, prf: crypto.NewKeyedCRC32()}
}

// Indexes returns the per-row column index for a key, matching the
// data-plane hash ops bit-for-bit (MSB-first packed 32-bit key).
func (m *Mirror) Indexes(key uint32) []int {
	out := make([]int, m.cms.Rows)
	b := []byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)}
	for r := 0; r < m.cms.Rows; r++ {
		out[r] = int(m.prf.Sum32(m.cms.rowSeed(r), b)) & (m.cms.Cols - 1)
	}
	return out
}

// Estimate reads the sketch estimate for a key through the driver.
func (m *Mirror) Estimate(sw *pisa.Switch, key uint32) (uint64, error) {
	min := ^uint64(0)
	for r, idx := range m.Indexes(key) {
		v, err := sw.RegisterRead(m.cms.rowReg(r), idx)
		if err != nil {
			return 0, err
		}
		if v < min {
			min = v
		}
	}
	return min, nil
}

// Clear zeroes the sketch through the driver (the controller's periodic
// statistics reset in NetCache).
func (m *Mirror) Clear(sw *pisa.Switch) error {
	for r := 0; r < m.cms.Rows; r++ {
		for i := 0; i < m.cms.Cols; i++ {
			if err := sw.RegisterWrite(m.cms.rowReg(r), i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// Bloom is a bloom filter over `hashes` single-bit register rows (the
// SilkRoad transit-table shape).
type Bloom struct {
	Name   string
	Hashes int
	Bits   int // power of two
}

// NewBloom validates the geometry.
func NewBloom(name string, hashes, bits int) (*Bloom, error) {
	if hashes < 1 || hashes > 8 {
		return nil, fmt.Errorf("sketch: %s: hashes %d out of [1,8]", name, hashes)
	}
	if bits < 2 || bits&(bits-1) != 0 {
		return nil, fmt.Errorf("sketch: %s: bits %d must be a power of two", name, bits)
	}
	return &Bloom{Name: name, Hashes: hashes, Bits: bits}, nil
}

func (b *Bloom) rowReg(h int) string  { return fmt.Sprintf("%s_h%d", b.Name, h) }
func (b *Bloom) rowSeed(h int) uint64 { return 0xB100F11E + uint64(h)*0x61C88647 }
func (b *Bloom) idxMeta(h int) string { return fmt.Sprintf("%s_bidx%d", b.Name, h) }
func (b *Bloom) bitMeta(h int) string { return fmt.Sprintf("%s_bit%d", b.Name, h) }

// HitMeta holds 1 after TestOps when all bits were set.
func (b *Bloom) HitMeta() string { return b.Name + "_hit" }

// AddToProgram declares the filter's registers and metadata.
func (b *Bloom) AddToProgram(prog *pisa.Program) {
	for h := 0; h < b.Hashes; h++ {
		prog.Registers = append(prog.Registers, &pisa.RegisterDef{
			Name: b.rowReg(h), Width: 1, Entries: b.Bits,
		})
		prog.Metadata = append(prog.Metadata,
			pisa.FieldDef{Name: b.idxMeta(h), Width: 32},
			pisa.FieldDef{Name: b.bitMeta(h), Width: 8},
		)
	}
	prog.Metadata = append(prog.Metadata, pisa.FieldDef{Name: b.HitMeta(), Width: 8})
}

func (b *Bloom) hashOps(key pisa.Operand) []pisa.Op {
	var ops []pisa.Op
	for h := 0; h < b.Hashes; h++ {
		idx := pisa.F(pisa.MetaHeader, b.idxMeta(h))
		ops = append(ops,
			pisa.KeyedHash(idx, pisa.HashCRC32, pisa.C(b.rowSeed(h)), key),
			pisa.And(idx, pisa.R(idx), pisa.C(uint64(b.Bits-1))),
		)
	}
	return ops
}

// InsertOps sets the key's bits.
func (b *Bloom) InsertOps(key pisa.Operand) []pisa.Op {
	ops := b.hashOps(key)
	for h := 0; h < b.Hashes; h++ {
		ops = append(ops,
			pisa.RegWrite(b.rowReg(h), pisa.R(pisa.F(pisa.MetaHeader, b.idxMeta(h))), pisa.C(1)),
		)
	}
	return ops
}

// TestOps leaves 1 in HitMeta iff every bit for the key is set.
func (b *Bloom) TestOps(key pisa.Operand) []pisa.Op {
	ops := b.hashOps(key)
	hit := pisa.F(pisa.MetaHeader, b.HitMeta())
	for h := 0; h < b.Hashes; h++ {
		ops = append(ops,
			pisa.RegRead(pisa.F(pisa.MetaHeader, b.bitMeta(h)), b.rowReg(h), pisa.R(pisa.F(pisa.MetaHeader, b.idxMeta(h)))),
		)
	}
	ops = append(ops, pisa.Set(hit, pisa.C(1)))
	for h := 0; h < b.Hashes; h++ {
		ops = append(ops, pisa.If(pisa.Eq(pisa.R(pisa.F(pisa.MetaHeader, b.bitMeta(h))), pisa.C(0)),
			[]pisa.Op{pisa.Set(hit, pisa.C(0))}))
	}
	return ops
}

// RegisterNames lists the filter's register arrays.
func (b *Bloom) RegisterNames() []string {
	names := make([]string, b.Hashes)
	for h := 0; h < b.Hashes; h++ {
		names[h] = b.rowReg(h)
	}
	return names
}

// BloomMirror predicts data-plane bloom state from Go.
type BloomMirror struct {
	bloom *Bloom
	prf   crypto.KeyedCRC32
}

// NewBloomMirror builds the mirror.
func NewBloomMirror(b *Bloom) *BloomMirror {
	return &BloomMirror{bloom: b, prf: crypto.NewKeyedCRC32()}
}

// Indexes returns per-hash bit positions for a key.
func (m *BloomMirror) Indexes(key uint32) []int {
	out := make([]int, m.bloom.Hashes)
	bs := []byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)}
	for h := 0; h < m.bloom.Hashes; h++ {
		out[h] = int(m.prf.Sum32(m.bloom.rowSeed(h), bs)) & (m.bloom.Bits - 1)
	}
	return out
}

// Test reads the filter through the driver.
func (m *BloomMirror) Test(sw *pisa.Switch, key uint32) (bool, error) {
	for h, idx := range m.Indexes(key) {
		v, err := sw.RegisterRead(m.bloom.rowReg(h), idx)
		if err != nil {
			return false, err
		}
		if v == 0 {
			return false, nil
		}
	}
	return true, nil
}

// Clear zeroes the filter through the driver.
func (m *BloomMirror) Clear(sw *pisa.Switch) error {
	for h := 0; h < m.bloom.Hashes; h++ {
		for i := 0; i < m.bloom.Bits; i++ {
			if err := sw.RegisterWrite(m.bloom.rowReg(h), i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
