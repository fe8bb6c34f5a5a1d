package crypto

import (
	"hash/crc32"
	"sync"
)

// Shared lookup tables and digester singletons. Building a crc32.Table is
// a 1KiB computation; every switch instantiation and controller handle
// needs the same two tables, so they are built once per process instead
// of once per NewSwitchFromCompiled/Register call.

var (
	ieeeOnce sync.Once
	ieeeTab  *crc32.Table
	castOnce sync.Once
	castTab  *crc32.Table
)

// IEEETable returns the process-wide CRC32 table for the IEEE polynomial.
func IEEETable() *crc32.Table {
	ieeeOnce.Do(func() { ieeeTab = crc32.MakeTable(crc32.IEEE) })
	return ieeeTab
}

// CastagnoliTable returns the process-wide CRC32 table for the Castagnoli
// polynomial.
func CastagnoliTable() *crc32.Table {
	castOnce.Do(func() { castTab = crc32.MakeTable(crc32.Castagnoli) })
	return castTab
}

// Process-wide digester singletons, pre-boxed as Digester so hot-path
// callers holding the interface never re-box the concrete value (a
// per-call heap allocation for multi-word structs).
var (
	sharedHalfSip Digester = HalfSipHashDigester{NewHalfSipHash24()}
	sharedCRC32   Digester = NewCRC32Digester()
)

// SharedHalfSipHashDigester returns the process-wide HalfSipHash-2-4
// digester.
func SharedHalfSipHashDigester() Digester { return sharedHalfSip }

// SharedCRC32Digester returns the process-wide keyed-CRC32 digester
// (IEEE polynomial, shared table).
func SharedCRC32Digester() Digester { return sharedCRC32 }
