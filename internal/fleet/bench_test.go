package fleet

import "testing"

// BenchmarkBuildFatTree times what a fresh secure k=4 fabric costs to set
// up: 20 HULA switches built and registered, 32 links wired, and every
// local and port key established. After the first iteration the two role
// programs are compiled already (pisa.CompileOnce).
func BenchmarkBuildFatTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFatTree(DefaultTopoConfig(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// coldFailTimeout is the last FailTimeoutNs BenchmarkBuildFatTreeCold
// used. It is a HULA program input no other fabric of the process uses.
var coldFailTimeout uint64 = 3_000_000

// BenchmarkBuildFatTreeCold times a fabric's first set-up in a process:
// every iteration builds a config no earlier fabric used, so it compiles
// the two role programs (edge; agg and core) afresh and leaves both in the
// process-wide cache.
func BenchmarkBuildFatTreeCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultTopoConfig(4)
		coldFailTimeout++
		cfg.FailTimeoutNs = coldFailTimeout
		if _, err := BuildFatTree(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
