package pisa_test

import (
	"testing"

	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

// BenchmarkCompileHULA times one cold Compile of the secure HULA program
// a k=4 fat-tree edge switch runs (two uplinks and the host port): what a
// switch built from a configuration not seen before pays.
func BenchmarkCompileHULA(b *testing.B) {
	prog, _, err := hula.BuildProgram(hula.DefaultParams(1, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pisa.Compile(prog, pisa.BMv2Profile()); err != nil {
			b.Fatal(err)
		}
	}
}
