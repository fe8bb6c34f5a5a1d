package p4auth

import (
	"testing"

	"p4auth/internal/crypto"
)

// Benchmarks of the authenticated C-DP path and the local-key rollover.
// The paper's tables and figures are modeled reports, pinned by
// internal/bench's TestReportGoldens and printed by
// `go run ./cmd/p4auth-bench`.

// authenticatedBench builds one switch with a keyed controller and runs
// enough writes to warm the handle scratch and the agent's response cache,
// so the steady state (0 allocs/op) is what gets measured.
func authenticatedBench(b *testing.B) *Controller {
	sw, err := BuildSwitch(SwitchSpec{
		Name:  "b1",
		Ports: 4,
		Registers: []*RegisterDef{
			{Name: "r", Width: 64, Entries: 64},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	c := NewController(crypto.NewSeededRand(9))
	if err := c.Register("b1", sw.Host, sw.Cfg, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.LocalKeyInit("b1"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkAuthenticatedWrite(b *testing.B) {
	c := authenticatedBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuthenticatedRead is the other half of a cdp_serial operation:
// the read of what BenchmarkAuthenticatedWrite wrote.
func BenchmarkAuthenticatedRead(b *testing.B) {
	c := authenticatedBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := c.ReadRegister("b1", "r", uint32(i%64))
		if err != nil {
			b.Fatal(err)
		}
		if v != uint64(i%64) {
			b.Fatalf("r[%d] = %d, the warm-up wrote %d", i%64, v, i%64)
		}
	}
}

func BenchmarkLocalKeyRollover(b *testing.B) {
	sw, err := BuildSwitch(SwitchSpec{
		Name:  "b2",
		Ports: 4,
		Registers: []*RegisterDef{
			{Name: "r", Width: 64, Entries: 4},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	c := NewController(crypto.NewSeededRand(10))
	if err := c.Register("b2", sw.Host, sw.Cfg, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.LocalKeyInit("b2"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LocalKeyUpdate("b2"); err != nil {
			b.Fatal(err)
		}
	}
}
