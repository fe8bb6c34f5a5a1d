package p4auth

import (
	"testing"
	"time"

	"p4auth/internal/bench"
	"p4auth/internal/crypto"
)

// One benchmark per table and figure of the paper's evaluation (§IX) plus
// the §XI ablation. Each iteration regenerates the artifact end to end;
// run `go test -bench=. -benchmem` at the repository root, or
// `go run ./cmd/p4auth-bench` for the formatted tables.

func benchReport(b *testing.B, run func() (*bench.Report, error)) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping evaluation benchmark in -short mode")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	benchReport(b, func() (*bench.Report, error) { return bench.TableI() })
}

func BenchmarkFig16RouteScout(b *testing.B) {
	opts := bench.DefaultFig16Opts()
	opts.Duration = 600 * time.Millisecond // virtual
	benchReport(b, func() (*bench.Report, error) { return bench.Fig16(opts) })
}

func BenchmarkFig17Hula(b *testing.B) {
	opts := bench.DefaultFig17Opts()
	opts.Duration = 60 * time.Millisecond // virtual
	benchReport(b, func() (*bench.Report, error) { return bench.Fig17(opts) })
}

func BenchmarkFig18RegisterRCT(b *testing.B) {
	opts := bench.RegRWOpts{Requests: 50}
	benchReport(b, func() (*bench.Report, error) { return bench.Fig18(opts) })
}

func BenchmarkFig19RegisterThroughput(b *testing.B) {
	opts := bench.RegRWOpts{Requests: 50}
	benchReport(b, func() (*bench.Report, error) { return bench.Fig19(opts) })
}

func BenchmarkTableIIResources(b *testing.B) {
	benchReport(b, func() (*bench.Report, error) { return bench.TableII() })
}

func BenchmarkFig20KMPRTT(b *testing.B) {
	opts := bench.DefaultFig20Opts()
	opts.Samples = 10
	benchReport(b, func() (*bench.Report, error) { return bench.Fig20(opts) })
}

func BenchmarkFig21ProbeTraversal(b *testing.B) {
	opts := bench.DefaultFig21Opts()
	opts.Hops = []int{2, 6, 10}
	opts.Samples = 3
	benchReport(b, func() (*bench.Report, error) { return bench.Fig21(opts) })
}

func BenchmarkTableIIIScalability(b *testing.B) {
	opts := bench.TableIIIOpts{Switches: 8, Links: 12}
	benchReport(b, func() (*bench.Report, error) { return bench.TableIII(opts) })
}

func BenchmarkAblationDigestWidth(b *testing.B) {
	benchReport(b, func() (*bench.Report, error) { return bench.AblationDigest() })
}

// Micro-benchmarks of the primitives behind the figures.

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

// BenchmarkFig19Pipelined regenerates the windowed-transport throughput
// sweep (serial baseline through window 32) once per iteration.
func BenchmarkFig19Pipelined(b *testing.B) {
	opts := bench.DefaultFig19PipelinedOpts()
	opts.Requests = 128
	benchReport(b, func() (*bench.Report, error) { return bench.Fig19Pipelined(opts) })
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
