package deploy

import (
	"reflect"
	"runtime"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// TestBuildSharesExactCompilation covers the specs the benchmark's
// workloads build: the C-DP fixture of the cdp_* workloads and the layer
// ladder, its unprotected twin, and the ladder's lifted-alert config. A
// second Build with another RandSeed (runtime state, not a program
// input) shares the first's compilation, which is deeply equal to
// a fresh compile of a fresh build.
func TestBuildSharesExactCompilation(t *testing.T) {
	regs := func() []*pisa.RegisterDef {
		return []*pisa.RegisterDef{{Name: "bench_reg", Width: 64, Entries: 1024}}
	}
	lifted := core.DefaultConfig(4, core.DigestCRC32)
	lifted.AlertThreshold = 1 << 40
	for _, spec := range []SwitchSpec{
		{Name: "pa", Ports: 4, RandSeed: 3, Registers: regs()},
		{Name: "pa", Ports: 4, Insecure: true, RandSeed: 3, Registers: regs()},
		{Name: "pa", Ports: 4, Config: &lifted, Registers: regs()},
	} {
		a, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		other := spec
		other.RandSeed = 99
		other.Registers = regs()
		b, err := Build(other)
		if err != nil {
			t.Fatal(err)
		}
		shared := a.Host.SW.Compiled()
		if b.Host.SW.Compiled() != shared {
			t.Errorf("insecure=%v config=%v: two switches compiled twice", spec.Insecure, spec.Config != nil)
		}
		prog, err := program(regs(), []string{"bench_reg"}, a.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := pisa.Compile(prog, pisa.TofinoProfile())
		if err != nil {
			t.Fatal(err)
		}
		p4rt.InfoOf(fresh) // the shared one's hosts built its p4info
		if !reflect.DeepEqual(fresh, shared) {
			t.Errorf("insecure=%v config=%v: shared compilation differs from a fresh one", spec.Insecure, spec.Config != nil)
		}
	}
}

// TestBuildKeyCoversProgramInputs: specs that differ only in one
// register's Entries get compilations of their own, specs that differ
// only in Name (the identical switches of a chaos or hierarchy fixture)
// share one, and a caller editing its RegisterDef after Build reaches
// neither the compilation it shares nor its p4info.
func TestBuildKeyCoversProgramInputs(t *testing.T) {
	spec := func(name string, entries int) SwitchSpec {
		return SwitchSpec{Name: name, Ports: 4, Registers: []*pisa.RegisterDef{
			{Name: "r", Width: 32, Entries: 4},
			{Name: "s", Width: 64, Entries: entries},
		}}
	}
	compiled := func(s SwitchSpec) *pisa.Compiled {
		t.Helper()
		sw, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		return sw.Host.SW.Compiled()
	}
	base := spec("key", 2)
	c := compiled(base)
	if compiled(spec("key", 3)) == c {
		t.Error("a spec differing only in one register's Entries shares the compilation")
	}
	if compiled(spec("key2", 2)) != c {
		t.Error("a spec differing only in Name compiled its own program")
	}
	base.Registers[1].Name, base.Registers[1].Entries = "edited", 7
	got := compiled(spec("key", 2))
	info := p4rt.InfoOf(got)
	s, err := info.RegisterByName("s")
	_, errEdited := info.RegisterByName("edited")
	if got != c || err != nil || s.Entries != 2 || errEdited == nil {
		t.Errorf("after the caller's edit: shared=%v, s %+v (%v), p4info has \"edited\": %v; want the first compilation, s of 2 entries and no \"edited\"",
			got == c, s, err, errEdited == nil)
	}
}

// cdpRetainedBound is what one compilation of the cdp_* workloads'
// switch (Tofino, four ports, CRC32, one 64-bit host register of 1024
// entries) and its p4info may keep on the heap. It measures about 13 kB
// (18 kB as the first test of a process), and the bound leaves room
// for the collector's and the map's noise; a compilation that pins its
// source Program retains about 119 kB.
const cdpRetainedBound = 32 << 10

// TestCompilationRetainedBytes holds what a fresh CompileOnce of the
// cdp_* configuration leaves live, measured between two full
// collections, under cdpRetainedBound, so a field that pins the source
// Program again fails here.
func TestCompilationRetainedBytes(t *testing.T) {
	cfg := core.DefaultConfig(4, core.DigestCRC32)
	regs := []*pisa.RegisterDef{{Name: "bench_reg", Width: 64, Entries: 1024}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := pisa.CompileOnce(new(int), pisa.TofinoProfile(), func() (*pisa.Program, error) {
		return program(regs, []string{"bench_reg"}, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	p4rt.InfoOf(c)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("one cdp_* compilation retains %d bytes", retained)
	if retained > cdpRetainedBound {
		t.Errorf("one cdp_* compilation retains %d bytes, bound %d", retained, cdpRetainedBound)
	}
}
