package deploy

import (
	"reflect"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// TestBuildSharesExactCompilation covers the specs the benchmark's
// workloads build: the C-DP fixture of the cdp_* workloads and the layer
// ladder, its unprotected twin, and the ladder's lifted-alert config. A
// second Build with another RandSeed and Costs (runtime state, not
// program inputs) shares the first's compilation, which is deeply equal to
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
		other.Costs = &switchos.Costs{}
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
// share one, and a caller editing its RegisterDef after Build cannot
// reach the program it shares.
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
	base.Registers[1].Entries = 7
	if got := compiled(spec("key", 2)); got != c || got.Program.Register("s").Entries != 2 {
		t.Errorf("after the caller's edit: shared=%v entries=%d, want the first compilation with 2",
			got == c, got.Program.Register("s").Entries)
	}
}
