package p4auth

import (
	"errors"
	"runtime"
	"testing"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

// TestBringUpAllocs pins what a bring-up pays once its program is
// compiled. A second switch of an already-compiled configuration shares
// the compilation's p4info and register map (const entries: there is
// nothing to insert) and allocates only its own state; a fresh controller
// holds no audit ring until it records an event.
func TestBringUpAllocs(t *testing.T) {
	first, err := hula.NewSwitch("a", hula.DefaultParams(1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := hula.NewSwitch("b", hula.DefaultParams(2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Host.Info != first.Host.Info {
		t.Error("hula: a second switch of one compilation built its own p4info")
	}
	entry := pisa.Entry{Key: []pisa.KeyMatch{pisa.EKey(1), pisa.EKey(core.MsgReadReq)}, Action: core.ActionRegMiss}
	if err := second.Host.SW.InsertEntry(core.TableRegMap, entry); !errors.Is(err, pisa.ErrConstTable) {
		t.Errorf("hula: register-map insert: %v, want ErrConstTable", err)
	}
	spec := deploy.SwitchSpec{Name: "d1", Ports: 4, Registers: []*pisa.RegisterDef{{Name: "r", Width: 64, Entries: 64}}}
	d1, err := deploy.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "d2"
	d2, err := deploy.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Host.Info != d1.Host.Info {
		t.Error("deploy: a second switch of one compilation built its own p4info")
	}

	// Budgets sit about 40% above the measured 46 and 34 allocations;
	// installing the register map and building p4info per switch took 138
	// and 83 more.
	for _, tc := range []struct {
		name   string
		budget float64
		build  func() error
	}{
		{"hula", 64, func() error { _, err := hula.NewSwitch("b", hula.DefaultParams(2, 2), 2); return err }},
		{"deploy", 48, func() error { _, err := deploy.Build(spec); return err }},
	} {
		if got := testing.AllocsPerRun(20, func() {
			if err := tc.build(); err != nil {
				t.Fatal(err)
			}
		}); got > tc.budget {
			t.Errorf("%s: a second switch costs %.0f allocs, budget %.0f", tc.name, got, tc.budget)
		}
	}

	// TotalAlloc counts what every goroutine of the process allocates, so
	// the bound holds the smallest of several readings, each taken after
	// a collection.
	got := ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := controller.New(crypto.NewSeededRand(1))
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got >= 8<<10 {
		t.Errorf("a fresh controller allocates %d bytes, want under 8 KiB with its audit ring", got)
	}
}
