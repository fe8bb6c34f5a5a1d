package chaos

import (
	"strings"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/ha"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// rec reaches the recorder every harness result embeds, so the helpers
// below work on all of them.
func (r *Recorder) rec() *Recorder { return r }

// result is any harness's *Result type.
type result interface {
	*Result | *FabricResult | *HAResult | *GroupResult
	rec() *Recorder
}

// runClean executes one harness run and fails the test on a harness
// error or any invariant violation, printing the trace for replay.
func runClean[O any, R result](t *testing.T, run func(O) (R, error), o O) R {
	t.Helper()
	res, err := run(o)
	if res != nil && (err != nil || len(res.rec().Violations) > 0) {
		for _, line := range res.rec().Trace {
			t.Log(line)
		}
	}
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if v := res.rec().Violations; len(v) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(v), v[0])
	}
	return res
}

// assertSameTrace executes the same run twice and requires bit-for-bit
// identical traces: a schedule that cannot be replayed cannot be
// debugged.
func assertSameTrace[O any, R result](t *testing.T, run func(O) (R, error), o O) {
	t.Helper()
	var traces [2][]string
	for i := range traces {
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = res.rec().Trace
	}
	a, b := traces[0], traces[1]
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at line %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// bitten is a keyed two-switch kernel for the negative tests: a live
// controller with crash safety over a store and an observer, one write
// landed and shadowed per switch, and the baseline sweeps passed clean.
type bitten struct {
	kernel
	c  *controller.Controller
	st *statestore.Mem
	ob *obs.Observer
}

func newBitten(t *testing.T) *bitten {
	t.Helper()
	fx, err := NewFixture("s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(fx.Sim)
	b := &bitten{
		kernel: kernel{&rec, fx, NewStream(1)},
		st:     statestore.NewMem(),
		ob:     obs.NewObserver(0),
	}
	if b.c, err = fx.NewController(1); err != nil {
		t.Fatal(err)
	}
	if err := b.c.EnableCrashSafety(b.st); err != nil {
		t.Fatal(err)
	}
	b.c.SetObserver(b.ob)
	if _, err := b.c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	for _, n := range b.Names {
		if _, err := b.c.WriteRegister(n, "lat", 0, 77); err != nil {
			t.Fatal(err)
		}
		b.shadow[n][0] = 77
	}
	b.floorsMonotone("baseline")
	b.noDanglingIntents("baseline", b.c)
	b.shadowMatches("baseline", b.c)
	b.forgerySweep("baseline", false)
	b.AuditReconciled("baseline", b.ob)
	if len(b.Violations) > 0 {
		t.Fatalf("fixture is not clean before the breach: %v", b.Violations)
	}
	return b
}

// TestInvariantsBite shows the safety net can fail: each kernel
// invariant, given exactly the breach it exists to catch, records
// exactly one violation and traces it.
func TestInvariantsBite(t *testing.T) {
	dev := func(b *bitten) *switchos.Host { return b.sw["s1"].Host }
	cases := []struct {
		name   string
		breach func(t *testing.T, b *bitten)
	}{
		{"floorsMonotone", func(t *testing.T, b *bitten) {
			// Lower a replay floor through the driver.
			if err := dev(b).SW.RegisterWrite(core.RegSeq, 0, b.floors["s1"][0]-1); err != nil {
				t.Fatal(err)
			}
			b.floorsMonotone("breach")
		}},
		{"forgeryBounces", func(t *testing.T, b *bitten) {
			// A backdoor below the agent applies whatever reaches it:
			// the forged write lands in the forgery slot.
			err := dev(b).Install(switchos.BoundarySDKDriver, &switchos.Hooks{
				OnPacketOut: func(data []byte) []byte {
					_ = dev(b).SW.RegisterWrite("lat", forgeryIndex, 0xDEAD)
					return data
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			b.forgeryBounces("breach", "s1")
		}},
		{"shadowMatches", func(t *testing.T, b *bitten) {
			// Device state changes behind the controller's back.
			if err := dev(b).SW.RegisterWrite("lat", 0, 78); err != nil {
				t.Fatal(err)
			}
			b.shadowMatches("breach", b.c)
		}},
		{"noDanglingIntents", func(t *testing.T, b *bitten) {
			e := &core.JournalEntry{ID: 0xFFFF, Switch: "s1", Register: "lat", Index: 1, Value: 5, State: core.WriteIntent}
			if err := b.st.Save("wal/s1/000000000000ffff", e.Encode()); err != nil {
				t.Fatal(err)
			}
			b.noDanglingIntents("breach", b.c)
		}},
		{"deposedWriteRefused", func(t *testing.T, b *bitten) {
			// The refusal is in order (the process is dead) but the slot
			// no longer holds what the harness last saw there.
			dead, err := b.NewController(2)
			if err != nil {
				t.Fatal(err)
			}
			dead.Kill()
			b.deposedWriteRefused("deposed write", dead, b.c, "s1", 0, 76, 0x666)
		}},
		{"AtMostOneActive", func(t *testing.T, b *bitten) {
			// Two replicas that do not share a lease record both pass
			// their fence.
			var reps []*ha.Replica
			for _, name := range []string{"ctl-a", "ctl-b"} {
				c, err := b.NewController(3)
				if err != nil {
					t.Fatal(err)
				}
				r, err := ha.NewReplica(ha.ReplicaConfig{
					Name: name, Store: statestore.NewMem(), Clock: b.Sim,
					TTL: 5 * time.Millisecond, Controller: c,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Activate(ha.CauseBootstrap); err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}
			if n, _ := b.AtMostOneActive("breach", reps); n != 2 {
				t.Fatalf("%d replicas pass the fence, want 2", n)
			}
		}},
		{"AuditReconciled", func(t *testing.T, b *bitten) {
			// A counted event nobody audited.
			b.ob.Metrics.Counter("ctl.write_dropped").Inc()
			b.AuditReconciled("breach", b.ob)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBitten(t)
			tc.breach(t, b)
			if len(b.Violations) != 1 {
				t.Fatalf("%d violations, want exactly 1: %v", len(b.Violations), b.Violations)
			}
			if !strings.Contains(strings.Join(b.Trace, "\n"), "VIOLATION: "+b.Violations[0]) {
				t.Fatalf("violation %q not traced", b.Violations[0])
			}
		})
	}
}
