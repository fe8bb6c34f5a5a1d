package ha

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
)

// tclock is a hand-advanced test clock.
type tclock struct{ d time.Duration }

func (c *tclock) Now() time.Duration { return c.d }

func TestLeaseLifecycle(t *testing.T) {
	st := statestore.NewMem()
	clk := &tclock{}
	a, err := NewLeaseManager(st, clk, "ctl-a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLeaseManager(st, clk, "ctl-b", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// Before any grant, both are fenced with never-active.
	if err := a.Fence(); FenceCause(err) != CauseNeverActive {
		t.Fatalf("pre-grant fence = %v", err)
	}

	l, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 || l.Holder != "ctl-a" {
		t.Fatalf("first grant = %+v", l)
	}
	if err := a.Fence(); err != nil {
		t.Fatalf("holder fenced: %v", err)
	}
	if err := b.Fence(); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("standby fence = %v, want ErrFenced chain", err)
	}

	// The standby cannot acquire while the grant is fresh.
	if _, err := b.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("standby acquire = %v, want ErrLeaseHeld", err)
	}

	// Renewal keeps the epoch.
	clk.d = 5 * time.Millisecond
	l2, err := a.Renew()
	if err != nil || l2.Epoch != 1 {
		t.Fatalf("renew = (%+v, %v)", l2, err)
	}

	// Expiry: the holder self-fences, the standby can take over at a
	// higher epoch, and the deposed holder's renew fails.
	clk.d = 20 * time.Millisecond
	if err := a.Fence(); FenceCause(err) != CauseLeaseExpired {
		t.Fatalf("expired fence = %v", err)
	}
	l3, err := b.Acquire()
	if err != nil || l3.Epoch != 2 {
		t.Fatalf("takeover = (%+v, %v)", l3, err)
	}
	if err := b.Fence(); err != nil {
		t.Fatalf("new holder fenced: %v", err)
	}
	if err := a.Fence(); FenceCause(err) != CauseDeposed {
		t.Fatalf("deposed fence = %v", err)
	}
	if _, err := a.Renew(); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed renew = %v, want ErrDeposed", err)
	}
}

func TestLeaseCorruptRecordReadsAsAbsent(t *testing.T) {
	st := statestore.NewMem()
	clk := &tclock{}
	if err := st.Save(statestore.LeaseKey, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	m, err := NewLeaseManager(st, clk, "ctl-a", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Acquire()
	if err != nil {
		t.Fatalf("acquire over corrupt record: %v", err)
	}
	if l.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 (corrupt record carries no epoch)", l.Epoch)
	}
}

// haFleet builds n switches and two replicas (a bootstrap active and a
// fenced standby) over one shared store, observer, and clock.
type haFleet struct {
	st    *statestore.Mem
	clk   *tclock
	ob    *obs.Observer
	names []string
	sw    map[string]*deploy.Switch
	a, b  *Replica
}

func newHAFleet(t *testing.T, n int, ttl time.Duration) *haFleet {
	t.Helper()
	clk := &tclock{}
	f := newHAFleetWith(t, n, ttl, clk)
	f.clk = clk
	return f
}

// newHAFleetWith is the clock-parameterized fixture shared with the
// stress test.
func newHAFleetWith(t *testing.T, n int, ttl time.Duration, clk Clock) *haFleet {
	t.Helper()
	f := &haFleet{
		st: statestore.NewMem(),
		ob: obs.NewObserver(0),
		sw: map[string]*deploy.Switch{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%02d", i)
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  name,
			Ports: 4,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: 8},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.sw[name] = s
		f.names = append(f.names, name)
	}
	mk := func(replica string, seed uint64) *Replica {
		c := controller.New(crypto.NewSeededRand(seed))
		c.SetRetryPolicy(controller.ResilientRetryPolicy())
		for _, nm := range f.names {
			s := f.sw[nm]
			if err := c.Register(nm, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewReplica(ReplicaConfig{
			Name: replica, Store: f.st, Clock: clk, TTL: ttl,
			Controller: c, Observer: f.ob,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	f.a = mk("ctl-a", 101)
	f.b = mk("ctl-b", 202)
	return f
}

func TestReplicaFailover(t *testing.T) {
	ttl := 50 * time.Millisecond
	f := newHAFleet(t, 3, ttl)
	if _, err := f.a.Activate(CauseBootstrap); err != nil {
		t.Fatal(err)
	}
	if _, err := f.a.Controller().InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	for _, nm := range f.names {
		if _, err := f.a.Controller().WriteRegister(nm, "lat", 1, 77); err != nil {
			t.Fatal(err)
		}
	}
	// The standby tails what the active persisted: one snapshot per
	// switch at least.
	n, err := f.b.TailOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n < len(f.names) {
		t.Fatalf("standby tailed %d records, want >= %d", n, len(f.names))
	}
	// The standby is fenced: its sends and persists are refused.
	if _, err := f.b.Controller().WriteRegister(f.names[0], "lat", 2, 1); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("standby write = %v, want ErrFenced", err)
	}

	// Active dies; the standby notices by lease expiry (the record is
	// the heartbeat) and promotes. It CANNOT acquire earlier — that is
	// the fencing guarantee, and the TTL bounds the detection time.
	f.a.Controller().Kill()
	if _, err := f.b.Activate(CausePromoted); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("takeover before expiry = %v, want ErrLeaseHeld", err)
	}
	f.clk.d += ttl + time.Millisecond
	warm, dur, err := f.b.Promote(CausePromoted)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if dur < 0 {
		t.Fatalf("failover duration %v", dur)
	}
	for _, nm := range f.names {
		if !warm[nm] {
			t.Fatalf("%s recovered cold (K_seed) after tailed snapshots", nm)
		}
		if u := f.b.Controller().SeedUses(nm); u != 0 {
			t.Fatalf("%s: promotion used K_seed %d times", nm, u)
		}
	}
	if f.b.Epoch() != 2 {
		t.Fatalf("post-promotion epoch = %d, want 2", f.b.Epoch())
	}

	// The new active serves; registers survived the failover.
	for _, nm := range f.names {
		v, _, err := f.b.Controller().ReadRegister(nm, "lat", 1)
		if err != nil || v != 77 {
			t.Fatalf("%s lat[1] after failover = (%d, %v), want 77", nm, v, err)
		}
	}

	// The deposed active (process alive again in the fenced sense — the
	// kill only models its crash; a restarted-but-stale instance would
	// look identical) cannot write: fence first, not luck.
	if err := f.a.Fence(); FenceCause(err) != CauseDeposed {
		t.Fatalf("deposed active fence = %v", err)
	}

	// Reconciliation: every fenced refusal audited, every failover too.
	m, a := f.ob.Metrics, f.ob.Audit
	fw := m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if n := uint64(len(a.ByType(obs.EvFencedWrite))); n != fw {
		t.Fatalf("fenced refusals: %d counted, %d audited", fw, n)
	}
	if got := m.Counter("ha.failovers").Load(); got != uint64(len(a.ByType(obs.EvFailover))) || got != 2 {
		t.Fatalf("failovers = %d, audited %d, want 2", got, len(a.ByType(obs.EvFailover)))
	}
}

// TestReplicaSplitBrainAttempt: the active's lease lapses while it is
// alive; the standby takes over; the old active's in-flight writes are
// refused by the epoch fence and its renewal fails.
func TestReplicaSplitBrainAttempt(t *testing.T) {
	ttl := 10 * time.Millisecond
	f := newHAFleet(t, 2, ttl)
	if _, err := f.a.Activate(CauseBootstrap); err != nil {
		t.Fatal(err)
	}
	if _, err := f.a.Controller().InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.a.Controller().WriteRegister("s00", "lat", 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.b.TailOnce(); err != nil {
		t.Fatal(err)
	}

	// The active stalls past its TTL (GC pause, partition…).
	f.clk.d += ttl * 2
	warm, _, err := f.b.Promote(CausePromoted)
	if err != nil {
		t.Fatalf("promote after expiry: %v", err)
	}
	if !warm["s00"] || !warm["s01"] {
		t.Fatalf("promotion fell cold: %v", warm)
	}

	// Both replicas are alive. Only one can write.
	if _, err := f.a.Controller().WriteRegister("s00", "lat", 3, 666); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("old active write = %v, want ErrFenced", err)
	}
	if err := f.a.Renew(); !errors.Is(err, ErrDeposed) && !errors.Is(err, ErrNotActive) {
		t.Fatalf("old active renew = %v", err)
	}
	if _, err := f.b.Controller().WriteRegister("s00", "lat", 3, 42); err != nil {
		t.Fatalf("new active write: %v", err)
	}
	v, _, err := f.b.Controller().ReadRegister("s00", "lat", 3)
	if err != nil || v != 42 {
		t.Fatalf("lat[3] = (%d, %v), want 42 — the fenced 666 must never land", v, err)
	}

	// Every refused attempt by the old active is audited as deposed.
	for _, e := range f.ob.Audit.ByType(obs.EvFencedWrite) {
		if e.Actor == "ctl-a" && e.Cause != CauseDeposed && e.Cause != CauseLeaseExpired {
			t.Fatalf("old-active refusal cause = %q", e.Cause)
		}
	}
}
