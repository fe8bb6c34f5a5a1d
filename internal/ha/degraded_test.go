package ha

import (
	"errors"
	"strings"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// degradedRig is a LeaseManager over a fault-injecting store with an
// event recorder, the fixture for the bounded-staleness fence tests.
type degradedRig struct {
	clk    *tclock
	fs     *statestore.FaultStore
	mgr    *LeaseManager
	events []DegradedEvent
}

func newDegradedRig(t *testing.T, ttl, grace, skew time.Duration) *degradedRig {
	t.Helper()
	r := &degradedRig{clk: &tclock{}}
	r.fs = statestore.NewFaultStore(statestore.NewMem(), r.clk, statestore.FaultConfig{})
	mgr, err := NewLeaseManager(r.fs, r.clk, "ctl-a", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ConfigureStaleness(grace, skew); err != nil {
		t.Fatal(err)
	}
	mgr.SetDegradedObserver(func(ev DegradedEvent, detail string) {
		r.events = append(r.events, ev)
	})
	r.mgr = mgr
	return r
}

// TestFenceDegradedAdmitAndRecover: a store blip shorter than the grace
// window is survivable — the cached grant admits, and the episode closes
// with an exit event the moment the store answers again.
func TestFenceDegradedAdmitAndRecover(t *testing.T) {
	r := newDegradedRig(t, 10*time.Millisecond, 4*time.Millisecond, 2*time.Millisecond)
	if _, err := r.mgr.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Fence(); err != nil {
		t.Fatalf("healthy fence: %v", err)
	}

	r.clk.d = 1 * time.Millisecond
	r.fs.FailNext(1)
	if err := r.mgr.Fence(); err != nil {
		t.Fatalf("degraded fence within grace: %v", err)
	}
	if !r.mgr.InDegraded() {
		t.Fatal("not marked degraded after cached admission")
	}

	r.clk.d = 2 * time.Millisecond
	r.fs.FailNext(1)
	if err := r.mgr.Fence(); err != nil {
		t.Fatalf("second degraded fence: %v", err)
	}

	// Store recovers: same episode must end with a single exit.
	r.clk.d = 3 * time.Millisecond
	if err := r.mgr.Fence(); err != nil {
		t.Fatalf("post-recovery fence: %v", err)
	}
	if r.mgr.InDegraded() {
		t.Fatal("still degraded after a successful round trip")
	}
	want := []DegradedEvent{DegradedEnter, DegradedAdmit, DegradedAdmit, DegradedExit}
	if len(r.events) != len(want) {
		t.Fatalf("events = %v, want %v", r.events, want)
	}
	for i := range want {
		if r.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", r.events, want)
		}
	}
}

// TestFenceDegradedGraceExhausted: an outage longer than the grace
// window fences the active fail-safe, with the exhaustion observed once.
func TestFenceDegradedGraceExhausted(t *testing.T) {
	r := newDegradedRig(t, 10*time.Millisecond, 4*time.Millisecond, 2*time.Millisecond)
	if _, err := r.mgr.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.ScheduleOutage(500*time.Microsecond, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	r.clk.d = 2 * time.Millisecond
	if err := r.mgr.Fence(); err != nil {
		t.Fatalf("fence at 2ms (age 2ms <= grace 4ms): %v", err)
	}

	r.clk.d = 5 * time.Millisecond
	err := r.mgr.Fence()
	if FenceCause(err) != CauseGraceExhausted {
		t.Fatalf("fence at 5ms = %v, want %s", err, CauseGraceExhausted)
	}
	if !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("exhausted fence does not chain to ErrFenced: %v", err)
	}
	if r.mgr.InDegraded() {
		t.Fatal("still marked degraded after exhaustion")
	}

	// Every later check during the outage refuses the same way, without
	// re-announcing an exhaustion (the episode already ended).
	r.clk.d = 6 * time.Millisecond
	if err := r.mgr.Fence(); FenceCause(err) != CauseGraceExhausted {
		t.Fatalf("fence at 6ms = %v", err)
	}
	want := []DegradedEvent{DegradedEnter, DegradedAdmit, DegradedExhausted}
	if len(r.events) != len(want) {
		t.Fatalf("events = %v, want %v", r.events, want)
	}
}

// TestFenceDegradedSkewNearExpiry: cached evidence close to its own
// expiry must not admit even inside the grace window — a successor on a
// clock up to skew ahead could already be acquiring.
func TestFenceDegradedSkewNearExpiry(t *testing.T) {
	r := newDegradedRig(t, 10*time.Millisecond, 4*time.Millisecond, 2*time.Millisecond)
	if _, err := r.mgr.Acquire(); err != nil { // granted at 0, expires at 10ms
		t.Fatal(err)
	}
	r.clk.d = 8 * time.Millisecond
	if err := r.mgr.Fence(); err != nil { // healthy read: cache refreshed at 8ms
		t.Fatalf("healthy fence at 8ms: %v", err)
	}
	r.clk.d = 9 * time.Millisecond
	r.fs.FailNext(1)
	// Cache age is 1ms (<= grace 4ms), but 9ms + skew 2ms >= expiry 10ms.
	err := r.mgr.Fence()
	if FenceCause(err) != CauseLeaseExpired {
		t.Fatalf("fence within skew of expiry = %v, want %s", err, CauseLeaseExpired)
	}
	if len(r.events) != 0 {
		t.Fatalf("no admission happened, but events = %v", r.events)
	}
}

// TestFenceStrictWithoutGrace: grace zero keeps the original fail-safe
// fence — any store error refuses immediately, no cached admission.
func TestFenceStrictWithoutGrace(t *testing.T) {
	clk := &tclock{}
	fs := statestore.NewFaultStore(statestore.NewMem(), clk, statestore.FaultConfig{})
	mgr, err := NewLeaseManager(fs, clk, "ctl-a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire(); err != nil {
		t.Fatal(err)
	}
	fs.FailNext(1)
	if err := mgr.Fence(); FenceCause(err) != CauseStoreUnavailable {
		t.Fatalf("strict fence on store error = %v, want %s", err, CauseStoreUnavailable)
	}
	if mgr.InDegraded() {
		t.Fatal("strict manager entered degraded mode")
	}
}

// TestConfigureStalenessValidation: the non-overlap proof needs
// grace + skew strictly under the TTL; configurations outside it refuse.
func TestConfigureStalenessValidation(t *testing.T) {
	clk := &tclock{}
	mgr, err := NewLeaseManager(statestore.NewMem(), clk, "ctl-a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		grace, skew time.Duration
		ok          bool
	}{
		{4 * time.Millisecond, 2 * time.Millisecond, true},
		{0, 0, true},
		{0, 5 * time.Millisecond, true}, // grace 0 = strict; skew unused
		{8 * time.Millisecond, 2 * time.Millisecond, false}, // sum == TTL
		{12 * time.Millisecond, 0, false},
		{-time.Millisecond, 0, false},
		{time.Millisecond, -time.Millisecond, false},
	} {
		err := mgr.ConfigureStaleness(c.grace, c.skew)
		if (err == nil) != c.ok {
			t.Fatalf("ConfigureStaleness(%v, %v) = %v, want ok=%v", c.grace, c.skew, err, c.ok)
		}
	}
}

// TestAcquireRefusesEpochWrap: a stored epoch at max uint64 cannot be
// incremented — wrapping to 0 would alias a fresh tenure with "never
// held" and break fence monotonicity, so Acquire refuses instead.
func TestAcquireRefusesEpochWrap(t *testing.T) {
	st := statestore.NewMem()
	clk := &tclock{d: time.Second}
	rec := &statestore.Lease{Holder: "old", Epoch: ^uint64(0), GrantedNs: 0, TTLNs: 0}
	if err := st.Save(statestore.LeaseKey, rec.Encode()); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewLeaseManager(st, clk, "ctl-a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire(); !errors.Is(err, ErrEpochExhausted) {
		t.Fatalf("acquire over max epoch = %v, want ErrEpochExhausted", err)
	}
	// One below max is the last grantable tenure.
	rec.Epoch = ^uint64(0) - 1
	if err := st.Save(statestore.LeaseKey, rec.Encode()); err != nil {
		t.Fatal(err)
	}
	l, err := mgr.Acquire()
	if err != nil || l.Epoch != ^uint64(0) {
		t.Fatalf("acquire at max-1 = (%+v, %v)", l, err)
	}
}

// TestNewLeaseManagerRefusesOversizedName: the PALS holder field is 16
// bits; a name that cannot round-trip is refused at construction, making
// Encode's panic unreachable from this writer.
func TestNewLeaseManagerRefusesOversizedName(t *testing.T) {
	st := statestore.NewMem()
	clk := &tclock{}
	if _, err := NewLeaseManager(st, clk, strings.Repeat("n", statestore.MaxLeaseHolderLen+1), time.Millisecond); err == nil {
		t.Fatal("oversized replica name accepted")
	}
	if _, err := NewLeaseManager(st, clk, strings.Repeat("n", statestore.MaxLeaseHolderLen), time.Millisecond); err != nil {
		t.Fatalf("max-length replica name refused: %v", err)
	}
}

// TestReplicaDegradedReconciliation: the replica-level wiring — every
// degraded transition is both counted and audited, and the admission
// count is metrics-only (high-frequency, never per-event audit spam).
func TestReplicaDegradedReconciliation(t *testing.T) {
	clk := &tclock{}
	fs := statestore.NewFaultStore(statestore.NewMem(), clk, statestore.FaultConfig{})
	ob := obs.NewObserver(0)
	r, err := NewReplica(ReplicaConfig{
		Name: "ctl-a", Store: fs, Clock: clk, TTL: 10 * time.Millisecond,
		Controller: controller.New(crypto.NewSeededRand(7)), Observer: ob,
		FenceGrace: 4 * time.Millisecond, MaxSkew: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Activate(CauseBootstrap); err != nil {
		t.Fatal(err)
	}

	// Episode 1: blip, admit once, recover.
	clk.d = 1 * time.Millisecond
	fs.FailNext(1)
	if err := r.Fence(); err != nil {
		t.Fatalf("degraded fence: %v", err)
	}
	if !r.InDegraded() {
		t.Fatal("replica not degraded after cached admission")
	}
	clk.d = 2 * time.Millisecond
	if err := r.Fence(); err != nil {
		t.Fatalf("recovery fence: %v", err)
	}

	// Episode 2: admit once, then the outage outlives the grace.
	clk.d = 3 * time.Millisecond
	fs.FailNext(1)
	if err := r.Fence(); err != nil {
		t.Fatalf("second episode admit: %v", err)
	}
	clk.d = 8 * time.Millisecond
	fs.FailNext(1)
	if err := r.Fence(); FenceCause(err) != CauseGraceExhausted {
		t.Fatalf("exhaustion fence = %v", err)
	}

	m := ob.Metrics
	enters := m.Counter("ha.degraded_enters").Load()
	exits := m.Counter("ha.degraded_exits").Load()
	exhausted := m.Counter("ha.degraded_exhausted").Load()
	admits := m.Counter("ha.degraded_admits").Load()
	if enters != 2 || exits != 1 || exhausted != 1 || admits != 2 {
		t.Fatalf("degraded counters = enters %d exits %d exhausted %d admits %d", enters, exits, exhausted, admits)
	}
	// Exact reconciliation: one audit event per transition, none per
	// admission.
	if n := uint64(len(ob.Audit.ByType(obs.EvDegraded))); n != enters+exits+exhausted {
		t.Fatalf("EvDegraded audited %d, transitions %d", n, enters+exits+exhausted)
	}
}
