package ha

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// nowOnly hides a clock's Advance: a wall-clock-like time base that an
// election cannot drive forward.
type nowOnly struct{ c Clock }

func (n nowOnly) Now() time.Duration { return n.c.Now() }

// TestGroupActive tracks the group's bookkeeping: nobody before
// bootstrap, rank 0 after it, the winner after an election.
func TestGroupActive(t *testing.T) {
	f := newGroupFleet(t, 2, 3, 20*time.Millisecond)
	if a := f.grp.Active(); a != nil {
		t.Fatalf("active before bootstrap = %s, want none", a.Name())
	}
	f.bootstrapAndWrite(t)
	if a := f.grp.Active(); a == nil || a.Name() != "ctl-0" {
		t.Fatalf("active after bootstrap = %v, want ctl-0", a)
	}
	f.grp.Replicas()[0].Controller().Kill()
	el, err := f.grp.Elect(CauseElected)
	if err != nil {
		t.Fatal(err)
	}
	if a := f.grp.Active(); a != el.Winner || a.Name() != "ctl-1" {
		t.Fatalf("active after election = %v, want ctl-1", a)
	}
}

// TestNewGroupValidation: a group needs two uniquely named replicas and a
// clock.
func TestNewGroupValidation(t *testing.T) {
	f := newGroupFleet(t, 2, 2, 20*time.Millisecond)
	reps := f.grp.Replicas()
	for name, build := range map[string]func() (*Group, error){
		"one replica":    func() (*Group, error) { return NewGroup(f.clk, reps[0]) },
		"no clock":       func() (*Group, error) { return NewGroup(nil, reps...) },
		"duplicate name": func() (*Group, error) { return NewGroup(f.clk, reps[0], reps[0]) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: NewGroup accepted it", name)
		}
	}
}

// TestElectRefusesWithoutAdvancer: on a clock the group cannot advance, a
// dead incumbent's unexpired grant is reported as held, never shortened.
func TestElectRefusesWithoutAdvancer(t *testing.T) {
	f := newGroupFleet(t, 2, 2, 20*time.Millisecond)
	f.bootstrapAndWrite(t)
	grp, err := NewGroup(nowOnly{f.clk}, f.grp.Replicas()...)
	if err != nil {
		t.Fatal(err)
	}
	f.grp.Replicas()[0].Controller().Kill()
	el, err := grp.Elect(CauseElected)
	if !errors.Is(err, ErrLeaseHeld) || el != nil {
		t.Fatalf("elect on a fixed clock = (%v, %v), want ErrLeaseHeld", el, err)
	}
	if !strings.Contains(err.Error(), "clock cannot advance") {
		t.Fatalf("refusal %q does not name the clock", err)
	}
	if n := f.ob.Metrics.Counter("ha.election_waitouts").Load(); n != 0 {
		t.Fatalf("%d wait-outs on a clock that cannot advance", n)
	}
}

// TestElectReturnsDegradedRecovery: a candidate whose warm restart fails
// on one switch but which holds the lease and passes its fence IS the
// active. Elect returns the election together with the recovery error.
func TestElectReturnsDegradedRecovery(t *testing.T) {
	f := newGroupFleet(t, 3, 2, 20*time.Millisecond)
	f.bootstrapAndWrite(t)
	reps := f.grp.Replicas()
	reps[0].Controller().Kill()
	drop := func([]byte) []byte { return nil }
	if err := reps[1].Controller().SetControlTaps(f.names[0], drop, drop); err != nil {
		t.Fatal(err)
	}
	el, err := f.grp.Elect(CauseElected)
	if err == nil || el == nil {
		t.Fatalf("elect = (%v, %v), want an election and a recovery error", el, err)
	}
	if !strings.Contains(err.Error(), f.names[0]) {
		t.Fatalf("recovery error %q does not name %s", err, f.names[0])
	}
	if el.Winner != reps[1] || el.Winner.Fence() != nil || f.grp.Active() != reps[1] {
		t.Fatalf("degraded winner %s does not hold the group", el.Winner.Name())
	}
	if el.Warm[f.names[0]] || !el.Warm[f.names[1]] {
		t.Fatalf("warm map = %v, want %s cold and the rest warm", el.Warm, f.names[0])
	}
	if n := f.ob.Metrics.Counter("ha.elections").Load(); n != 1 {
		t.Fatalf("elections = %d, want 1", n)
	}
	if evs := f.ob.Audit.ByType(obs.EvElection); len(evs) != 1 || evs[0].Actor != "ctl-1" {
		t.Fatalf("election audit = %+v", evs)
	}
}

// TestReplicaResign: a planned handoff expires the tenure in place, so
// the standby takes over at once, at the next epoch; resigning without a
// tenure, or after being superseded, changes nothing.
func TestReplicaResign(t *testing.T) {
	f := newGroupFleet(t, 2, 2, 20*time.Millisecond)
	f.bootstrapAndWrite(t)
	a, b := f.grp.Replicas()[0], f.grp.Replicas()[1]
	if err := b.Resign(); err != nil {
		t.Fatalf("resign without a tenure = %v", err)
	}
	if err := a.Resign(); err != nil {
		t.Fatal(err)
	}
	if err := a.Fence(); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("resigned replica fence = %v, want refused", err)
	}
	l, err := b.Activate(CausePromoted)
	if err != nil || l.Epoch != 2 {
		t.Fatalf("takeover after resign = (%+v, %v), want epoch 2 with no wait", l, err)
	}

	// A replica superseded behind its back resigns without touching the
	// new holder's record.
	c := f.grp.Replicas()[0]
	f.clk.d += 25 * time.Millisecond
	if _, err := c.Activate(CausePromoted); err != nil {
		t.Fatal(err)
	}
	f.clk.d += 25 * time.Millisecond
	if _, err := b.Activate(CausePromoted); err != nil {
		t.Fatal(err)
	}
	if err := c.Resign(); err != nil {
		t.Fatalf("superseded resign = %v", err)
	}
	if err := b.Fence(); err != nil {
		t.Fatalf("holder fenced after a superseded replica resigned: %v", err)
	}
}

// TestFencedStoreDelete: a delete passes the fence only while it admits,
// and each refusal is observed.
func TestFencedStoreDelete(t *testing.T) {
	raw := statestore.NewMem()
	if err := raw.Save("wal/s00/1", []byte{1}); err != nil {
		t.Fatal(err)
	}
	var fenceErr error = &FenceError{Cause: CauseDeposed}
	var refused []string
	fs := NewFencedStore(raw, func() error { return fenceErr }, func(op, key string, err error) {
		refused = append(refused, op+" "+key+" "+FenceCause(err))
	})
	if err := fs.Delete("wal/s00/1"); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("fenced delete = %v, want ErrFenced", err)
	}
	if _, err := raw.Load("wal/s00/1"); err != nil {
		t.Fatalf("fenced delete removed the record: %v", err)
	}
	if len(refused) != 1 || refused[0] != "delete wal/s00/1 deposed" {
		t.Fatalf("refusals = %q", refused)
	}
	fenceErr = nil
	if err := fs.Delete("wal/s00/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Load("wal/s00/1"); err == nil {
		t.Fatal("admitted delete left the record")
	}
}

// TestFenceCauseEveryCause: every fencing cause survives wrapping into
// its audit label; an unclassified error reads as never-active, and nil
// as no cause.
func TestFenceCauseEveryCause(t *testing.T) {
	for _, cause := range []string{
		CauseNeverActive, CauseDeposed, CauseLeaseExpired,
		CauseLeaseUnreadable, CauseStoreUnavailable, CauseGraceExhausted,
	} {
		fe := &FenceError{Cause: cause, Detail: "detail"}
		wrapped := fmt.Errorf("controller: send: %w", fe)
		if got := FenceCause(wrapped); got != cause {
			t.Errorf("FenceCause(%v) = %q, want %q", wrapped, got, cause)
		}
		if !errors.Is(wrapped, ErrNotActive) || !errors.Is(wrapped, controller.ErrFenced) {
			t.Errorf("%s does not unwrap to ErrNotActive and ErrFenced", cause)
		}
		if !strings.Contains(fe.Error(), cause+" (detail)") {
			t.Errorf("%s error text = %q", cause, fe.Error())
		}
	}
	if got := (&FenceError{Cause: CauseDeposed}).Error(); !strings.HasSuffix(got, ": deposed") {
		t.Errorf("detail-free error text = %q", got)
	}
	if got := FenceCause(errors.New("io")); got != CauseNeverActive {
		t.Errorf("unclassified cause = %q, want %q", got, CauseNeverActive)
	}
	if got := FenceCause(nil); got != "" {
		t.Errorf("nil cause = %q, want none", got)
	}
}

// TestFencedStoreGuardLost: a successor that acquires after the fence
// admitted a write but before the write lands takes the write with it.
// The write is refused, nothing reaches the store, and the refusal is
// observed as a deposed fencing refusal, like the fence's own.
func TestFencedStoreGuardLost(t *testing.T) {
	raw := statestore.NewMem()
	if err := raw.Save(statestore.LeaseKey, (&statestore.Lease{Holder: "ctl-b", Epoch: 2}).Encode()); err != nil {
		t.Fatal(err)
	}
	var refused []string
	fs := NewFencedStore(raw, func() error { return nil }, func(op, key string, err error) {
		refused = append(refused, op+" "+key+" "+FenceCause(err))
	})
	fs.guarded = raw
	fs.tenure = func() statestore.LeaseGuard {
		return statestore.LeaseGuard{Key: statestore.LeaseKey, Holder: "ctl-a", Epoch: 1}
	}
	if err := fs.Save("wal/s00/1", []byte{1}); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("save after the lease moved = %v, want ErrFenced", err)
	}
	if _, err := raw.Load("wal/s00/1"); !errors.Is(err, statestore.ErrNotFound) {
		t.Fatalf("refused save reached the store: %v", err)
	}
	if err := raw.Save("wal/s00/2", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("wal/s00/2"); !errors.Is(err, controller.ErrFenced) {
		t.Fatalf("delete after the lease moved = %v, want ErrFenced", err)
	}
	if want := []string{"save wal/s00/1 deposed", "delete wal/s00/2 deposed"}; !reflect.DeepEqual(refused, want) {
		t.Fatalf("refusals = %q, want %q", refused, want)
	}
	if err := raw.Save(statestore.LeaseKey, (&statestore.Lease{Holder: "ctl-a", Epoch: 1}).Encode()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("wal/s00/1", []byte{1}); err != nil {
		t.Fatalf("save under our own lease: %v", err)
	}
	if err := fs.Delete("wal/s00/2"); err != nil {
		t.Fatalf("delete under our own lease: %v", err)
	}
}
