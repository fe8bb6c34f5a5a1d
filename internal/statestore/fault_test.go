package statestore

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fclock is a hand-advanced FaultClock + FaultAdvancer.
type fclock struct{ d time.Duration }

func (c *fclock) Now() time.Duration      { return c.d }
func (c *fclock) Advance(d time.Duration) { c.d += d }

func TestFaultStorePassThrough(t *testing.T) {
	f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 1})
	if err := f.Save("a/b", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := f.Load("a/b")
	if err != nil || string(v) != "v" {
		t.Fatalf("Load = (%q, %v)", v, err)
	}
	keys, err := f.Keys("a/")
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = (%v, %v)", keys, err)
	}
	if err := f.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Load("a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after delete = %v, want ErrNotFound", err)
	}
	st := f.Stats()
	if st.Ops[OpSave] != 1 || st.Ops[OpLoad] != 2 || st.Ops[OpDelete] != 1 || st.Ops[OpKeys] != 1 {
		t.Fatalf("op stats = %+v", st.Ops)
	}
	if st.Errors+st.Outages+st.TornReads+st.LostCAS != 0 {
		t.Fatalf("clean run injected faults: %+v", st)
	}
}

func TestFaultStoreOutageWindow(t *testing.T) {
	clk := &fclock{}
	f := NewFaultStore(NewMem(), clk, FaultConfig{Seed: 2})
	if err := f.Save("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleOutage(10*time.Millisecond, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Before the window: served.
	if _, err := f.Load("k"); err != nil {
		t.Fatalf("pre-window Load: %v", err)
	}
	// Inside: every operation class refused with ErrUnavailable, and the
	// outage must never masquerade as an absent key.
	clk.d = 15 * time.Millisecond
	if _, err := f.Load("k"); !errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound) {
		t.Fatalf("in-window Load = %v, want ErrUnavailable (not ErrNotFound)", err)
	}
	if err := f.Save("k", []byte("w")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("in-window Save = %v", err)
	}
	if _, err := f.Keys(""); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("in-window Keys = %v", err)
	}
	if _, err := f.CompareAndSwap("k", nil, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("in-window CAS = %v", err)
	}
	// After: served again, previous value intact (the refused Save never
	// reached the backing store).
	clk.d = 25 * time.Millisecond
	v, err := f.Load("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("post-window Load = (%q, %v), want the pre-outage value", v, err)
	}
	if got := f.Stats().Outages; got != 4 {
		t.Fatalf("outage count = %d, want 4", got)
	}
	if err := f.ScheduleOutage(5, 5); err == nil {
		t.Fatal("empty outage window accepted")
	}
}

func TestFaultStoreFailNext(t *testing.T) {
	f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 3})
	if err := f.Save("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.FailNext(2)
	if _, err := f.Load("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("forced error #1 = %v", err)
	}
	if err := f.Save("k", []byte("w")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("forced error #2 = %v", err)
	}
	if _, err := f.Load("k"); err != nil {
		t.Fatalf("post-forcing Load: %v", err)
	}
	if got := f.Stats().Errors; got != 2 {
		t.Fatalf("error count = %d, want 2", got)
	}
}

// TestFaultStoreTornRead: garbage reads must be rejected by the CRC
// armour of the codecs, never decoded into someone else's lease.
func TestFaultStoreTornRead(t *testing.T) {
	f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 4, TornReadProb: 1})
	l := &Lease{Holder: "ctl-a", Epoch: 3, GrantedNs: 7, TTLNs: 9}
	if err := f.Save(LeaseKey, l.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		raw, err := f.Load(LeaseKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeLease(raw); err == nil {
			t.Fatalf("torn read #%d decoded as a valid lease", i)
		}
	}
	if got := f.Stats().TornReads; got != 32 {
		t.Fatalf("torn-read count = %d, want 32", got)
	}
}

func TestFaultStoreLoseNextCAS(t *testing.T) {
	f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 5})
	a := (&Lease{Holder: "a", Epoch: 1}).Encode()
	f.LoseNextCAS(1)
	ok, err := f.CompareAndSwap(LeaseKey, nil, a)
	if err != nil || ok {
		t.Fatalf("forced-lose CAS = (%v, %v), want (false, nil)", ok, err)
	}
	if _, err := f.Load(LeaseKey); !errors.Is(err, ErrNotFound) {
		t.Fatal("lost CAS touched the record")
	}
	ok, err = f.CompareAndSwap(LeaseKey, nil, a)
	if err != nil || !ok {
		t.Fatalf("post-forcing CAS = (%v, %v), want (true, nil)", ok, err)
	}
	if got := f.Stats().LostCAS; got != 1 {
		t.Fatalf("lost-CAS count = %d, want 1", got)
	}
}

// TestFaultStoreHook: the pre-operation hook models a concurrent actor
// slipping in between a caller's read and its conditional write.
func TestFaultStoreHook(t *testing.T) {
	raw := NewMem()
	f := NewFaultStore(raw, nil, FaultConfig{Seed: 6})
	a := (&Lease{Holder: "a", Epoch: 1}).Encode()
	b := (&Lease{Holder: "b", Epoch: 2}).Encode()
	if err := raw.Save(LeaseKey, a); err != nil {
		t.Fatal(err)
	}
	fired := 0
	f.SetHook(func(op Op, key string) {
		if op != OpCAS || key != LeaseKey {
			return
		}
		fired++
		f.SetHook(nil) // fire once; the hook's own writes must not recurse
		if err := raw.Save(LeaseKey, b); err != nil {
			t.Error(err)
		}
	})
	// The caller read `a`, but by CAS time the hook has installed `b`:
	// a genuine lost race, produced deterministically.
	ok, err := f.CompareAndSwap(LeaseKey, a, a)
	if err != nil || ok {
		t.Fatalf("raced CAS = (%v, %v), want (false, nil)", ok, err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
	got, err := f.Load(LeaseKey)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := DecodeLease(got); err != nil || l.Holder != "b" {
		t.Fatalf("usurper's record = (%+v, %v), want holder b untouched", l, err)
	}
}

// TestFaultStoreDeterminism: equal seeds and operation sequences must
// inject identical fault schedules.
func TestFaultStoreDeterminism(t *testing.T) {
	runOnce := func() (errs, torn int) {
		f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 0xC0FFEE, ErrProb: 0.3, TornReadProb: 0.3})
		_ = f.Save("k", []byte("v"))
		for i := 0; i < 200; i++ {
			if _, err := f.Load("k"); err != nil {
				errs++
			}
		}
		st := f.Stats()
		return errs, st.TornReads
	}
	e1, t1 := runOnce()
	e2, t2 := runOnce()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("fault schedules diverged: (%d,%d) vs (%d,%d)", e1, t1, e2, t2)
	}
	if e1 == 0 || t1 == 0 {
		t.Fatalf("probabilistic injection never fired: errs=%d torn=%d", e1, t1)
	}
}

func TestFaultStoreLatencyAdvancesClock(t *testing.T) {
	clk := &fclock{}
	f := NewFaultStore(NewMem(), clk, FaultConfig{Seed: 7, Latency: time.Millisecond})
	_ = f.Save("k", []byte("v"))
	if _, err := f.Load("k"); err != nil {
		t.Fatal(err)
	}
	if clk.d != 2*time.Millisecond {
		t.Fatalf("clock advanced %v, want 2ms (one per op)", clk.d)
	}
}

// TestTailerSurfacesLoadErrors is the regression for the bug where Poll
// swallowed every Load error as "deleted mid-poll": a store brown-out
// must surface to the caller, while a genuine mid-poll deletion still
// skips silently.
func TestTailerSurfacesLoadErrors(t *testing.T) {
	f := NewFaultStore(NewMem(), nil, FaultConfig{Seed: 8})
	if err := f.Save("ctl/s1", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(f, "ctl/")

	// Keys succeeds, the Load behind it fails: surfaced, not skipped.
	// (The hook runs after the current op's injection gate, so arming
	// FailNext from the Keys hook makes exactly the following Load fail.)
	f.SetHook(func(op Op, key string) {
		if op == OpKeys {
			f.FailNext(1)
			f.SetHook(nil)
		}
	})
	if _, err := tl.Poll(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Poll over failing Load = %v, want ErrUnavailable surfaced", err)
	}
	// The failed poll must not have marked the record seen.
	ch, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || ch[0].Key != "ctl/s1" {
		t.Fatalf("post-error poll = %v, want the record delivered", ch)
	}

	// Control: a key deleted between the listing and the read is still a
	// silent skip (ErrNotFound), reported as a deletion next time.
	raw := NewMem()
	if err := raw.Save("ctl/s2", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	f2 := NewFaultStore(raw, nil, FaultConfig{Seed: 9})
	tl2 := NewTailer(f2, "ctl/")
	f2.SetHook(func(op Op, key string) {
		if op == OpLoad && key == "ctl/s2" {
			f2.SetHook(nil)
			_ = raw.Delete("ctl/s2")
		}
	})
	ch, err = tl2.Poll()
	if err != nil {
		t.Fatalf("mid-poll deletion surfaced as error: %v", err)
	}
	if len(ch) != 0 {
		t.Fatalf("mid-poll deletion poll = %v, want none", ch)
	}
}

// TestLeaseEncodeRefusesOversizedHolder: the 16-bit length field must
// never wrap into a record naming a different holder.
func TestLeaseEncodeRefusesOversizedHolder(t *testing.T) {
	l := &Lease{Holder: strings.Repeat("x", MaxLeaseHolderLen+1)}
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of oversized holder did not panic")
		}
	}()
	l.Encode()
}

// TestLeaseEncodeMaxHolder: exactly MaxLeaseHolderLen still round-trips.
func TestLeaseEncodeMaxHolder(t *testing.T) {
	l := &Lease{Holder: strings.Repeat("h", MaxLeaseHolderLen), Epoch: 1}
	got, err := DecodeLease(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Holder != l.Holder || got.Epoch != 1 {
		t.Fatal("max-length holder mangled in round trip")
	}
}
