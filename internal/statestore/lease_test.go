package statestore

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestLeaseRoundTrip(t *testing.T) {
	for _, l := range []*Lease{
		{},
		{Holder: "ctl-a", Epoch: 1, GrantedNs: 1000, TTLNs: 5_000_000},
		{Holder: "a-very-long-replica-name-with-dashes", Epoch: ^uint64(0), GrantedNs: ^uint64(0), TTLNs: 1},
	} {
		got, err := DecodeLease(l.Encode())
		if err != nil {
			t.Fatalf("decode of %+v: %v", l, err)
		}
		if !reflect.DeepEqual(l, got) {
			t.Fatalf("round trip changed lease:\n  %+v\n  %+v", l, got)
		}
	}
}

func TestLeaseDecodeRejects(t *testing.T) {
	good := (&Lease{Holder: "ctl-a", Epoch: 3, GrantedNs: 7, TTLNs: 9}).Encode()
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:8],
		"bad magic":  append([]byte("PXLS"), good[4:]...),
		"bad ver":    append(append([]byte{}, good[:4]...), append([]byte{9}, good[5:]...)...),
		"truncated":  good[:len(good)-6],
		"trailing":   append(append([]byte{}, good...), 0),
		"flipped":    flipByte(good, 10),
		"masked crc": flipByte(good, len(good)-1),
	}
	for name, b := range cases {
		if _, err := DecodeLease(b); err == nil {
			t.Errorf("%s: decode accepted corrupted record", name)
		}
	}
	if _, err := DecodeLease(good); err != nil {
		t.Fatalf("control: good record rejected: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

func TestLeaseExpiresSaturates(t *testing.T) {
	l := &Lease{GrantedNs: ^uint64(0) - 5, TTLNs: 100}
	if got := l.ExpiresNs(); got != ^uint64(0) {
		t.Fatalf("ExpiresNs overflowed to %d", got)
	}
	l = &Lease{GrantedNs: 10, TTLNs: 5}
	if got := l.ExpiresNs(); got != 15 {
		t.Fatalf("ExpiresNs = %d, want 15", got)
	}
}

// casContract exercises the conditional-write semantics both backends
// must share.
func casContract(t *testing.T, s interface {
	Store
	Swapper
}) {
	t.Helper()
	a := (&Lease{Holder: "a", Epoch: 1}).Encode()
	b := (&Lease{Holder: "b", Epoch: 2}).Encode()

	// prev=nil on a present key must refuse.
	if ok, err := s.CompareAndSwap("ha/lease", nil, a); err != nil || !ok {
		t.Fatalf("create CAS = (%v, %v), want (true, nil)", ok, err)
	}
	if ok, err := s.CompareAndSwap("ha/lease", nil, b); err != nil || ok {
		t.Fatalf("create CAS over existing key = (%v, %v), want (false, nil)", ok, err)
	}
	// Wrong prev must refuse without writing.
	if ok, err := s.CompareAndSwap("ha/lease", b, b); err != nil || ok {
		t.Fatalf("CAS with wrong prev = (%v, %v), want (false, nil)", ok, err)
	}
	if got, _ := s.Load("ha/lease"); !bytes.Equal(got, a) {
		t.Fatal("failed CAS mutated the stored value")
	}
	// Matching prev swaps.
	if ok, err := s.CompareAndSwap("ha/lease", a, b); err != nil || !ok {
		t.Fatalf("CAS with matching prev = (%v, %v), want (true, nil)", ok, err)
	}
	if got, _ := s.Load("ha/lease"); !bytes.Equal(got, b) {
		t.Fatal("successful CAS did not install the new value")
	}
	// Non-nil prev on an absent key must refuse.
	if ok, err := s.CompareAndSwap("ha/other", a, b); err != nil || ok {
		t.Fatalf("CAS on absent key = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := s.CompareAndSwap("bad key!", nil, a); err == nil || ok {
		t.Fatal("CAS accepted an invalid key")
	}
}

func TestMemCompareAndSwap(t *testing.T) { casContract(t, NewMem()) }

func TestFileCompareAndSwap(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	casContract(t, s)
}

// TestCASContention races goroutines through load-CAS-retry loops; every
// increment must land exactly once.
func TestCASContention(t *testing.T) {
	for _, mk := range []func(t *testing.T) interface {
		Store
		Swapper
	}{
		func(t *testing.T) interface {
			Store
			Swapper
		} {
			return NewMem()
		},
		func(t *testing.T) interface {
			Store
			Swapper
		} {
			s, err := NewFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		s := mk(t)
		const workers, rounds = 4, 50
		if ok, err := s.CompareAndSwap(LeaseKey, nil, (&Lease{Epoch: 0}).Encode()); err != nil || !ok {
			t.Fatal("seed CAS failed")
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					for {
						cur, err := s.Load(LeaseKey)
						if err != nil {
							t.Error(err)
							return
						}
						l, err := DecodeLease(cur)
						if err != nil {
							t.Errorf("torn read: %v", err)
							return
						}
						next := (&Lease{Epoch: l.Epoch + 1}).Encode()
						ok, err := s.CompareAndSwap(LeaseKey, cur, next)
						if err != nil {
							t.Error(err)
							return
						}
						if ok {
							break
						}
					}
				}
			}()
		}
		wg.Wait()
		final, err := s.Load(LeaseKey)
		if err != nil {
			t.Fatal(err)
		}
		l, err := DecodeLease(final)
		if err != nil {
			t.Fatal(err)
		}
		if l.Epoch != workers*rounds {
			t.Fatalf("lost updates: epoch = %d, want %d", l.Epoch, workers*rounds)
		}
	}
}

func TestTailer(t *testing.T) {
	s := NewMem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Save("ctl/s1", []byte("snap1")))
	must(s.Save("ctl/s2", []byte("snap2")))
	must(s.Save("other/x", []byte("ignored")))

	tl := NewTailer(s, "ctl/")
	ch, err := tl.Poll()
	must(err)
	if len(ch) != 2 || ch[0].Key != "ctl/s1" || ch[1].Key != "ctl/s2" {
		t.Fatalf("first poll = %v, want the two ctl/ keys in order", ch)
	}
	if string(ch[0].Value) != "snap1" {
		t.Fatalf("first poll value = %q", ch[0].Value)
	}

	// No mutation: no changes — including a rewrite of identical bytes.
	must(s.Save("ctl/s1", []byte("snap1")))
	ch, err = tl.Poll()
	must(err)
	if len(ch) != 0 {
		t.Fatalf("idle poll = %v, want none", ch)
	}

	// Update + create + delete, one poll, deterministic order.
	must(s.Save("ctl/s1", []byte("snap1b")))
	must(s.Save("ctl/s0", []byte("snap0")))
	must(s.Delete("ctl/s2"))
	ch, err = tl.Poll()
	must(err)
	if len(ch) != 3 {
		t.Fatalf("poll = %v, want 3 changes", ch)
	}
	if ch[0].Key != "ctl/s0" || ch[1].Key != "ctl/s1" || ch[2].Key != "ctl/s2" {
		t.Fatalf("poll order = %v", ch)
	}
	if ch[2].Value != nil {
		t.Fatal("deletion change carries a value")
	}
	if tl.Seen() != 2 {
		t.Fatalf("Seen = %d, want 2", tl.Seen())
	}
}

// TestGuardedWrites holds every bundled store to the guarded-write
// contract: a write lands only while the lease record names the guard's
// holder and epoch, and is refused, leaving the key as it was, once the
// record is absent, corrupt, or another tenure's.
func TestGuardedWrites(t *testing.T) {
	file, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]interface {
		Store
		GuardedWriter
	}{
		"mem":    NewMem(),
		"file":   file,
		"fault":  NewFaultStore(NewMem(), nil, FaultConfig{Seed: 1}),
		"prefix": MustPrefix(NewMem(), "pod0"),
	} {
		t.Run(name, func(t *testing.T) {
			g := LeaseGuard{Key: LeaseKey, Holder: "ctl-a", Epoch: 3}
			if ok, err := st.SaveGuarded(g, "wal/s00/1", []byte{1}); ok || err != nil {
				t.Fatalf("save with no lease = (%v, %v), want refused", ok, err)
			}
			if err := st.Save(LeaseKey, []byte("garbage")); err != nil {
				t.Fatal(err)
			}
			if ok, err := st.SaveGuarded(g, "wal/s00/1", []byte{1}); ok || err != nil {
				t.Fatalf("save under a corrupt lease = (%v, %v), want refused", ok, err)
			}
			if err := st.Save(LeaseKey, (&Lease{Holder: "ctl-a", Epoch: 3, TTLNs: 10}).Encode()); err != nil {
				t.Fatal(err)
			}
			if ok, err := st.SaveGuarded(g, "wal/s00/1", []byte{1}); !ok || err != nil {
				t.Fatalf("save under our lease = (%v, %v)", ok, err)
			}
			for _, other := range []*Lease{{Holder: "ctl-b", Epoch: 3}, {Holder: "ctl-a", Epoch: 4}} {
				if err := st.Save(LeaseKey, other.Encode()); err != nil {
					t.Fatal(err)
				}
				if ok, err := st.SaveGuarded(g, "wal/s00/1", []byte{2}); ok || err != nil {
					t.Fatalf("save under %s epoch %d = (%v, %v), want refused", other.Holder, other.Epoch, ok, err)
				}
				if ok, err := st.DeleteGuarded(g, "wal/s00/1"); ok || err != nil {
					t.Fatalf("delete under %s epoch %d = (%v, %v), want refused", other.Holder, other.Epoch, ok, err)
				}
			}
			if v, err := st.Load("wal/s00/1"); err != nil || !bytes.Equal(v, []byte{1}) {
				t.Fatalf("refused writes moved the key: (%v, %v)", v, err)
			}
			if err := st.Save(LeaseKey, (&Lease{Holder: "ctl-a", Epoch: 3}).Encode()); err != nil {
				t.Fatal(err)
			}
			if ok, err := st.DeleteGuarded(g, "wal/s00/1"); !ok || err != nil {
				t.Fatalf("delete under our lease = (%v, %v)", ok, err)
			}
			if _, err := st.Load("wal/s00/1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("guarded delete left the key: %v", err)
			}
			if _, err := st.SaveGuarded(g, "bad key!", nil); err == nil {
				t.Fatal("guarded save accepted an invalid key")
			}
		})
	}
}

// TestGuardedWritesNeedSupport: the wrappers refuse a guarded write when
// what they wrap cannot make one, rather than writing unguarded.
func TestGuardedWritesNeedSupport(t *testing.T) {
	g := LeaseGuard{Key: LeaseKey, Holder: "ctl-a", Epoch: 1}
	for name, st := range map[string]GuardedWriter{
		"fault":  NewFaultStore(plainStore{NewMem()}, nil, FaultConfig{}),
		"prefix": MustPrefix(plainStore{NewMem()}, "pod0"),
	} {
		if _, err := st.SaveGuarded(g, "k", nil); err == nil {
			t.Errorf("%s: guarded save over a plain store succeeded", name)
		}
		if _, err := st.DeleteGuarded(g, "k"); err == nil {
			t.Errorf("%s: guarded delete over a plain store succeeded", name)
		}
	}
}

// plainStore hides every method of a store but Store's own.
type plainStore struct{ Store }
