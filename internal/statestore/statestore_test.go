package statestore

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// stores are the LeaseStores this package provides, each over a fresh
// Mem. The contract tests in this file run every row as a subtest; a
// store a deployer supplies is held to the same contract by a row here.
var stores = []struct {
	name string
	new  func(t *testing.T) LeaseStore
}{
	{"mem", func(*testing.T) LeaseStore { return NewMem() }},
	{"fault", func(*testing.T) LeaseStore { return NewFaultStore(NewMem(), nil, FaultConfig{Seed: 1}) }},
	{"prefix", func(t *testing.T) LeaseStore { return mustPrefix(t, NewMem(), "pod0") }},
}

// eachStore runs check once per row of stores, on a fresh store.
func eachStore(t *testing.T, check func(t *testing.T, s LeaseStore)) {
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) { check(t, st.new(t)) })
	}
}

// TestStoreContract: the Store behaviours every implementation shares.
func TestStoreContract(t *testing.T) {
	eachStore(t, func(t *testing.T, s LeaseStore) {
		if _, err := s.Load("missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Load(missing) = %v, want ErrNotFound", err)
		}
		if err := s.Save("a/b/key-1", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Save("a/b/key-2", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		if err := s.Save("a/b/key-1", []byte("v1b")); err != nil {
			t.Fatal(err)
		}
		got, err := s.Load("a/b/key-1")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v1b" {
			t.Fatalf("Load after overwrite = %q, want v1b", got)
		}
		keys, err := s.Keys("a/b/")
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"a/b/key-1", "a/b/key-2"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
		if err := s.Delete("a/b/key-1"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("a/b/key-1"); err != nil {
			t.Fatalf("double delete should be a no-op, got %v", err)
		}
		if _, err := s.Load("a/b/key-1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Load after delete = %v, want ErrNotFound", err)
		}

		// Save does not keep the value: callers reuse the buffer.
		buf := []byte("v3")
		if err := s.Save("c/key-3", buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 'X'
		if got, err := s.Load("c/key-3"); err != nil || string(got) != "v3" {
			t.Fatalf("Load after the caller reused its buffer = (%q, %v), want v3", got, err)
		}

		for _, bad := range []string{"", "a//b", "../x", "a/./b", "sp ace", "semi;colon"} {
			if err := s.Save(bad, []byte("x")); err == nil {
				t.Errorf("Save(%q) accepted an invalid key", bad)
			}
			if _, err := s.Load(bad); err == nil || errors.Is(err, ErrNotFound) {
				t.Errorf("Load(%q) = %v, want an invalid-key error", bad, err)
			}
			if err := s.Delete(bad); err == nil {
				t.Errorf("Delete(%q) accepted an invalid key", bad)
			}
		}
	})
}

func TestMemStoreCopiesValues(t *testing.T) {
	s := NewMem()
	v := []byte("abc")
	if err := s.Save("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	got, err := s.Load("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("stored value aliased caller buffer: %q", got)
	}
	got[1] = 'Y'
	again, _ := s.Load("k")
	if string(again) != "abc" {
		t.Fatalf("loaded value aliased store buffer: %q", again)
	}
}

// TestCompareAndSwap: the conditional write lease acquisition is built
// on.
func TestCompareAndSwap(t *testing.T) {
	eachStore(t, func(t *testing.T, s LeaseStore) {
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
	})
}

// TestCASContention races goroutines through load-CAS-retry loops; every
// increment must land exactly once, and no Load may see a torn record.
func TestCASContention(t *testing.T) {
	eachStore(t, func(t *testing.T, s LeaseStore) {
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
	})
}

// TestGuardedWrites: a guarded write lands only while the lease record
// names the guard's holder and epoch, and is refused, leaving the key as
// it was, once the record is absent, corrupt, or another tenure's.
func TestGuardedWrites(t *testing.T) {
	eachStore(t, func(t *testing.T, st LeaseStore) {
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
		if _, err := st.DeleteGuarded(g, "bad key!"); err == nil {
			t.Fatal("guarded delete accepted an invalid key")
		}
	})
}
