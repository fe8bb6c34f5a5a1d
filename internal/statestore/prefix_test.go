package statestore

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func mustPrefix(t testing.TB, raw LeaseStore, prefix string) *PrefixStore {
	t.Helper()
	p, err := Prefix(raw, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrefixIsolation(t *testing.T) {
	raw := NewMem()
	p0 := mustPrefix(t, raw, "pod0")
	p1 := mustPrefix(t, raw, "pod1/")

	if err := p0.Save(LeaseKey, []byte("alpha")); err != nil {
		t.Fatalf("p0 save: %v", err)
	}
	if err := p1.Save(LeaseKey, []byte("beta")); err != nil {
		t.Fatalf("p1 save: %v", err)
	}
	v0, err := p0.Load(LeaseKey)
	if err != nil || string(v0) != "alpha" {
		t.Fatalf("p0 lease = %q, %v; want alpha", v0, err)
	}
	v1, err := p1.Load(LeaseKey)
	if err != nil || string(v1) != "beta" {
		t.Fatalf("p1 lease = %q, %v; want beta", v1, err)
	}
	// The raw store sees both under distinct roots.
	if v, err := raw.Load("pod0/" + LeaseKey); err != nil || string(v) != "alpha" {
		t.Fatalf("raw pod0 lease = %q, %v", v, err)
	}
	if v, err := raw.Load("pod1/" + LeaseKey); err != nil || string(v) != "beta" {
		t.Fatalf("raw pod1 lease = %q, %v", v, err)
	}
	// Deleting in one view leaves the other intact.
	if err := p0.Delete(LeaseKey); err != nil {
		t.Fatalf("p0 delete: %v", err)
	}
	if _, err := p0.Load(LeaseKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("p0 lease after delete: err=%v, want ErrNotFound", err)
	}
	if v, err := p1.Load(LeaseKey); err != nil || string(v) != "beta" {
		t.Fatalf("p1 lease after p0 delete = %q, %v", v, err)
	}
}

func TestPrefixKeysStripped(t *testing.T) {
	raw := NewMem()
	p := mustPrefix(t, raw, "global")
	for _, k := range []string{"wal/0001", "wal/0002", "ctl/snap"} {
		if err := p.Save(k, []byte(k)); err != nil {
			t.Fatalf("save %s: %v", k, err)
		}
	}
	// Sibling namespace noise must not leak into the view.
	if err := raw.Save("pod0/wal/0001", []byte("x")); err != nil {
		t.Fatalf("raw save: %v", err)
	}
	keys, err := p.Keys("wal/")
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	want := []string{"wal/0001", "wal/0002"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	// Returned keys are loadable through the view.
	for _, k := range keys {
		if v, err := p.Load(k); err != nil || string(v) != k {
			t.Fatalf("load %s = %q, %v", k, v, err)
		}
	}
}

func TestPrefixCAS(t *testing.T) {
	raw := NewMem()
	p0 := mustPrefix(t, raw, "pod0")
	p1 := mustPrefix(t, raw, "pod1")

	ok, err := p0.CompareAndSwap(LeaseKey, nil, []byte("l0"))
	if err != nil || !ok {
		t.Fatalf("p0 initial CAS: ok=%v err=%v", ok, err)
	}
	// Same key in the sibling namespace is still absent.
	ok, err = p1.CompareAndSwap(LeaseKey, nil, []byte("l1"))
	if err != nil || !ok {
		t.Fatalf("p1 initial CAS: ok=%v err=%v", ok, err)
	}
	// Stale prev loses in its own namespace only.
	ok, err = p0.CompareAndSwap(LeaseKey, []byte("wrong"), []byte("x"))
	if err != nil || ok {
		t.Fatalf("p0 stale CAS: ok=%v err=%v, want lost race", ok, err)
	}
	ok, err = p0.CompareAndSwap(LeaseKey, []byte("l0"), []byte("l0b"))
	if err != nil || !ok {
		t.Fatalf("p0 CAS update: ok=%v err=%v", ok, err)
	}
	if v, _ := p1.Load(LeaseKey); !bytes.Equal(v, []byte("l1")) {
		t.Fatalf("p1 lease perturbed by p0 CAS: %q", v)
	}
}

func TestPrefixValidation(t *testing.T) {
	if _, err := Prefix(NewMem(), ""); err == nil {
		t.Fatalf("empty prefix accepted")
	}
	if _, err := Prefix(NewMem(), "bad prefix"); err == nil {
		t.Fatalf("invalid prefix accepted")
	}
	p := mustPrefix(t, NewMem(), "ok")
	if err := p.Save("../escape", []byte("x")); err == nil {
		t.Fatalf("path escape accepted")
	}
}
