package statestore

import (
	"reflect"
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
