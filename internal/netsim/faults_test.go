package netsim

import (
	"bytes"
	"testing"
)

// TestReorderTapPattern checks the deterministic three-slot reorder: the
// first packet of each triple is held and delivered in the third slot
// (displacing that slot's packet), the second passes straight through.
func TestReorderTapPattern(t *testing.T) {
	tap := ReorderTap()
	send := func(b byte) []byte { return tap([]byte{b}) }

	if got := send(1); got != nil {
		t.Fatalf("packet 1 must be held, got %v", got)
	}
	if got := send(2); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("packet 2 must pass, got %v", got)
	}
	if got := send(3); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("packet 3's slot must deliver held packet 1, got %v", got)
	}
	// Second triple behaves identically.
	if got := send(4); got != nil {
		t.Fatalf("packet 4 must be held, got %v", got)
	}
	if got := send(5); !bytes.Equal(got, []byte{5}) {
		t.Fatalf("packet 5 must pass, got %v", got)
	}
	if got := send(6); !bytes.Equal(got, []byte{4}) {
		t.Fatalf("packet 6's slot must deliver held packet 4, got %v", got)
	}
}

// TestReorderTapCopiesHeldPacket ensures the held packet is a copy: a
// sender reusing its buffer between sends must not corrupt the delayed
// delivery.
func TestReorderTapCopiesHeldPacket(t *testing.T) {
	tap := ReorderTap()
	buf := []byte{0xAA}
	tap(buf)
	buf[0] = 0xFF // sender reuses its buffer
	tap([]byte{2})
	if got := tap([]byte{3}); !bytes.Equal(got, []byte{0xAA}) {
		t.Fatalf("held packet mutated: got %v, want [0xAA]", got)
	}
}

// TestReordererLinkTeardown: a link torn down while its reorder tap
// holds a packet, and tapped again for a fresh stream with a new
// ReorderTap, delivers only the new stream's packets — the displaced
// pre-teardown packet stays gone.
func TestReordererLinkTeardown(t *testing.T) {
	net := NewNetwork()
	var rcvd [][]byte
	net.AddNode("tx", nil)
	net.AddNode("rx", HandlerFunc(func(_ *Network, _ *Node, _ int, data []byte) {
		rcvd = append(rcvd, append([]byte(nil), data...))
	}))
	link := net.MustConnect("tx", 0, "rx", 0, 0, 0)
	tx := net.Node("tx")

	if err := link.SetTap("rx", ReorderTap()); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(tx, 0, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	net.Sim.Run()
	if len(rcvd) != 0 {
		t.Fatalf("packet 1 must sit in the held slot (rcvd=%v)", rcvd)
	}

	// Link teardown, then a fresh stream on a fresh tap.
	if err := link.SetTap("rx", nil); err != nil {
		t.Fatal(err)
	}
	if err := link.SetTap("rx", ReorderTap()); err != nil {
		t.Fatal(err)
	}
	for b := byte(10); b < 13; b++ {
		if err := net.Send(tx, 0, []byte{b}, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Sim.Run()
	// The new tap holds 10 and delivers it in 12's slot.
	want := [][]byte{{11}, {10}}
	if len(rcvd) != len(want) {
		t.Fatalf("received %v, want %v", rcvd, want)
	}
	for i := range want {
		if !bytes.Equal(rcvd[i], want[i]) {
			t.Fatalf("received %v, want %v (stale held packet leaked?)", rcvd, want)
		}
	}
}

// TestLinkFlapTapDeterministic checks the flap schedule replays from the
// seed: two taps with equal arguments produce identical pass/drop
// patterns, the pattern alternates bounded runs, and a different seed
// yields a different schedule.
func TestLinkFlapTapDeterministic(t *testing.T) {
	const n = 2000
	pattern := func(seed uint64) []bool {
		tap := LinkFlapTap(7, 4, seed)
		out := make([]bool, n)
		for i := range out {
			out[i] = tap([]byte{1}) != nil
		}
		return out
	}
	p1, p2 := pattern(42), pattern(42)
	passed, dropped := 0, 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("flap schedule diverged at packet %d under equal seeds", i)
		}
		if p1[i] {
			passed++
		} else {
			dropped++
		}
	}
	if passed == 0 || dropped == 0 {
		t.Fatalf("degenerate flap schedule: %d passed, %d dropped", passed, dropped)
	}
	// Run lengths stay inside the configured phase bounds.
	run, up := 1, p1[0]
	for i := 1; i < len(p1); i++ {
		if p1[i] == up {
			run++
			continue
		}
		if up && run > 7 {
			t.Fatalf("up-run of %d exceeds maxUp=7", run)
		}
		if !up && run > 4 {
			t.Fatalf("down-run of %d exceeds maxDown=4", run)
		}
		run, up = 1, p1[i]
	}
	other := pattern(43)
	same := true
	for i := range p1 {
		if p1[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the same flap schedule")
	}
}

// TestLinkFlapTapComposable chains a flap tap with a corrupt tap: packets
// dropped by the flap short-circuit the chain, surviving packets still
// pass through the corruption stage.
func TestLinkFlapTapComposable(t *testing.T) {
	chain := ChainTaps(LinkFlapTap(3, 3, 9), CorruptTap(1, 10))
	in := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	delivered, corrupted := 0, 0
	for i := 0; i < 100; i++ {
		out := chain(in)
		if out == nil {
			continue
		}
		delivered++
		if !bytes.Equal(out, in) {
			corrupted++
		}
	}
	if delivered == 0 {
		t.Fatal("flap chain never delivered")
	}
	if corrupted != delivered {
		t.Errorf("corrupt stage saw %d of %d delivered packets", corrupted, delivered)
	}
}

func TestLinkFlapTapValidation(t *testing.T) {
	if !panics(func() { LinkFlapTap(0, 3, 1) }) {
		t.Error("maxUp=0 accepted")
	}
	if !panics(func() { LinkFlapTap(3, 0, 1) }) {
		t.Error("maxDown=0 accepted")
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
