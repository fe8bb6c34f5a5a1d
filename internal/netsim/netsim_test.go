package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30*time.Microsecond, func() { order = append(order, 3) })
	s.At(10*time.Microsecond, func() { order = append(order, 1) })
	s.At(20*time.Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30*time.Microsecond {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSimTieBreakFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events out of FIFO order: %v", order)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	var fired []time.Duration
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("now = %v, want 5s", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestSimPastEventClamps(t *testing.T) {
	s := NewSim()
	s.At(time.Second, func() {
		s.At(time.Millisecond, func() {
			if s.Now() < time.Second {
				t.Error("past-scheduled event ran before now")
			}
		})
	})
	s.Run()
}

// collect keeps a copy of every delivered packet: the delivered slice
// itself is only lent until the handler returns.
func collect(dst *[][]byte) Handler {
	return HandlerFunc(func(_ *Network, _ *Node, _ int, data []byte) {
		*dst = append(*dst, append([]byte(nil), data...))
	})
}

func TestNetworkDelivery(t *testing.T) {
	n := NewNetwork()
	var got [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", collect(&got))
	n.MustConnect("a", 1, "b", 1, 5*time.Microsecond, 0)
	if err := n.Send(n.Node("a"), 1, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("got %v", got)
	}
	if n.Sim.Now() != 5*time.Microsecond {
		t.Errorf("delivery time %v, want 5µs", n.Sim.Now())
	}
}

func TestNetworkSendCopiesData(t *testing.T) {
	n := NewNetwork()
	var got [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", collect(&got))
	n.MustConnect("a", 1, "b", 1, 0, 0)
	buf := []byte{1, 2, 3}
	if err := n.Send(n.Node("a"), 1, buf, 0); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender reuses its buffer
	n.Sim.Run()
	if got[0][0] != 1 {
		t.Error("in-flight packet aliases the sender's buffer")
	}
}

func TestNetworkSerializationAndQueueing(t *testing.T) {
	n := NewNetwork()
	var arrivals []time.Duration
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, _ []byte) {
		arrivals = append(arrivals, n.Sim.Now())
	}))
	// 8 Kbit/s: a 1000-byte packet takes 1 s to serialize.
	n.MustConnect("a", 1, "b", 1, 0, 8000)
	pkt := make([]byte, 1000)
	if err := n.Send(n.Node("a"), 1, pkt, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Node("a"), 1, pkt, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != time.Second {
		t.Errorf("first arrival %v, want 1s", arrivals[0])
	}
	if arrivals[1] != 2*time.Second {
		t.Errorf("second arrival %v, want 2s (FIFO queueing)", arrivals[1])
	}
}

func TestNetworkTapRewriteAndDrop(t *testing.T) {
	n := NewNetwork()
	var got [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", collect(&got))
	l := n.MustConnect("a", 1, "b", 1, 0, 0)

	// MitM rewriting the first byte on the way into b.
	if err := l.SetTap("b", func(d []byte) []byte {
		d[0] = 0xEE
		return d
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Node("a"), 1, []byte{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if got[0][0] != 0xEE {
		t.Error("tap rewrite not observed")
	}

	// Dropping tap.
	if err := l.SetTap("b", func(d []byte) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Node("a"), 1, []byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(got) != 1 {
		t.Error("dropped packet was delivered")
	}

	if err := l.SetTap("nosuch", nil); err == nil {
		t.Error("expected error for unknown tap node")
	}
}

func TestNetworkTapDirectionality(t *testing.T) {
	n := NewNetwork()
	var atA, atB [][]byte
	n.AddNode("a", collect(&atA))
	n.AddNode("b", collect(&atB))
	l := n.MustConnect("a", 1, "b", 1, 0, 0)
	if err := l.SetTap("b", func(d []byte) []byte { d[0] = 0xFF; return d }); err != nil {
		t.Fatal(err)
	}
	// b -> a direction must be untouched.
	if err := n.Send(n.Node("b"), 1, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if atA[0][0] != 1 {
		t.Error("tap toward b affected the b->a direction")
	}
}

// TestNetworkUtilization: TxStats counts what each end put on the link.
func TestNetworkUtilization(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", nil)
	n.AddNode("b", nil)
	l := n.MustConnect("a", 1, "b", 1, 0, 1e6) // 1 Mbit/s
	// Push ~0.5 Mbit/s for a while: 125 bytes every 2 ms.
	for i := 0; i < 50; i++ {
		n.Sim.At(time.Duration(i)*2*time.Millisecond, func() {
			_ = n.Send(n.Node("a"), 1, make([]byte, 125), 0)
		})
	}
	n.Sim.Run()
	bytes, pkts, err := l.TxStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 50*125 || pkts != 50 {
		t.Errorf("txstats = %d bytes %d pkts", bytes, pkts)
	}
	if bytes, pkts, err := l.TxStats("b"); err != nil || bytes != 0 || pkts != 0 {
		t.Errorf("reverse direction txstats = %d bytes %d pkts, %v", bytes, pkts, err)
	}
}

func TestNetworkErrors(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", nil)
	if _, err := n.Connect("a", 1, "ghost", 1, 0, 0); err == nil {
		t.Error("expected unknown-node error")
	}
	n.AddNode("b", nil)
	if _, err := n.Connect("a", 1, "b", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("a", 1, "b", 2, 0, 0); err == nil {
		t.Error("expected port-in-use error")
	}
	if err := n.Send(n.Node("a"), 99, []byte{1}, 0); err == nil {
		t.Error("expected unconnected-port error")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate node must panic")
		}
	}()
	n.AddNode("a", nil)
}

func TestLinkBetween(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", nil)
	n.AddNode("b", nil)
	n.AddNode("c", nil)
	n.MustConnect("a", 1, "b", 1, 0, 0)
	if n.LinkBetween("a", "b") == nil || n.LinkBetween("b", "a") == nil {
		t.Error("LinkBetween failed for connected pair")
	}
	if n.LinkBetween("a", "c") != nil {
		t.Error("LinkBetween found a phantom link")
	}
}

func TestLossTapDeterministicRate(t *testing.T) {
	tap := LossTap(0.3, 42)
	dropped := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if tap([]byte{1}) == nil {
			dropped++
		}
	}
	frac := float64(dropped) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("drop fraction %.3f, want ~0.30", frac)
	}
	// Same seed, same stream.
	a, b := LossTap(0.5, 7), LossTap(0.5, 7)
	for i := 0; i < 100; i++ {
		ra, rb := a([]byte{1}), b([]byte{1})
		if (ra == nil) != (rb == nil) {
			t.Fatal("loss streams diverge for identical seeds")
		}
	}
	if never := LossTap(0, 1); never([]byte{1}) == nil {
		t.Error("rate 0 dropped a packet")
	}
	if always := LossTap(1, 1); always([]byte{1}) != nil {
		t.Error("rate 1 passed a packet")
	}
}

func TestCorruptTapFlipsOneBit(t *testing.T) {
	tap := CorruptTap(1, 9)
	orig := []byte{0, 0, 0, 0}
	data := append([]byte(nil), orig...)
	out := tap(data)
	diffBits := 0
	for i := range out {
		x := out[i] ^ orig[i]
		for x != 0 {
			diffBits += int(x & 1)
			x >>= 1
		}
	}
	if diffBits != 1 {
		t.Fatalf("corrupted %d bits, want exactly 1", diffBits)
	}
	// Every 3rd packet only.
	tap3 := CorruptTap(3, 9)
	touched := 0
	for i := 0; i < 9; i++ {
		if out := tap3([]byte{0}); out[0] != 0 {
			touched++
		}
	}
	if touched != 3 {
		t.Errorf("touched %d of 9, want 3", touched)
	}
}

// A corrupting tap must never mutate the caller's buffer: a sender that
// retransmits the same bytes (the controller's KMP retry path) would
// otherwise resend the corrupted copy forever.
func TestCorruptTapDoesNotMutateCaller(t *testing.T) {
	tap := CorruptTap(1, 9)
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	data := append([]byte(nil), orig...)
	out := tap(data)
	if string(data) != string(orig) {
		t.Fatalf("caller's buffer mutated: %x -> %x", orig, data)
	}
	if string(out) == string(orig) {
		t.Fatal("returned packet was not corrupted")
	}
	// A retransmission of the same (pristine) buffer sends pristine bytes.
	again := append([]byte(nil), orig...)
	tap(again)
	if string(again) != string(orig) {
		t.Fatalf("retransmitted buffer mutated: %x -> %x", orig, again)
	}
}

func TestFaultTapValidation(t *testing.T) {
	for _, rate := range []float64{math.NaN(), -0.1, 1.1, math.Inf(1), math.Inf(-1)} {
		if !panics(func() { LossTap(rate, 1) }) {
			t.Errorf("LossTap(%v) accepted an invalid rate", rate)
		}
	}
	for _, rate := range []float64{0, 0.5, 1} {
		if panics(func() { LossTap(rate, 1) }) {
			t.Errorf("LossTap(%v) rejected a valid rate", rate)
		}
	}
	for _, n := range []int{0, -1} {
		if !panics(func() { CorruptTap(n, 1) }) {
			t.Errorf("CorruptTap(%d) accepted an invalid period", n)
		}
	}
	if panics(func() { CorruptTap(1, 1) }) {
		t.Error("CorruptTap(1) rejected a valid period")
	}
}

func TestSimAdvance(t *testing.T) {
	s := NewSim()
	fired := false
	s.After(5*time.Microsecond, func() { fired = true })
	s.Advance(3 * time.Microsecond)
	if fired || s.Now() != 3*time.Microsecond {
		t.Fatalf("Advance(3us): fired=%v now=%v", fired, s.Now())
	}
	s.Advance(3 * time.Microsecond)
	if !fired || s.Now() != 6*time.Microsecond {
		t.Fatalf("Advance past event: fired=%v now=%v", fired, s.Now())
	}
}

func TestChainTaps(t *testing.T) {
	seen := 0
	counter := func(d []byte) []byte { seen++; return d }
	drop := func(d []byte) []byte { return nil }
	chained := ChainTaps(counter, nil, drop, counter)
	if chained([]byte{1}) != nil {
		t.Fatal("drop in chain should short-circuit")
	}
	if seen != 1 {
		t.Fatalf("taps after a drop ran: seen=%d", seen)
	}
}

func TestLossyLinkDelivery(t *testing.T) {
	n := NewNetwork()
	var got int
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, _ []byte) { got++ }))
	l := n.MustConnect("a", 1, "b", 1, 0, 0)
	if err := l.SetTap("b", LossTap(0.5, 99)); err != nil {
		t.Fatal(err)
	}
	const sent = 2000
	for i := 0; i < sent; i++ {
		if err := n.Send(n.Node("a"), 1, []byte{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Sim.Run()
	if got < sent*4/10 || got > sent*6/10 {
		t.Errorf("delivered %d of %d over a 50%% lossy link", got, sent)
	}
}

// TestPartitionAndHeal splits a four-node line a-b-c-d at the {a,b}
// boundary: only the b-c link is cut, traffic inside each side still
// flows, Partition is idempotent for already-down links, and Heal
// restores connectivity.
func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork()
	var atC, atB [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", collect(&atB))
	n.AddNode("c", collect(&atC))
	n.AddNode("d", nil)
	n.MustConnect("a", 1, "b", 1, time.Microsecond, 0)
	n.MustConnect("b", 2, "c", 1, time.Microsecond, 0)
	n.MustConnect("c", 2, "d", 1, time.Microsecond, 0)

	cut := n.Partition("a", "b")
	if len(cut) != 1 {
		t.Fatalf("partition cut %d links, want 1 (b-c)", len(cut))
	}
	if x, y := cut[0].Ends(); !(x == "b" && y == "c") && !(x == "c" && y == "b") {
		t.Fatalf("partition cut %s-%s, want b-c", x, y)
	}
	// Overlapping partition must not claim the already-down link again.
	if again := n.Partition("a", "b"); len(again) != 0 {
		t.Fatalf("re-partition re-cut %d links", len(again))
	}
	if err := n.Send(n.Node("b"), 2, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Node("a"), 1, []byte{2}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(atC) != 0 {
		t.Error("packet crossed a partitioned link")
	}
	if len(atB) != 1 {
		t.Errorf("intra-group packet lost: b got %d", len(atB))
	}

	if healed := n.Heal(); healed != 1 {
		t.Fatalf("healed %d links, want 1", healed)
	}
	if err := n.Send(n.Node("b"), 2, []byte{3}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(atC) != 1 {
		t.Error("healed link did not deliver")
	}
}

// TestSetDownCutsInFlightPackets models a fiber cut: a packet already in
// flight when the link goes down is lost, and user taps stay installed
// across the down/up cycle.
func TestSetDownCutsInFlightPackets(t *testing.T) {
	n := NewNetwork()
	var got [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", collect(&got))
	l := n.MustConnect("a", 1, "b", 1, 10*time.Microsecond, 0)
	taps := 0
	if err := l.SetTap("b", func(d []byte) []byte { taps++; return d }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(n.Node("a"), 1, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.At(5*time.Microsecond, func() { l.SetDown(true) })
	n.Sim.Run()
	if len(got) != 0 || taps != 0 {
		t.Fatalf("in-flight packet survived the cut (delivered=%d taps=%d)", len(got), taps)
	}
	if !l.Down() {
		t.Error("Down() = false after SetDown(true)")
	}
	l.SetDown(false)
	if err := n.Send(n.Node("a"), 1, []byte{2}, 0); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	if len(got) != 1 || taps != 1 {
		t.Errorf("restored link: delivered=%d taps=%d, want 1/1", len(got), taps)
	}
}

// TestRecycledPayloadIsPoisoned shows the tripwire this package's tests run
// under (TestMain): a handler that keeps the delivered slice reads 0xA5 as
// soon as it has returned, and the next packet travels in that buffer.
func TestRecycledPayloadIsPoisoned(t *testing.T) {
	n := NewNetwork()
	var kept [][]byte
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, data []byte) {
		kept = append(kept, data) // against the rule: lent, not given
	}))
	n.MustConnect("a", 1, "b", 1, time.Microsecond, 0)
	for _, payload := range [][]byte{{1, 2, 3}, {4, 5}} {
		if err := n.Send(n.Node("a"), 1, payload, 0); err != nil {
			t.Fatal(err)
		}
		n.Sim.Run()
	}
	if len(kept) != 2 || !bytes.Equal(kept[0], []byte{0xA5, 0xA5, 0xA5}) || !bytes.Equal(kept[1], []byte{0xA5, 0xA5}) {
		t.Fatalf("kept slices read %x, want poison", kept)
	}
	if &kept[0][0] != &kept[1][0] {
		t.Error("the second packet did not reuse the first one's buffer")
	}
}

func TestPayloadClasses(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}, {1500, 5}, {2048, 5}, {2049, 6},
		{64 << 10, payloadClasses - 1}, {64<<10 + 1, payloadClasses},
	} {
		if got := payloadClass(c.n); got != c.class {
			t.Errorf("payloadClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	s := NewSim()
	for _, n := range []int{0, 1, 64, 65, 1500, 64 << 10, 64<<10 + 1} {
		p := s.newPacket(nil, make([]byte, n))
		if p.data == nil || len(p.data) != n {
			t.Fatalf("newPacket(%d bytes) holds %d bytes, nil %v", n, len(p.data), p.data == nil)
		}
		if c := payloadClass(n); c < payloadClasses && cap(p.data) != minPayloadCap<<c {
			t.Errorf("a %d-byte payload got capacity %d, want %d", n, cap(p.data), minPayloadCap<<c)
		}
		s.recycle(p)
	}
	// The three payloads of up to 64 bytes took turns in one buffer.
	if s.freeBytes != 64+128+2048+64<<10 {
		t.Errorf("free lists hold %d bytes", s.freeBytes)
	}
}

// TestFreeListIsBounded: a burst larger than the budget is delivered whole
// and leaves no more than the budget behind.
func TestFreeListIsBounded(t *testing.T) {
	n := NewNetwork()
	delivered := 0
	n.AddNode("a", nil)
	n.AddNode("b", HandlerFunc(func(_ *Network, _ *Node, _ int, data []byte) { delivered++ }))
	n.MustConnect("a", 1, "b", 1, time.Microsecond, 0)
	big := make([]byte, 40<<10)
	const burst = 2 * maxFreeBytes / (64 << 10)
	for i := 0; i < burst; i++ {
		if err := n.Send(n.Node("a"), 1, big, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Sim.Run()
	if delivered != burst {
		t.Fatalf("delivered %d of %d", delivered, burst)
	}
	if n.Sim.freeBytes != maxFreeBytes {
		t.Errorf("free lists hold %d bytes after the burst, want the %d budget", n.Sim.freeBytes, maxFreeBytes)
	}
}

// TestQueueKeepsNoReferences: once an event has run, the queue's backing
// array holds neither its function nor its payload.
func TestQueueKeepsNoReferences(t *testing.T) {
	n := NewNetwork()
	n.AddNode("a", nil)
	n.AddNode("b", nil)
	n.MustConnect("a", 1, "b", 1, time.Microsecond, 0)
	for i := 0; i < 9; i++ {
		n.Sim.At(time.Duration(9-i), func() {})
		if err := n.Send(n.Node("a"), 1, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Sim.Run()
	for i, ev := range n.Sim.pq[:cap(n.Sim.pq)] {
		if ev.fn != nil || ev.pkt != nil {
			t.Errorf("slot %d still references a finished event", i)
		}
	}
}
