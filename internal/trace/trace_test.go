package trace

import (
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(uint64(100 * time.Millisecond))
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	cfg.Seed++
	c := Generate(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateOrderedAndBounded(t *testing.T) {
	cfg := DefaultConfig(uint64(200 * time.Millisecond))
	pkts := Generate(cfg)
	var last uint64
	for i, p := range pkts {
		if p.AtNs < last {
			t.Fatalf("packet %d out of order: %d < %d", i, p.AtNs, last)
		}
		last = p.AtNs
		if p.AtNs >= cfg.DurationNs {
			t.Fatalf("packet %d beyond duration", i)
		}
		if p.Size != packetBytes {
			t.Fatalf("packet %d size %d", i, p.Size)
		}
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	cfg := DefaultConfig(uint64(2 * time.Second))
	cfg.Seed = 7
	pkts := Generate(cfg)
	st := Summarize(pkts)
	if st.Flows < 100 {
		t.Fatalf("only %d flows", st.Flows)
	}
	mean := float64(st.Packets) / float64(st.Flows)
	// Heavy tail: the largest flow should far exceed the mean.
	if float64(st.MaxFlowPk) < 4*mean {
		t.Errorf("max flow %d vs mean %.1f: tail not heavy", st.MaxFlowPk, mean)
	}
	if st.MaxFlowPk > maxFlowPackets {
		t.Errorf("flow length %d exceeds truncation %d", st.MaxFlowPk, maxFlowPackets)
	}
	if st.Bytes != uint64(st.Packets*packetBytes) {
		t.Error("byte accounting")
	}
}

// TestStreamPinnedBytes pins the exact generator output per seed: any
// change to the PRNG, the arrival process, or the Pareto sampler shifts
// these numbers and must be a deliberate, golden-updating change —
// otherwise every fleet matrix silently measures different traffic.
func TestStreamPinnedBytes(t *testing.T) {
	cfg := DefaultConfig(uint64(100 * time.Millisecond))
	pins := []struct {
		seed          uint64
		packets, flow int
		bytes         uint64
	}{
		{0x7acef10, 2994, 218, 2994000},
		{1, 1740, 196, 1740000},
		{42, 2711, 209, 2711000},
	}
	for _, p := range pins {
		c := cfg
		c.Seed = p.seed
		st := Summarize(Generate(c))
		if st.Packets != p.packets || st.Flows != p.flow || st.Bytes != p.bytes {
			t.Errorf("seed %#x: got packets=%d flows=%d bytes=%d, pinned packets=%d flows=%d bytes=%d",
				p.seed, st.Packets, st.Flows, st.Bytes, p.packets, p.flow, p.bytes)
		}
	}
	// Forked substreams are pinned too: fork i depends only on (seed, i).
	s := NewStream(cfg)
	forkPins := []struct {
		seed  uint64
		base  uint32
		bytes uint64
	}{
		{0xbda15e1cba069490, 0x400000, 2186000},
		{0xa72a94818902e217, 0x800000, 2030000},
		{0x71780744a5165562, 0xc00000, 1742000},
		{0xfe6950f53b36b9, 0x1000000, 1289000},
	}
	for i, p := range forkPins {
		f := s.Fork(uint64(i))
		if f.Config().Seed != p.seed || f.Config().FlowBase != p.base {
			t.Errorf("fork %d: derived seed=%#x base=%#x, pinned seed=%#x base=%#x",
				i, f.Config().Seed, f.Config().FlowBase, p.seed, p.base)
		}
		if st := Summarize(f.Generate()); st.Bytes != p.bytes {
			t.Errorf("fork %d: bytes=%d, pinned %d", i, st.Bytes, p.bytes)
		}
	}
}

// Fork is order-independent and side-effect free: forking in any order,
// repeatedly, from the same parent yields identical substreams, and the
// flow-ID spaces of sibling forks never overlap.
func TestStreamForkIndependence(t *testing.T) {
	cfg := DefaultConfig(uint64(50 * time.Millisecond))
	s := NewStream(cfg)
	// Reverse order, interleaved with repeats.
	traces := make(map[uint64][]Packet)
	for _, i := range []uint64{3, 1, 2, 0, 2, 3} {
		pkts := s.Fork(i).Generate()
		if prev, ok := traces[i]; ok {
			if len(prev) != len(pkts) {
				t.Fatalf("fork %d: re-fork changed trace length %d -> %d", i, len(prev), len(pkts))
			}
			for j := range prev {
				if prev[j] != pkts[j] {
					t.Fatalf("fork %d: packet %d differs on re-fork", i, j)
				}
			}
		}
		traces[i] = pkts
	}
	// Disjoint flow-ID spaces and distinct contents across siblings.
	owner := make(map[uint32]uint64)
	for i, pkts := range traces {
		if len(pkts) == 0 {
			t.Fatalf("fork %d: empty trace", i)
		}
		for _, p := range pkts {
			if prev, ok := owner[p.Flow]; ok && prev != i {
				t.Fatalf("flow %d appears in forks %d and %d", p.Flow, prev, i)
			}
			owner[p.Flow] = i
		}
	}
	// Parent is unaffected by forking and matches a fresh stream.
	a, b := s.Generate(), NewStream(cfg).Generate()
	if len(a) != len(b) {
		t.Fatalf("parent stream mutated by Fork: %d vs %d packets", len(a), len(b))
	}
}

func TestGenerateArrivalRateApproximatesConfig(t *testing.T) {
	cfg := DefaultConfig(uint64(5 * time.Second))
	cfg.FlowsPerSecond = 500
	st := Summarize(Generate(cfg))
	expected := 500.0 * 5
	ratio := float64(st.Flows) / expected
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("flows = %d, expected ~%.0f (ratio %.2f)", st.Flows, expected, ratio)
	}
}
