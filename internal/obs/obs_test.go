package obs

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("writes") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("floor")
	g.Set(42)
	g.Set(17)
	if got := g.Load(); got != 17 {
		t.Fatalf("gauge = %d, want 17", got)
	}
	if r.Gauge("floor") != g {
		t.Fatal("same name must return the same gauge")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if r.Histogram("lat") != h {
		t.Fatal("same name must return the same histogram")
	}
	// 0 and 1 land in bucket 0; 2,3 in bucket 1; 4..7 in bucket 2, etc.
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	b := h.Buckets()
	if b[0] != 2 || b[1] != 2 || b[2] != 2 || b[3] != 1 {
		t.Fatalf("buckets = %v", b[:4])
	}
	if b[HistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", b[HistBuckets-1])
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 4 + 7 + 8 + 1<<40)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
	if h.Mean() != float64(wantSum)/8 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// rank(0.5) = 4th of 8, the 3: cumulative hits 4 in bucket 1 (2..3),
	// whose largest value is 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	// rank(0.2) = 1st observation: bucket 0, reported as 1.
	if q := h.Quantile(0.2); q != 1 {
		t.Fatalf("p20 = %d, want 1", q)
	}
	// The 8th observation is in the overflow bucket, which bounds nothing.
	if q := h.Quantile(1.0); q != math.MaxUint64 {
		t.Fatalf("p100 = %d, want MaxUint64", q)
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramQuantileBound: for seeded random sets below the overflow
// bucket, the exact q-quantile (the rank-th smallest, rank as Quantile
// takes it) is at most Quantile(q) and more than half of it.
func TestHistogramQuantileBound(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		vals := make([]uint64, 1+rng.Intn(500))
		for i := range vals {
			// Log-uniform over [1, 2^31), so every bucket below the
			// overflow one is drawn.
			vals[i] = 1 + uint64(rng.Int63n(1<<rng.Intn(HistBuckets-1)))
			h.Observe(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := max(uint64(q*float64(len(vals))), 1)
			exact, got := vals[rank-1], h.Quantile(q)
			if got < exact || got >= 2*exact {
				t.Fatalf("seed %d n=%d q=%v: Quantile %d, exact %d", seed, len(vals), q, got, exact)
			}
		}
	}
}

func TestSnapshotAndDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(7)
	r.Histogram("c").Observe(100)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["b"] != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	hs := s.Histograms["c"]
	if hs.Count != 1 || hs.Sum != 100 || hs.Mean != 100 {
		t.Fatalf("hist snapshot = %+v", hs)
	}
	d := s.Dump()
	for _, want := range []string{"counter", "a", "gauge", "b", "hist", "c"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestAuditLogRing(t *testing.T) {
	l := NewAuditLog(4)
	for i := 0; i < 3; i++ {
		l.Append(EvReplayRejected, "s1", "stale-seq", uint32(i), uint64(i))
	}
	if l.Len() != 3 || l.Total() != 3 || l.Evicted() != 0 {
		t.Fatalf("len=%d total=%d evicted=%d", l.Len(), l.Total(), l.Evicted())
	}
	ev := l.Events()
	if len(ev) != 3 || ev[0].ID != 1 || ev[2].ID != 3 {
		t.Fatalf("events = %+v", ev)
	}
	// Wrap: capacity 4, append 4 more → oldest 3 evicted.
	for i := 3; i < 7; i++ {
		l.Append(EvDigestMismatch, "s2", "bad-digest", uint32(i), uint64(i))
	}
	if l.Len() != 4 || l.Total() != 7 || l.Evicted() != 3 {
		t.Fatalf("after wrap: len=%d total=%d evicted=%d", l.Len(), l.Total(), l.Evicted())
	}
	ev = l.Events()
	if ev[0].ID != 4 || ev[3].ID != 7 {
		t.Fatalf("wrapped events = %+v", ev)
	}
	byType := l.ByType(EvDigestMismatch)
	if len(byType) != 4 {
		t.Fatalf("ByType = %d events, want 4", len(byType))
	}
	d := l.Dump()
	if !strings.Contains(d, "digest_mismatch") || !strings.Contains(d, "3 earlier events evicted") {
		t.Fatalf("dump:\n%s", d)
	}
}

func TestAuditLogDefaults(t *testing.T) {
	l := NewAuditLog(0)
	l.Append(EvFloorBump, "s1", "warm-restart-lease", 0, 65536)
	if l.Events()[0].Type.String() != "floor_bump" {
		t.Fatal("event type name")
	}
	if EventType(200).String() != "unknown" {
		t.Fatal("unknown event type name")
	}
	// The default capacity is DefaultAuditCap: the next append after it
	// evicts exactly one event, the first.
	for i := 1; i < DefaultAuditCap; i++ {
		l.Append(EvWALSettle, "s1", "applied", uint32(i), 0)
	}
	if l.Evicted() != 0 || l.Len() != DefaultAuditCap {
		t.Fatalf("at capacity: evicted %d, len %d, want 0 and %d", l.Evicted(), l.Len(), DefaultAuditCap)
	}
	l.Append(EvWALSettle, "s1", "applied", DefaultAuditCap, 0)
	if ev := l.Events(); l.Evicted() != 1 || len(ev) != DefaultAuditCap || ev[0].ID != 2 {
		t.Fatalf("one past capacity: evicted %d, len %d, oldest #%d, want 1, %d, #2", l.Evicted(), len(ev), ev[0].ID, DefaultAuditCap)
	}
}

func TestObserverBundle(t *testing.T) {
	o := NewObserver(16)
	if o.Metrics == nil || o.Audit == nil {
		t.Fatal("observer parts must be non-nil")
	}
	o.Metrics.Counter("x").Inc()
	o.Audit.Append(EvRolloverBegin, "s1", "", 0, 1)
	if o.Metrics.Snapshot().Counters["x"] != 1 || o.Audit.Total() != 1 {
		t.Fatal("observer wiring")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	l := NewAuditLog(128)
	c := r.Counter("n")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(uint64(i))
				if i%100 == 0 {
					l.Append(EvWALSettle, "s1", "applied", uint32(i), 0)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Load() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d hist=%d", c.Load(), h.Count())
	}
	if l.Total() != 80 {
		t.Fatalf("audit total = %d, want 80", l.Total())
	}
}

// TestAuditLogGrowsWithUse: a fresh log holds no ring, the ring doubles
// as events arrive up to the capacity, and retention, eviction counts and
// order are those of a ring allocated at capacity.
func TestAuditLogGrowsWithUse(t *testing.T) {
	l := NewAuditLog(40)
	if len(l.ring) != 0 || l.Len() != 0 || len(l.Events()) != 0 {
		t.Fatalf("fresh log: ring %d, len %d", len(l.ring), l.Len())
	}
	for i := 1; i <= 100; i++ {
		l.Append(EvWALSettle, "s1", "applied", uint32(i), uint64(i))
		want := min(max(firstRing, 1<<bits.Len(uint(i-1))), 40)
		if len(l.ring) != want {
			t.Fatalf("after %d events: ring %d, want %d", i, len(l.ring), want)
		}
		if l.Len() != min(i, 40) || l.Evicted() != uint64(max(i-40, 0)) {
			t.Fatalf("after %d events: len %d evicted %d", i, l.Len(), l.Evicted())
		}
		for j, e := range l.Events() {
			if e.ID != uint64(max(i-40, 0)+j+1) {
				t.Fatalf("after %d events: event %d is #%d", i, j, e.ID)
			}
		}
	}
}

// TestUpdatePathAllocBudget pins the contract the hot paths rely on: once
// instruments are resolved, Inc/Add/Set/Observe and AuditLog.Append do
// not allocate.
func TestUpdatePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("hot")
	h := r.Histogram("hot")
	l := NewAuditLog(64)
	const actor, cause = "s1", "stale-seq"
	for i := 0; i < 64; i++ { // warm up; fills the audit ring
		c.Inc()
		g.Set(uint64(i))
		h.Observe(uint64(i))
		l.Append(EvReplayRejected, actor, cause, uint32(i), 0)
	}
	var i uint64
	got := testing.AllocsPerRun(200, func() {
		i++
		c.Inc()
		c.Add(2)
		g.Set(i)
		h.Observe(i)
		l.Append(EvReplayRejected, actor, cause, uint32(i), i)
	})
	if got > 0 {
		t.Errorf("update path: %.1f allocs/op, budget 0", got)
	}
}
