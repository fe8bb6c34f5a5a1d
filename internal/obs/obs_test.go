package obs

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
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
	var b [HistBuckets]uint64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
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
// instruments are resolved, Inc/Add/Set/Observe do not allocate, and
// AuditLog.Append allocates only when its ring doubles or on an actor or
// cause the log has not seen, so not at all once the ring is full and its
// names are known.
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
	for i := 0; i < 64; i++ { // warm up; fills the audit ring, learns the names
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

// TestAuditLogRetainedBytes bounds what a full default ring keeps alive:
// 24-byte slots and one name table, not 64-byte events.
func TestAuditLogRetainedBytes(t *testing.T) {
	actors := [...]string{"s1", "s2", "s3", "s4", "pod1", "pod2", "r0", "r1"}
	causes := [...]string{"applied", "failed", "stale-seq", "bad-digest"}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	l := NewAuditLog(0)
	fresh := heap()
	for i := 0; i < 25*DefaultAuditCap; i++ {
		l.Append(EvWALSettle, actors[i%len(actors)], causes[i%len(causes)], uint32(i), uint64(i))
	}
	if grown := heap() - fresh; grown >= 112<<10 {
		t.Errorf("a full ring keeps %d KiB alive, want under 112 KiB", grown>>10)
	}
	if len(l.names) != 1+len(actors)+len(causes) {
		t.Errorf("name table holds %d names, want %d", len(l.names), 1+len(actors)+len(causes))
	}
	runtime.KeepAlive(l)
}

// auditModel is the reference the ring is checked against: every event
// ever appended, in a plain slice, with the ring's retention and eviction
// rules applied on read.
type auditModel struct {
	capacity int
	all      []Event
}

func (m *auditModel) append(t EventType, actor, cause string, seq uint32, value uint64) {
	m.all = append(m.all, Event{ID: uint64(len(m.all) + 1), Type: t, Actor: actor, Cause: cause, Seq: seq, Value: value})
}

func (m *auditModel) evicted() uint64 { return uint64(max(len(m.all)-m.capacity, 0)) }

func (m *auditModel) events() []Event { return m.all[m.evicted():] }

func (m *auditModel) byType(t EventType) []Event {
	var out []Event
	for _, e := range m.events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

func (m *auditModel) dump() string {
	var b strings.Builder
	if ev := m.evicted(); ev > 0 {
		fmt.Fprintf(&b, "… %d earlier events evicted\n", ev)
	}
	for _, e := range m.events() {
		fmt.Fprintf(&b, "#%-6d %-18s actor=%-8s seq=%-10d value=%-12d cause=%s\n",
			e.ID, e.Type, e.Actor, e.Seq, e.Value, e.Cause)
	}
	return b.String()
}

// TestAuditLogMatchesReference drives the ring and the plain-slice model
// with the same random appends, across capacities that wrap before,
// at and after the ring's growth steps and with 1 to 8 actor and 1 to 4
// cause names ("" among them), and compares every reader after each
// step. Names reach the log as fresh copies now and then, so the log may
// rely on a name's value, never on its address.
func TestAuditLogMatchesReference(t *testing.T) {
	actorPool := []string{"s1", "s2", "", "s03", "pod1", "r0", "link:s1-s2", "global-0"}
	causePool := []string{"", "applied", "stale-seq", "enter"}
	types := []EventType{EvDigestMismatch, EvReplayRejected, EvWALSettle, EvLinkState, EvWANDegraded}
	cases := []struct{ capacity, actors, causes int }{
		{1, 1, 1}, {1, 8, 4},
		{3, 1, 2}, {3, 8, 4},
		{16, 3, 1}, {16, 8, 4},
		{17, 2, 3}, {17, 8, 4},
		{4096, 8, 4},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		l := NewAuditLog(tc.capacity)
		m := &auditModel{capacity: tc.capacity}
		steps := 3*tc.capacity + 5
		for i := 1; i <= steps; i++ {
			typ := types[rng.Intn(len(types))]
			actor := actorPool[rng.Intn(tc.actors)]
			cause := causePool[rng.Intn(tc.causes)]
			seq, value := rng.Uint32(), rng.Uint64()
			m.append(typ, actor, cause, seq, value)
			if rng.Intn(4) == 0 {
				actor, cause = strings.Clone(actor), strings.Clone(cause)
			}
			l.Append(typ, actor, cause, seq, value)

			if l.Len() != len(m.events()) || l.Total() != uint64(len(m.all)) || l.Evicted() != m.evicted() {
				t.Fatalf("cap %d step %d: len %d total %d evicted %d, want %d %d %d", tc.capacity, i,
					l.Len(), l.Total(), l.Evicted(), len(m.events()), len(m.all), m.evicted())
			}
			// Every step of the small rings; around each growth and
			// wrap of the large one, and every 499th step between.
			if tc.capacity > 64 && i%499 != 0 && bits.OnesCount(uint(i-1)) > 1 && bits.OnesCount(uint(i)) > 1 && i != steps {
				continue
			}
			if got, want := l.Events(), m.events(); !slices.Equal(got, want) {
				t.Fatalf("cap %d step %d: Events differ\n got %v\nwant %v", tc.capacity, i, got, want)
			}
			for _, ty := range types {
				if got, want := l.ByType(ty), m.byType(ty); !slices.Equal(got, want) {
					t.Fatalf("cap %d step %d: ByType(%s) differ\n got %v\nwant %v", tc.capacity, i, ty, got, want)
				}
			}
			if got, want := l.Dump(), m.dump(); got != want {
				t.Fatalf("cap %d step %d: Dump differs\n got %q\nwant %q", tc.capacity, i, got, want)
			}
		}
	}
}

// TestAuditLogDumpOneInstant: Dump's eviction header and its listing
// describe one instant, so beside a concurrent appender the first listed
// event is always the one after the last evicted.
func TestAuditLogDumpOneInstant(t *testing.T) {
	l := NewAuditLog(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.Append(EvWALSettle, "s1", "applied", i, 0)
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 5000; i++ {
		d := l.Dump()
		var evicted, first uint64
		switch {
		case d == "":
			continue
		case strings.HasPrefix(d, "…"):
			if _, err := fmt.Sscanf(d, "… %d earlier events evicted\n#%d", &evicted, &first); err != nil {
				t.Fatalf("dump %d: %v\n%s", i, err, d)
			}
		default:
			if _, err := fmt.Sscanf(d, "#%d", &first); err != nil {
				t.Fatalf("dump %d: %v\n%s", i, err, d)
			}
		}
		if first != evicted+1 {
			t.Fatalf("dump %d: %d evicted but the first listed event is #%d\n%s", i, evicted, first, d)
		}
	}
}

// BenchmarkAuditAppend times Append on a full default-capacity ring
// whose names are all known: three actors in turn and one cause.
func BenchmarkAuditAppend(b *testing.B) {
	l := NewAuditLog(0)
	actors := [...]string{"s1", "s2", "s3"}
	for i := 0; i < DefaultAuditCap; i++ {
		l.Append(EvReplayRejected, actors[i%3], "stale-seq", uint32(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(EvReplayRejected, actors[i%3], "stale-seq", uint32(i), uint64(i))
	}
}
