// Package obs is a dependency-free observability layer: a registry of
// atomic counters, gauges and fixed-bucket latency histograms, plus a
// bounded ring-buffer audit log of structured security events (audit.go).
//
// The design constraint inherited from the transport layer is that the
// *increment* path must be allocation-free: counters sit on the
// authenticated-write hot path, which carries a 0 allocs/op budget. The
// registry therefore splits its API in two:
//
//   - Registration (Counter/Gauge/Histogram lookups by name) locks and may
//     allocate. Callers resolve their instruments once, at wiring time,
//     and keep the returned pointers.
//   - Updates (Inc/Add/Set/Observe) are pure atomics on pre-allocated
//     storage — no locks, no maps, no interface boxing, no strings.
//
// Snapshot reads walk the registry under the lock and are intended for
// cold paths only (inspection commands, bench reports, test assertions).
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Allocation-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic last-value instrument.
type Gauge struct {
	v atomic.Uint64
}

// Set stores v. Allocation-free.
func (g *Gauge) Set(v uint64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() uint64 { return g.v.Load() }

// HistBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations v with 2^i <= v < 2^(i+1) (bucket 0 also counts
// v == 0); the last bucket absorbs everything from 2^(HistBuckets-1) up.
// With 32 buckets the range covers 1ns..~2s when observations are
// nanoseconds.
const HistBuckets = 32

// Histogram is a fixed-bucket power-of-two histogram. Observe is a single
// atomic add into a pre-sized array: allocation-free and lock-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a value to its power-of-two bucket index, ⌊log2 v⌋.
func bucketOf(v uint64) int {
	return min(bits.Len64(v|1)-1, HistBuckets-1)
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from the
// bucket histogram: the largest value the bucket holding the
// q*count-th observation can hold, so that below the overflow bucket the
// bound is under twice the true quantile. The overflow bucket has no such
// value and reports math.MaxUint64. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank && i < HistBuckets-1 {
			return uint64(1)<<(i+1) - 1
		}
	}
	return math.MaxUint64
}

// Registry is a named collection of instruments. Lookup is get-or-create;
// two lookups with the same name return the same instrument, so separate
// layers (controller, agent, switch) can share counters by name.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Resolve once at wiring time; do not call on a hot path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]uint64       `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value. Cold path.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.ctrs)),
		Gauges:     make(map[string]uint64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		}
	}
	return s
}

// Dump renders a snapshot as sorted "name value" lines for terminals.
func (s Snapshot) Dump() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter  %-44s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge    %-44s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist     %-44s n=%d mean=%.0f p50<=%d p99<=%d\n",
			n, h.Count, h.Mean, h.P50, h.P99)
	}
	return b.String()
}

// Observer bundles the metrics registry and the audit log so a single
// handle can be threaded through every layer and shared across controller
// generations (warm restarts keep the same observer).
type Observer struct {
	Metrics *Registry
	Audit   *AuditLog
}

// NewObserver returns an observer with a fresh registry and an audit ring
// of the given capacity (DefaultAuditCap when n <= 0), which grows with
// use up to it.
func NewObserver(n int) *Observer {
	return &Observer{Metrics: NewRegistry(), Audit: NewAuditLog(n)}
}
