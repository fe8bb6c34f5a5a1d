package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// rng is the benchmark's own splitmix64 stream: every index, value,
// destination, flow and tamper position comes from it, so the program
// under test only ever sees generated inputs and the same -seed gives the
// same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fork derives an independent stream for a named purpose, so adding a
// consumer never shifts the values another consumer sees.
func (r *rng) fork(label uint64) *rng { return newRNG(r.s ^ (label+1)*0xd6e8feb86659fd93) }

// chunkStat is what one timed chunk cost. A chunk is a fixed number of
// operations (one fabric iteration for fabric_k4) timed as a unit: chunk
// medians repeat far better on a shared box than a mean over the run.
type chunkStat struct {
	ops     int
	wallNs  int64
	cpuNs   int64
	mallocs uint64
	bytes   uint64
	modeled time.Duration // virtual time the chunk's operations consumed
}

// probe snapshots the three host-side meters around a timed region.
// ReadMemStats stops the world, so it is taken outside the wall timer.
type probe struct {
	t   time.Time
	cpu int64
	ms  runtime.MemStats
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (p *probe) start() {
	runtime.ReadMemStats(&p.ms)
	p.cpu = cpuNow()
	p.t = time.Now()
}

// stop returns the chunk's host-side cost since start.
func (p *probe) stop(ops int, modeled time.Duration) chunkStat {
	wall := time.Since(p.t)
	cpu := cpuNow() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return chunkStat{
		ops:     ops,
		wallNs:  wall.Nanoseconds(),
		cpuNs:   cpu,
		mallocs: ms.Mallocs - p.ms.Mallocs,
		bytes:   ms.TotalAlloc - p.ms.TotalAlloc,
		modeled: modeled,
	}
}

// liveHeapMB forces a collection and reports the bytes of the objects
// that survived it: the state the workload retains, not the garbage it
// produced on the way. (HeapInuse would add the free room in partly used
// spans, which depends on what was allocated and freed before and read
// between 1.3 and 4.6 MB on one workload.) Two collections, because a
// sync.Pool hands its contents to a victim cache that lives through one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs is left as it was.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// typical is the value reported for a list of timings taken on a shared
// host: the lower quartile. Other tenants only ever add time, so the
// quarter of the samples least disturbed repeats better from run to run
// than the median does (measured here: 6 to 8 % spread over ten runs
// against 9 to 12 %), and it still moves with every change to the code.
func typical(vs []float64) float64 { return quantile(vs, 0.25) }

// perOp lists one meter of each chunk per operation.
func perOp(cs []chunkStat, meter func(chunkStat) int64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(meter(c)) / float64(c.ops)
	}
	return out
}

func wallOf(c chunkStat) int64 { return c.wallNs }
func cpuOf(c chunkStat) int64  { return c.cpuNs }

// totals sums the chunk meters; allocation counts are exact, so they are
// reported as run totals per operation.
func totals(cs []chunkStat) (t chunkStat) {
	for _, c := range cs {
		t.ops += c.ops
		t.wallNs += c.wallNs
		t.cpuNs += c.cpuNs
		t.mallocs += c.mallocs
		t.bytes += c.bytes
		t.modeled += c.modeled
	}
	return t
}

// finite rejects the values a JSON encoder or a comparison cannot carry.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is not finite", name)
	}
	return nil
}
