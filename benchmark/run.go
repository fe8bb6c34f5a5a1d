package main

import (
	"fmt"
	"runtime"
	"time"
)

// round is what one measured round of one instance produced.
type round struct {
	chunks []chunkStat
	heapMB float64
	counts counts
}

// measure runs chunks of every instance in turn until the budget is spent
// (at least one chunk each), after one untimed warm-up chunk each that
// fills caches and lazy state (the smoke pass goes without). Taking turns
// chunk by chunk puts the slow periods of a shared host on all instances
// alike, so ratios between them hold. Live heap is sampled for the first
// instance after a fixed number of chunks, see workload.heapChunks.
// between, when not nil, runs after every turn, outside all timed regions.
func measure(w workload, budget time.Duration, smoke bool, between func() error, insts ...instance) ([]round, error) {
	rs := make([]round, len(insts))
	var p probe
	for _, in := range insts {
		if smoke {
			break
		}
		if _, err := in.chunk(&p); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	deadline := time.Now().Add(budget)
	for len(rs[0].chunks) == 0 || time.Now().Before(deadline) {
		for i, in := range insts {
			st, err := in.chunk(&p)
			if err != nil {
				return nil, err
			}
			rs[i].chunks = append(rs[i].chunks, st)
		}
		if len(rs[0].chunks) == w.heapChunks {
			rs[0].heapMB = liveHeapMB()
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	if rs[0].heapMB == 0 {
		rs[0].heapMB = liveHeapMB()
	}
	for i, in := range insts {
		c, err := in.finish()
		if err != nil {
			return nil, err
		}
		rs[i].counts = c
	}
	runtime.KeepAlive(insts)
	return rs, nil
}

// runMeasured is the untraced pass: the end-to-end metrics of one
// workload, all on the wall clock of this host.
func runMeasured(w workload, seed uint64, budget time.Duration, smoke bool) (result, error) {
	inst, err := w.setup(seed, setupOpts{})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	// Set-up time is sampled all through the measured phase, one more
	// set-up after every chunk, so that its median sees the same mix of
	// fast and slow periods of the host as the chunks do.
	var setups []float64
	again := func() error {
		t0 := time.Now()
		_, err := w.setup(seed, setupOpts{})
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	rs, err := measure(w, budget, smoke, again, inst)
	if err != nil {
		return result{}, err
	}
	r := rs[0]
	tot := totals(r.chunks)
	if err := checkTrajectory(w, r.counts); err != nil {
		return result{}, err
	}
	ns := perOp(r.chunks, wallOf)
	wall := typical(ns)
	m := map[string]float64{
		"setup_s":        median(setups),
		"wall_ops_per_s": 1e9 / wall,
		"cpu_ns_per_op":  typical(perOp(r.chunks, cpuOf)),
		"live_heap_mb":   r.heapMB,
	}
	fmt.Printf("%s seed=%d clock=wall chunks=%d ops=%d ns/op p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f\n",
		w.name, seed, len(ns), tot.ops, quantile(ns, 0.10), wall, median(ns), quantile(ns, 0.75), quantile(ns, 0.90))
	fmt.Printf("%s allocs/op=%.4f bytes/op=%.2f modeled_ops_per_s=%.2f (per-layer metrics: -trace 1)\n",
		w.name, float64(tot.mallocs)/float64(tot.ops), float64(tot.bytes)/float64(tot.ops),
		float64(tot.ops)/tot.modeled.Seconds())
	return finishResult(w, endToEnd, m, r.counts)
}

// finishResult gives every metric of the table its unit, prints them by
// name and folds the output checks into the result line. A value the
// table does not name is a bug in the benchmark.
func finishResult(w workload, table []unit, m map[string]float64, c counts) (result, error) {
	out := make(map[string]metric, len(table))
	for _, u := range table {
		if err := finite(u.name, m[u.name]); err != nil {
			return result{}, err
		}
		out[u.name] = metric{m[u.name], u.unit}
		fmt.Printf("%s %s = %.6g %s\n", w.name, u.name, m[u.name], u.unit)
		delete(m, u.name)
	}
	for name := range m {
		return result{}, fmt.Errorf("metric %s is not in the table", name)
	}
	if c.forged != 0 {
		return result{}, fmt.Errorf("%d forged operations applied", c.forged)
	}
	return result{Correct: true, Attempted: c.attempted, Failed: c.failed, Metrics: out}, nil
}
