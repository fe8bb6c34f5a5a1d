package controller

// Sharded fleet drive: a ShardSet partitions a registered fleet into
// per-switch shard workers, each owning a submission queue drained
// through the windowed transport. Different switches already proceed
// concurrently at the exchange layer (per-handle opMu; c.mu is touched
// only for stats), so a shard per switch turns the controller from "one
// goroutine serially owning every switch" into "one pipelined lane per
// switch" without new locking in the hot path.
//
// The set survives its controller: Rebind atomically points every shard
// at a successor (the HA promotion handoff), keeping queues and totals —
// in-flight submissions drain through the new active, and anything the
// deposed active failed to land is visible in the per-shard totals.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ShardTotals aggregates one shard's lifetime outcomes.
type ShardTotals struct {
	// Submitted counts writes accepted into the queue.
	Submitted int
	// Landed counts writes confirmed applied; Failed the writes that
	// exhausted the transport (fenced, killed, retry budget, …).
	Landed, Failed int
	// Rounds is the number of windowed wire rounds across all flushes.
	Rounds int
	// Lat is the summed modeled wall time of this shard's flushes. The
	// fleet-level wall time is the max over shards (they run in
	// parallel), not the sum.
	Lat time.Duration
}

type shard struct {
	name string
	mu   sync.Mutex
	// queue holds submitted-but-unflushed writes; flushMu serializes
	// flushes so two workers cannot interleave one shard's batches.
	queue   []RegWrite
	flushMu sync.Mutex
	totals  ShardTotals
}

// ShardSet drives a fleet of switches through per-switch shard workers.
type ShardSet struct {
	mu     sync.Mutex
	ctl    *Controller
	window int
	shards map[string]*shard
	order  []string
}

// NewShardSet builds a shard per named switch, all driven through the
// windowed transport with the given window. Every switch must already be
// registered with the controller.
func (c *Controller) NewShardSet(switches []string, window int) (*ShardSet, error) {
	if window < 1 {
		return nil, fmt.Errorf("controller: shard window must be >= 1")
	}
	ss := &ShardSet{
		ctl:    c,
		window: window,
		shards: make(map[string]*shard, len(switches)),
	}
	for _, sw := range switches {
		if _, err := c.handle(sw); err != nil {
			return nil, err
		}
		if _, dup := ss.shards[sw]; dup {
			return nil, fmt.Errorf("controller: duplicate shard %q", sw)
		}
		ss.shards[sw] = &shard{name: sw}
		ss.order = append(ss.order, sw)
	}
	sort.Strings(ss.order)
	return ss, nil
}

func (ss *ShardSet) shardOf(sw string) (*shard, error) {
	sh, ok := ss.shards[sw]
	if !ok {
		return nil, fmt.Errorf("controller: no shard for switch %q", sw)
	}
	return sh, nil
}

// controller returns the current drive target and window.
func (ss *ShardSet) controller() (*Controller, int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.ctl, ss.window
}

// Rebind atomically points every shard at a successor controller — the
// HA promotion handoff. Queued writes and totals survive; flushes begun
// before the swap finish against the old controller (and fail under its
// fence if it was deposed).
func (ss *ShardSet) Rebind(c *Controller) {
	ss.mu.Lock()
	ss.ctl = c
	ss.mu.Unlock()
}

// Submit queues one write on a shard. Safe for concurrent use.
func (ss *ShardSet) Submit(sw string, w RegWrite) error {
	sh, err := ss.shardOf(sw)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.queue = append(sh.queue, w)
	sh.totals.Submitted++
	sh.mu.Unlock()
	return nil
}

// Pending reports the queued-but-unflushed writes on a shard.
func (ss *ShardSet) Pending(sw string) int {
	sh, err := ss.shardOf(sw)
	if err != nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.queue)
}

// FleetTotals sums the per-shard totals and returns the fleet wall time:
// the max shard Lat, since shards run concurrently.
func (ss *ShardSet) FleetTotals() (ShardTotals, time.Duration) {
	var sum ShardTotals
	var wall time.Duration
	for _, sw := range ss.order {
		sh := ss.shards[sw]
		sh.mu.Lock()
		t := sh.totals
		sh.mu.Unlock()
		sum.Submitted += t.Submitted
		sum.Landed += t.Landed
		sum.Failed += t.Failed
		sum.Rounds += t.Rounds
		sum.Lat += t.Lat
		if t.Lat > wall {
			wall = t.Lat
		}
	}
	return sum, wall
}

// FlushShard drains one shard's queue through the windowed transport.
// Writes that fail stay failed (counted in the totals and audited by the
// transport as dropped) — the caller decides whether to resubmit, which
// is what the failover handoff does after Rebind.
func (ss *ShardSet) FlushShard(sw string) (BatchResult, error) {
	sh, err := ss.shardOf(sw)
	if err != nil {
		return BatchResult{}, err
	}
	sh.flushMu.Lock()
	defer sh.flushMu.Unlock()
	sh.mu.Lock()
	batch := sh.queue
	sh.queue = nil
	sh.mu.Unlock()
	if len(batch) == 0 {
		return BatchResult{}, nil
	}
	c, window := ss.controller()
	br, err := c.WriteRegisterBatch(sh.name, window, batch)
	failed := br.Failed
	if err != nil && len(br.Errs) == 0 {
		// The batch died before the transport (journal intent refused by a
		// fence, dead controller): nothing landed.
		failed = len(batch)
	}
	sh.mu.Lock()
	sh.totals.Landed += len(batch) - failed
	sh.totals.Failed += failed
	sh.totals.Rounds += br.Rounds
	sh.totals.Lat += br.Lat
	sh.mu.Unlock()
	return br, err
}

// DrainSequential flushes every shard in sorted name order — the
// deterministic drive the chaos harness replays bit-for-bit. The error
// joins per-shard failures.
func (ss *ShardSet) DrainSequential() error {
	var errs []error
	for _, sw := range ss.order {
		if _, err := ss.FlushShard(sw); err != nil {
			errs = append(errs, fmt.Errorf("shard %s: %w", sw, err))
		}
	}
	return errors.Join(errs...)
}

// DrainParallel flushes every shard concurrently, one worker per shard —
// the fleet-throughput drive. The error joins per-shard failures.
func (ss *ShardSet) DrainParallel() error {
	errs := make([]error, len(ss.order))
	var wg sync.WaitGroup
	for i, sw := range ss.order {
		wg.Add(1)
		go func(i int, sw string) {
			defer wg.Done()
			if _, err := ss.FlushShard(sw); err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", sw, err)
			}
		}(i, sw)
	}
	wg.Wait()
	return errors.Join(errs...)
}
