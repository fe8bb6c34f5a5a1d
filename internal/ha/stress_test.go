package ha

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/obs"
)

// aclock is a concurrency-safe hand-advanced clock for the stress test.
type aclock struct{ ns atomic.Int64 }

func (c *aclock) Now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *aclock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestStressShardedFailover drives N shard workers through pipelined
// writes while rollovers run concurrently, then fires a failover in the
// middle of it all: the active is killed mid-traffic, the standby
// promotes after lease expiry, and the shard set is rebound. Monitors
// assert replay floors never regress and the audit log explains every
// counted drop and fencing refusal. Run under -race (the stress gate).
func TestStressShardedFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		nSwitches = 6
		nWorkers  = 6
		perWorker = 60
	)
	ttl := time.Hour

	clk := &aclock{}
	f := newHAFleetWith(t, nSwitches, ttl, clk)
	if _, err := f.a.Activate(CauseBootstrap); err != nil {
		t.Fatal(err)
	}
	if _, err := f.a.Controller().InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	ss, err := f.a.Controller().NewShardSet(f.names, 8)
	if err != nil {
		t.Fatal(err)
	}

	// The rebindable drive target: workers read it per flush; the main
	// goroutine swaps it at failover (ShardSet.Rebind handles the
	// controller; this pointer is only for the rollover goroutine).
	var active atomic.Pointer[Replica]
	active.Store(f.a)

	stop := make(chan struct{})
	// Workers finish on their own; monitors and the rollover churn run
	// until stop — two groups, or waiting on one would deadlock the other.
	var workers, monitors sync.WaitGroup

	// Floor monitors: one per switch, sampling the device replay floor
	// directly (no wire traffic), asserting it never regresses — not
	// during load, not across the failover's lease-bumped restore.
	for _, nm := range f.names {
		monitors.Add(1)
		go func(nm string) {
			defer monitors.Done()
			sw := f.sw[nm].Host.SW
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := sw.RegisterRead(core.RegSeq, 0)
				if err == nil {
					if v < last {
						t.Errorf("%s: replay floor regressed %d -> %d", nm, last, v)
						return
					}
					last = v
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(nm)
	}

	// Rollover churn: the failover must land mid-rollover somewhere.
	monitors.Add(1)
	go func() {
		defer monitors.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			nm := f.names[i%len(f.names)]
			i++
			_, _ = active.Load().Controller().LocalKeyUpdate(nm)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Shard workers: submit + flush, tolerating the dead/fenced window
	// around the failover (those writes are counted failed and audited).
	var landed, failed atomic.Int64
	for w := 0; w < nWorkers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < perWorker; i++ {
				nm := f.names[(w+i)%len(f.names)]
				if err := ss.Submit(nm, controller.RegWrite{
					Register: "lat", Index: uint32(i % 4), Value: uint64(w<<16 | i),
				}); err != nil {
					t.Error(err)
					return
				}
				br, err := ss.FlushShard(nm)
				if err != nil {
					if !errors.Is(err, controller.ErrKilled) && !errors.Is(err, controller.ErrFenced) {
						t.Errorf("worker %d: unexpected flush error: %v", w, err)
						return
					}
					failed.Add(1)
				} else {
					landed.Add(int64(len(br.Errs) - br.Failed))
					failed.Add(int64(br.Failed))
				}
				if i%16 == 0 {
					_, _ = f.b.TailOnce()
				}
			}
		}(w)
	}

	// Mid-run: once a write has landed, kill the active, wait out the
	// lease, promote the standby, rebind the shard set. Workers keep
	// hammering throughout. Under the deadline a run that lands nothing
	// still fails below, on "no writes landed".
	for deadline := time.Now().Add(10 * time.Second); landed.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	f.a.Controller().Kill()
	clk.advance(ttl + time.Second)
	warm, _, err := f.b.Promote(CausePromoted)
	if err != nil {
		t.Fatalf("promote under load: %v", err)
	}
	for _, nm := range f.names {
		if !warm[nm] {
			t.Errorf("%s: failover under load fell back to K_seed", nm)
		}
	}
	ss.Rebind(f.b.Controller())
	active.Store(f.b)

	// Let the post-failover traffic land, then stop the churn.
	workers.Wait()
	close(stop)
	monitors.Wait()

	// A final deterministic drain through the new active must succeed.
	for _, nm := range f.names {
		if err := ss.Submit(nm, controller.RegWrite{Register: "lat", Index: 5, Value: 999}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.DrainSequential(); err != nil {
		t.Fatalf("final drain through new active: %v", err)
	}
	for _, nm := range f.names {
		v, _, err := f.b.Controller().ReadRegister(nm, "lat", 5)
		if err != nil || v != 999 {
			t.Fatalf("%s lat[5] = (%d, %v), want 999", nm, v, err)
		}
	}

	// No dangling journal intents on the new active.
	for _, nm := range f.names {
		entries, err := f.b.Controller().JournalEntries(nm)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				t.Errorf("dangling intent after failover: %s", e.Dump())
			}
		}
	}

	// Audit completeness across the whole run, both replicas.
	m, a := f.ob.Metrics, f.ob.Audit
	if a.Evicted() > 0 {
		t.Fatalf("audit ring evicted %d events", a.Evicted())
	}
	if drops, n := m.Counter("ctl.write_dropped").Load(), uint64(len(a.ByType(obs.EvWriteDropped))); drops != n {
		t.Errorf("%d dropped writes counted, %d audited", drops, n)
	}
	if bumps, n := m.Counter("ctl.floor_bumps").Load(), uint64(len(a.ByType(obs.EvFloorBump))); bumps != n {
		t.Errorf("%d floor bumps counted, %d audited", bumps, n)
	}
	fenced := m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if n := uint64(len(a.ByType(obs.EvFencedWrite))); n != fenced {
		t.Errorf("%d fencing refusals counted, %d audited", fenced, n)
	}
	if got := m.Counter("ha.failovers").Load(); got != 2 {
		t.Errorf("ha.failovers = %d, want 2 (bootstrap + promotion)", got)
	}
	t.Logf("landed=%d failed=%d fenced=%d floor_bumps=%d",
		landed.Load(), failed.Load(), fenced, m.Counter("ctl.floor_bumps").Load())
	if landed.Load() == 0 {
		t.Error("no writes landed at all")
	}
}
