package controller

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/statestore"
)

// TestPipelinedWritersUnderConcurrentRolloverStress is the -race stress
// suite for the windowed transport: one pipelined writer per switch runs
// batches against concurrent local-key rollovers on the same switches,
// through lossy/reordering/corrupting control taps, with group-commit
// journaling on. Invariants checked:
//
//   - per-entry exactly-once-or-failed journal settlement: after the run
//     no WriteIntent survives in the store (live settles always resolve);
//   - the data plane's replay floor (pa_seq[0], the C-DP stream of the
//     local key slot) is monotone non-decreasing throughout;
//   - every batch entry either landed (value readable) or reported an
//     error — no silent loss.
func TestPipelinedWritersUnderConcurrentRolloverStress(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	for _, sw := range []string{"s1", "s2"} {
		if _, err := c.LocalKeyInit(sw); err != nil {
			t.Fatal(err)
		}
	}
	st := statestore.NewMem()
	if err := c.EnableCrashSafety(st); err != nil {
		t.Fatal(err)
	}
	pol := ResilientRetryPolicy()
	pol.MaxAttempts = 12
	c.SetRetryPolicy(pol)
	// s1 gets loss + occasional corruption, s2 gets reordering — the two
	// failure modes stress different paths (retransmit-same-bytes vs
	// replay-alert re-sign).
	if err := c.SetControlTaps("s1",
		netsim.LossTap(0.05, 0x51), netsim.CorruptTap(23, 0x52)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetControlTaps("s2", netsim.ReorderTap(), nil); err != nil {
		t.Fatal(err)
	}

	const (
		batches   = 6
		perBatch  = 8
		rollovers = 4
	)
	hosts := map[string]interface {
		RegisterRead(string, int) (uint64, error)
	}{"s1": s1.Host.SW, "s2": s2.Host.SW}

	var wg, wgMon sync.WaitGroup
	var stop atomic.Bool
	errCh := make(chan error, 16)

	// Floor monitors: sample the DP replay floor and assert monotonicity.
	// They run until the workers finish (separate WaitGroup).
	for name, sw := range hosts {
		wgMon.Add(1)
		go func(name string, sw interface {
			RegisterRead(string, int) (uint64, error)
		}) {
			defer wgMon.Done()
			var last uint64
			for !stop.Load() {
				floor, err := sw.RegisterRead(core.RegSeq, 0)
				if err != nil {
					errCh <- err
					return
				}
				if floor < last {
					errCh <- errors.New(name + ": replay floor moved backwards")
					return
				}
				last = floor
				// Yield between samples: a hot spin starves the writers on
				// small GOMAXPROCS.
				time.Sleep(200 * time.Microsecond)
			}
		}(name, sw)
	}

	// Pipelined writers: one per switch.
	for _, sw := range []string{"s1", "s2"} {
		wg.Add(1)
		go func(sw string) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				writes := make([]RegWrite, perBatch)
				for i := range writes {
					idx := uint32((b*perBatch + i) % 8)
					writes[i] = RegWrite{Register: "lat", Index: idx, Value: uint64(10_000 + idx)}
				}
				br, err := c.WriteRegisterBatch(sw, 4, writes)
				if err != nil {
					// Per-entry failures under injected faults are legal;
					// what is not legal is a result that does not account
					// for every entry.
					if len(br.Errs) != perBatch {
						errCh <- errors.New(sw + ": batch result does not cover all entries")
						return
					}
				}
			}
		}(sw)
	}

	// Concurrent KMP rollovers on both switches.
	for _, sw := range []string{"s1", "s2"} {
		wg.Add(1)
		go func(sw string) {
			defer wg.Done()
			for i := 0; i < rollovers; i++ {
				if _, err := c.LocalKeyUpdate(sw); err != nil {
					errCh <- err
					return
				}
			}
		}(sw)
	}

	wg.Wait()        // writers and rollovers
	stop.Store(true) // release the monitors
	wgMon.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// Exactly-once-or-failed: a live run settles every journal record —
	// intents only survive crashes.
	for _, sw := range []string{"s1", "s2"} {
		entries, err := c.JournalEntries(sw)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				t.Fatalf("%s: journal intent survived a live settle: %+v", sw, e)
			}
		}
	}
}

// TestObserversVsConcurrentRegister: the read-only accessors are promised
// safe beside in-flight operations, and Register is one of those (a
// fleet grows while the operator's dashboard polls it).
func TestObserversVsConcurrentRegister(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	var late []*deploy.Switch
	for _, name := range []string{"s3", "s4", "s5", "s6"} {
		late = append(late, buildSwitch(t, name, false))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	polling := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := c.Outstanding("s1"); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.HealthOf("s1"); err != nil {
				t.Error(err)
				return
			}
			_ = c.Stats()
			if i == 0 {
				close(polling)
			}
		}
	}()
	<-polling
	for i, sw := range late {
		if err := c.Register(fmt.Sprintf("s%d", i+3), sw.Host, sw.Cfg, 0); err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestWriteRegisterAllocBudget gates the end-to-end hot path: a serial
// authenticated write through the scratch-based engine must not allocate
// in steady state.
func TestWriteRegisterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // warm scratch + agent response cache
		if _, err := c.WriteRegister("s1", "lat", uint32(i%8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	i := uint64(64)
	got := testing.AllocsPerRun(200, func() {
		i++
		if _, err := c.WriteRegister("s1", "lat", uint32(i%8), i); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("WriteRegister: %.1f allocs/op, budget 0", got)
	}
}
