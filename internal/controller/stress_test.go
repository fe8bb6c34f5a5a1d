package controller

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
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

// TestBatchAllocBudget gates the windowed path: once the handle's window
// scratch is warm, a 32-entry batch allocates only the two result slices
// it hands to the caller (BatchResult.Errs and Values), whether or not a
// control tap sits on the channel.
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	const budget = 2
	passThrough := func(d []byte) []byte { return d }
	for _, tapped := range []bool{false, true} {
		c, _, _ := twoSwitchFabric(t)
		if _, err := c.LocalKeyInit("s1"); err != nil {
			t.Fatal(err)
		}
		if tapped {
			if err := c.SetControlTaps("s1", passThrough, passThrough); err != nil {
				t.Fatal(err)
			}
		}
		writes := make([]RegWrite, 32)
		reads := make([]RegRead, 32)
		i := uint64(0)
		write := func() {
			i++
			for j := range writes {
				writes[j] = RegWrite{Register: "lat", Index: uint32(j % 8), Value: i<<8 | uint64(j)}
			}
			if _, err := c.WriteRegisterBatch("s1", 32, writes); err != nil {
				t.Fatal(err)
			}
		}
		read := func() {
			for j := range reads {
				reads[j] = RegRead{Register: "lat", Index: uint32(j % 8)}
			}
			if _, err := c.ReadRegisterBatch("s1", 32, reads); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 8; k++ { // warm the window scratch and response cache
			write()
			read()
		}
		for _, op := range []struct {
			name string
			run  func()
		}{{"WriteRegisterBatch", write}, {"ReadRegisterBatch", read}} {
			if got := testing.AllocsPerRun(100, op.run); got > budget {
				t.Errorf("%s at window 32 (tapped %v): %.1f allocs/op, budget %d", op.name, tapped, got, budget)
			}
		}
	}
}

// TestRolloverAllocBudget gates the KMP legs on the handle's scratch,
// under both digesters, single-shot and under the resilient policy, whose
// confirming reads run in the same scratch. Once warm, a local-key
// rollover allocates only what the key store publishes when it installs
// the new key, and a port-key rollover, whose key the controller never
// sees, allocates nothing.
func TestRolloverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	for _, pol := range []RetryPolicy{DefaultRetryPolicy, ResilientRetryPolicy()} {
		for _, d := range kmpDigests {
			c, _ := kmpFabric(t, 1, d.kind)
			c.SetRetryPolicy(pol)
			if _, err := c.InitAllKeys(); err != nil {
				t.Fatal(err)
			}
			for _, op := range []struct {
				name   string
				budget float64
				run    func() (KMPResult, error)
			}{
				{"LocalKeyUpdate", 2, func() (KMPResult, error) { return c.LocalKeyUpdate("s1") }},
				{"PortKeyUpdate", 0, func() (KMPResult, error) { return c.PortKeyUpdate("s1", kmpLinkPort) }},
			} {
				// Warm the handle's scratch and fill every slot of the
				// agent's reply cache.
				for i := 0; i < switchos.DefaultResponseCacheSize+8; i++ {
					if _, err := op.run(); err != nil {
						t.Fatal(err)
					}
				}
				got := testing.AllocsPerRun(100, func() {
					if _, err := op.run(); err != nil {
						t.Fatal(err)
					}
				})
				if got > op.budget {
					t.Errorf("%s (%s, %d attempts): %.1f allocs/op, budget %.0f",
						op.name, d.name, pol.MaxAttempts, got, op.budget)
				}
			}
		}
	}
}

// TestConcurrentBatchesVsRollover runs two batch clients on each of two
// linked switches, each writing and reading back its own half of the
// register, while one goroutine rolls s1's local key over and another its
// port key until they finish. The window scratch is the handle's, shared
// by both of a switch's clients under opMu, and each port rollover relays
// through the handle's relay scratch into s2 while s2's clients run: every
// value must read back as written, and with crash safety on no intent
// survives a live settle. The clients run at least their rounds and go on
// until each roller has finished two rollovers beside them, however the
// goroutines are scheduled; a deadline fails the test instead.
func TestConcurrentBatchesVsRollover(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			c, _, _ := twoSwitchFabric(t)
			if _, err := c.InitAllKeys(); err != nil {
				t.Fatal(err)
			}
			if durable {
				if err := c.EnableCrashSafety(statestore.NewMem()); err != nil {
					t.Fatal(err)
				}
			}
			const rounds = 200
			// rolled counts each roller's finished rollovers; a roller that
			// failed has reported it and is waited for no longer.
			var rolled [2]atomic.Int64
			var rollerFailed atomic.Bool
			rolledBeside := func() bool {
				return rollerFailed.Load() || rolled[0].Load() >= 2 && rolled[1].Load() >= 2
			}
			deadline := time.Now().Add(time.Minute)
			var wg sync.WaitGroup
			for _, sw := range []string{"s1", "s2"} {
				for d := 0; d < 2; d++ {
					wg.Add(1)
					go func(sw string, d int) {
						defer wg.Done()
						writes := make([]RegWrite, 12)
						reads := make([]RegRead, len(writes))
						for r := 0; r < rounds || !rolledBeside(); r++ {
							if time.Now().After(deadline) {
								t.Errorf("%s client %d: rollers finished %d and %d rollovers in %d rounds", sw, d, rolled[0].Load(), rolled[1].Load(), r)
								return
							}
							for j := range writes {
								idx := uint32(4*d + j%4)
								writes[j] = RegWrite{Register: "lat", Index: idx, Value: uint64(d<<20 | r<<4 | j%4)}
								reads[j] = RegRead{Register: "lat", Index: idx}
							}
							if _, err := c.WriteRegisterBatch(sw, 8, writes); err != nil {
								t.Errorf("%s client %d round %d: write: %v", sw, d, r, err)
								return
							}
							br, err := c.ReadRegisterBatch(sw, 8, reads)
							if err != nil {
								t.Errorf("%s client %d round %d: read: %v", sw, d, r, err)
								return
							}
							for j, v := range br.Values {
								if want := uint64(d<<20 | r<<4 | j%4); v != want {
									t.Errorf("%s client %d round %d: lat[%d] = %#x, want %#x", sw, d, r, reads[j].Index, v, want)
									return
								}
							}
						}
					}(sw, d)
				}
			}
			// The rollovers run for as long as the clients do.
			var stop atomic.Bool
			var rollers sync.WaitGroup
			for i, roll := range []struct {
				name string
				run  func() (KMPResult, error)
			}{
				{"local rollover", func() (KMPResult, error) { return c.LocalKeyUpdate("s1") }},
				{"port rollover", func() (KMPResult, error) { return c.PortKeyUpdate("s1", 1) }},
			} {
				rollers.Add(1)
				go func() {
					defer rollers.Done()
					r := 0
					for ; !stop.Load(); r++ {
						if _, err := roll.run(); err != nil {
							t.Errorf("%s %d: %v", roll.name, r, err)
							rollerFailed.Store(true)
							break
						}
						rolled[i].Add(1)
					}
					if r < 2 {
						t.Errorf("%d %ss ran beside the clients, want several", r, roll.name)
					}
				}()
			}
			wg.Wait()
			stop.Store(true)
			rollers.Wait()
			if !durable {
				return
			}
			// Every batch landed, so every settle deleted its record: an
			// intent (or any record) left behind is a settle that lost
			// its entries.
			for _, sw := range []string{"s1", "s2"} {
				if entries, err := c.JournalEntries(sw); err != nil || len(entries) != 0 {
					t.Fatalf("%s: %d journal entries left after live settles (err %v): %+v", sw, len(entries), err, entries)
				}
			}
		})
	}
}

// journalLog is a store that checks each journal record as it is saved:
// it must decode (a record encoded into a buffer another writer shares
// would not) and its key must be new (ids are unique across switches).
type journalLog struct {
	statestore.Store
	mu   sync.Mutex
	keys map[string]bool
	bad  []string
}

func (l *journalLog) Save(key string, value []byte) error {
	l.mu.Lock()
	if strings.HasPrefix(key, "wal/") {
		if _, err := core.DecodeJournalEntry(value); err != nil {
			l.bad = append(l.bad, fmt.Sprintf("%s: %v", key, err))
		}
		if l.keys[key] {
			l.bad = append(l.bad, key+": saved twice")
		}
		l.keys[key] = true
	}
	l.mu.Unlock()
	return l.Store.Save(key, value)
}

// TestConcurrentJournaledWrites runs journaled writers on two switches,
// two per switch, at once: every intent is whole and has its own key, and
// every one is settled.
func TestConcurrentJournaledWrites(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	st := &journalLog{Store: statestore.NewMem(), keys: map[string]bool{}}
	if err := c.EnableCrashSafety(st); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	const writers, writes = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := []string{"s1", "s2"}[w%2]
			for i := 0; i < writes; i++ {
				if _, err := c.WriteRegister(sw, "lat", uint32(i%8), uint64(w<<16|i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(st.bad) > 0 {
		t.Fatalf("%d bad journal saves, first: %s", len(st.bad), st.bad[0])
	}
	if len(st.keys) != writers*writes {
		t.Fatalf("%d journal keys saved, want %d", len(st.keys), writers*writes)
	}
	for _, sw := range []string{"s1", "s2"} {
		if left, err := c.JournalEntries(sw); err != nil || len(left) != 0 {
			t.Fatalf("%s: %d journal entries left (err %v), want 0", sw, len(left), err)
		}
	}
}

// TestDurableWriteAllocs gates the journaled write the same way. Its
// budget is the two allocations the store contract leaves: the record's
// key, which the store keeps until the settle deletes it, and Mem.Save's
// copy of the record bytes. Key and record are otherwise built in place.
func TestDurableWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	const budget = 2
	c, _, _ := twoSwitchFabric(t)
	if err := c.EnableCrashSafety(statestore.NewMem()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // warm scratch, journal buffer, response cache
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
	if got > budget {
		t.Errorf("journaled WriteRegister: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestRolloverSoakAcrossTheWrap rolls one link's keys over 1000 times, so
// the 8-bit version tags on it (pa_ver and the key store's low byte) wrap
// three times: s1's local key and the s1-s2 port key, one rollover of each
// per round. Every local rollover must commit at the next epoch, and both
// ends of the link must hold the same port key at the same tag. Then s1
// warm-reboots from a snapshot taken one local rollover before a wrap, and
// the controller's revival rolls its key store back across the wrap, to
// the key of tag 255, which must carry an authenticated write.
func TestRolloverSoakAcrossTheWrap(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	h := c.cfg.Load().switches["s1"]
	epoch := func() uint32 {
		e, err := h.keys.Epoch(core.KeyIndexLocal)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	portKey := func(sw *deploy.Switch) (ver, key uint64) {
		ver, err := sw.Host.SW.RegisterRead(core.RegVer, kmpLinkPort)
		if err != nil {
			t.Fatal(err)
		}
		reg := core.RegKeysV0
		if ver&1 == 1 {
			reg = core.RegKeysV1
		}
		if key, err = sw.Host.SW.RegisterRead(reg, kmpLinkPort); err != nil {
			t.Fatal(err)
		}
		return ver, key
	}
	const rollovers = 1000
	for i := 0; i < rollovers; i++ {
		before := epoch()
		if _, err := c.LocalKeyUpdate("s1"); err != nil {
			t.Fatalf("local rollover %d (epoch %d): %v", i, before, err)
		}
		if got := epoch(); got != before+1 {
			t.Fatalf("local rollover %d: epoch %d -> %d", i, before, got)
		}
		if _, err := c.PortKeyUpdate("s1", kmpLinkPort); err != nil {
			t.Fatalf("port rollover %d: %v", i, err)
		}
		v1, k1 := portKey(s1)
		v2, k2 := portKey(s2)
		if v1 != v2 || k1 != k2 {
			t.Fatalf("port rollover %d: s1 has tag %d key %#x, s2 tag %d key %#x", i, v1, k1, v2, k2)
		}
	}
	if epoch() < 3*256 {
		t.Fatalf("epoch %d after %d rollovers: the tag did not wrap three times", epoch(), rollovers)
	}
	assertLocalKeySync(t, c, s1, "s1")

	// One rollover short of the next wrap, snapshot s1, roll to tag 0 and
	// warm-reboot s1 from the stale snapshot.
	for epoch()%256 != 255 {
		if _, err := c.LocalKeyUpdate("s1"); err != nil {
			t.Fatal(err)
		}
	}
	stale := epoch()
	if err := s1.SaveState(store, "dev/s1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	if warm, err := s1.RebootFromStore(store, "dev/s1"); err != nil || !warm {
		t.Fatalf("warm=%v err=%v", warm, err)
	}
	if warm, err := c.ReviveSwitch("s1"); err != nil || !warm {
		t.Fatalf("ReviveSwitch across the wrap: warm=%v err=%v", warm, err)
	}
	if got := epoch(); got != stale {
		t.Fatalf("revival left epoch %d, want %d (rolled back across the wrap)", got, stale)
	}
	assertLocalKeySync(t, c, s1, "s1")
	if _, err := c.WriteRegister("s1", "lat", 2, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
}
