package controller

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/statestore"
)

// crashSafeFabric builds the two-switch fabric with resilient retries and
// a shared durable store attached.
func crashSafeFabric(t *testing.T) (*Controller, *deploy.Switch, *deploy.Switch, *statestore.Mem) {
	t.Helper()
	c, s1, s2 := twoSwitchFabric(t)
	c.SetRetryPolicy(ResilientRetryPolicy())
	store := statestore.NewMem()
	if err := c.EnableCrashSafety(store); err != nil {
		t.Fatal(err)
	}
	return c, s1, s2, store
}

// rebuildController models a controller process restart: a brand-new
// Controller (empty key state, fresh rng) registered against the same
// switches and attached to the same store the dead process was using.
func rebuildController(t *testing.T, s1, s2 *deploy.Switch, store statestore.Store, rngSeed uint64) *Controller {
	t.Helper()
	c := New(crypto.NewSeededRand(rngSeed))
	c.SetRetryPolicy(ResilientRetryPolicy())
	if err := c.Register("s1", s1.Host, s1.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("s2", s2.Host, s2.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCrashSafety(store); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmRestartZeroSeedUses is the headline acceptance test: after a
// controller crash, recovery from a valid snapshot completes without a
// single K_seed derivation.
func TestWarmRestartZeroSeedUses(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	// A few rollovers so the surviving state is far from the seed.
	for i := 0; i < 3; i++ {
		if _, err := c.LocalKeyUpdate("s1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WriteRegister("s1", "lat", 3, 777); err != nil {
		t.Fatal(err)
	}
	c.Kill()
	if _, _, err := c.ReadRegister("s1", "lat", 3); !errors.Is(err, ErrKilled) {
		t.Fatalf("dead controller must fail with ErrKilled, got %v", err)
	}

	c2 := rebuildController(t, s1, s2, store, 777)
	warm, err := c2.RecoverAll()
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	for _, sw := range []string{"s1", "s2"} {
		if !warm[sw] {
			t.Fatalf("%s: expected warm restart", sw)
		}
		if n := c2.SeedUses(sw); n != 0 {
			t.Fatalf("%s: warm restart used K_seed %d times, want 0", sw, n)
		}
	}
	assertLocalKeySync(t, c2, s1, "s1")
	assertLocalKeySync(t, c2, s2, "s2")
	if v, _, err := c2.ReadRegister("s1", "lat", 3); err != nil || v != 777 {
		t.Fatalf("post-recovery read: %d, %v", v, err)
	}
	if _, err := c2.WriteRegister("s2", "lat", 1, 42); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

// TestWarmRestartHealsStaleSeqCounter: sequence numbers issued after the
// last snapshot are burned on the switch; the restored controller resumes
// below the switch's floor and must heal via replay-alert skip-ahead, not
// by ever getting a stale number accepted.
func TestWarmRestartHealsStaleSeqCounter(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// Snapshot is now at the post-init seq; burn far past it.
	for i := 0; i < 40; i++ {
		if _, err := c.WriteRegister("s1", "lat", 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	floorBefore, err := s1.Host.SW.RegisterRead(core.RegSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Kill()

	c2 := rebuildController(t, s1, s2, store, 888)
	warmMap, err := c2.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if !warmMap["s1"] {
		t.Fatal("expected warm restart for s1")
	}
	if n := c2.SeedUses("s1"); n != 0 {
		t.Fatalf("seed used %d times", n)
	}
	// The replay floor must never have regressed.
	floorAfter, err := s1.Host.SW.RegisterRead(core.RegSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if floorAfter < floorBefore {
		t.Fatalf("replay floor regressed: %d -> %d", floorBefore, floorAfter)
	}
	if _, err := c2.WriteRegister("s1", "lat", 0, 4096); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if v, _, err := c2.ReadRegister("s1", "lat", 0); err != nil || v != 4096 {
		t.Fatalf("post-recovery read: %d, %v", v, err)
	}
}

// TestJournalAppliedIntentSettlesByReadBack: the write lands on the
// switch, then the controller dies before learning it. The surviving
// intent must settle as applied (by read-back), not be doubled or lost.
func TestJournalAppliedIntentSettlesByReadBack(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// The response to the write is dropped and the controller dies at
	// that instant: the switch applied the write, the journal still says
	// intent.
	if err := c.SetControlTaps("s1", nil, func(p []byte) []byte {
		c.Kill()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 5, 31337); !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled mid-write, got %v", err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 5); v != 31337 {
		t.Fatalf("write should have landed on the switch, register=%d", v)
	}
	entries, err := c.JournalEntries("s1")
	if err != nil || len(entries) != 1 || entries[0].State != core.WriteIntent {
		t.Fatalf("want one surviving intent, got %v (err=%v)", entries, err)
	}

	c2 := rebuildController(t, s1, s2, store, 999)
	if _, err := c2.WarmRestart("s1"); err != nil {
		t.Fatal(err)
	}
	if entries, _ := c2.JournalEntries("s1"); len(entries) != 0 {
		t.Fatalf("journal not settled: %v", entries)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 5); v != 31337 {
		t.Fatalf("recovered value %d", v)
	}
}

// TestJournalLostIntentIsRedriven: the controller dies before the request
// reaches the switch. Recovery finds the intent, sees the value missing,
// and re-drives the write exactly once.
func TestJournalLostIntentIsRedriven(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetControlTaps("s1", func(p []byte) []byte {
		c.Kill()
		return nil // request never reaches the switch
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 6, 555); err == nil {
		t.Fatal("write during crash must fail")
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 6); v != 0 {
		t.Fatalf("write must not have landed, register=%d", v)
	}

	c2 := rebuildController(t, s1, s2, store, 1000)
	if _, err := c2.WarmRestart("s1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 6); v != 555 {
		t.Fatalf("journaled write not re-driven: register=%d", v)
	}
	if entries, _ := c2.JournalEntries("s1"); len(entries) != 0 {
		t.Fatalf("journal not settled: %v", entries)
	}
}

// TestJournalAliveTimeoutMarksFailed: a write that exhausts its budget
// while the controller is alive is settled as failed — it must NOT be
// re-driven by a later recovery (the caller was already told it failed).
func TestJournalAliveTimeoutMarksFailed(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetControlTaps("s1", func(p []byte) []byte { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 7, 9999); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	entries, err := c.JournalEntries("s1")
	if err != nil || len(entries) != 1 || entries[0].State != core.WriteFailed {
		t.Fatalf("want one failed entry, got %v (err=%v)", entries, err)
	}
	if err := c.SetControlTaps("s1", nil, nil); err != nil {
		t.Fatal(err)
	}

	c2 := rebuildController(t, s1, s2, store, 1001)
	if _, err := c2.WarmRestart("s1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 7); v != 0 {
		t.Fatalf("failed write was resurrected: register=%d", v)
	}
	// The failed entry stays on record for the operator.
	entries, _ = c2.JournalEntries("s1")
	if len(entries) != 1 || entries[0].State != core.WriteFailed {
		t.Fatalf("failed entry lost: %v", entries)
	}
}

// TestJournalRetiredFormatKeptAsUndecodable: a record in the retired
// single-write layout ("PAWJ") reads like a torn record: recovery reports
// it, leaves it in the store as it was for the operator and re-drives
// nothing.
func TestJournalRetiredFormatKeptAsUndecodable(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// id 1, intent, s1: lat[4] <- 0x99, then the CRC32 of all of it.
	b := binary.BigEndian.AppendUint32(nil, 0x5041574A)
	b = append(b, 1)
	b = binary.BigEndian.AppendUint64(b, 1)
	b = append(b, byte(core.WriteIntent), 0, 2, 's', '1', 0, 3, 'l', 'a', 't')
	b = binary.BigEndian.AppendUint32(b, 4)
	b = binary.BigEndian.AppendUint64(b, 0x99)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	key := walKey("s1", 1)
	if err := store.Save(key, b); err != nil {
		t.Fatal(err)
	}
	c2 := rebuildController(t, s1, s2, store, 1002)
	if warm, err := c2.WarmRestart("s1"); !warm || err == nil {
		t.Fatalf("WarmRestart: warm=%v err=%v, want warm and the record reported", warm, err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 4); v != 0 {
		t.Fatalf("retired record re-driven: lat[4] = %#x", v)
	}
	if got, err := store.Load(key); err != nil || string(got) != string(b) {
		t.Fatalf("retired record not kept as it was (err %v)", err)
	}
	// The operator's view lists the record recovery keeps reporting.
	entries, err := c2.JournalEntries("s1")
	if err != nil || len(entries) != 1 || entries[0].ID != 1 || entries[0].State != core.WriteTorn {
		t.Fatalf("JournalEntries = %+v, %v; want the record as one torn entry with ID 1", entries, err)
	}
}

// TestSwitchWarmRebootBehindOneRollover: the switch warm-reboots from a
// snapshot taken before the last rollover. The controller discovers the
// drift, drops its newest key, and reconverges without the seed.
func TestSwitchWarmRebootBehindOneRollover(t *testing.T) {
	c, s1, _, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveState(store, "dev/s1", 1); err != nil {
		t.Fatal(err)
	}
	// Roll after the snapshot: the snapshot is now one rollover stale.
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	if warm, err := s1.RebootFromStore(store, "dev/s1"); err != nil || !warm {
		t.Fatalf("warm=%v err=%v", warm, err)
	}
	warm, err := c.ReviveSwitch("s1")
	if err != nil {
		t.Fatalf("ReviveSwitch: %v", err)
	}
	if !warm {
		t.Fatal("expected warm revival via rollback repair")
	}
	if n := c.SeedUses("s1"); n != 1 { // only the original init
		t.Fatalf("seed uses = %d, want 1", n)
	}
	assertLocalKeySync(t, c, s1, "s1")
	if _, err := c.WriteRegister("s1", "lat", 2, 11); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchColdRebootFallsBackToReseed: a cold-booted switch has only
// K_seed; revival must detect the unusable state and reinitialize.
func TestSwitchColdRebootFallsBackToReseed(t *testing.T) {
	c, s1, _, _ := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.LocalKeyUpdate("s1"); err != nil {
			t.Fatal(err)
		}
	}
	base := c.SeedUses("s1")
	s1.Crash()
	if err := s1.Reboot(nil); err != nil {
		t.Fatal(err)
	}
	warm, err := c.ReviveSwitch("s1")
	if err != nil {
		t.Fatalf("ReviveSwitch after cold boot: %v", err)
	}
	if warm {
		t.Fatal("cold boot must not be reported warm")
	}
	if n := c.SeedUses("s1"); n != base+1 {
		t.Fatalf("re-seed must use K_seed exactly once more: %d -> %d", base, n)
	}
	assertLocalKeySync(t, c, s1, "s1")
	if _, err := c.WriteRegister("s1", "lat", 2, 22); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartSurvivesFileStore runs the controller-crash recovery
// through the file-backed store: what lands on disk is sufficient.
func TestWarmRestartSurvivesFileStore(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	c.SetRetryPolicy(ResilientRetryPolicy())
	store, err := statestore.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCrashSafety(store); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 1, 123); err != nil {
		t.Fatal(err)
	}
	c.Kill()

	c2 := rebuildController(t, s1, s2, store, 555)
	warm, err := c2.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if !warm["s1"] || !warm["s2"] {
		t.Fatalf("expected warm restarts, got %v", warm)
	}
	if v, _, err := c2.ReadRegister("s1", "lat", 1); err != nil || v != 123 {
		t.Fatalf("read through recovered channel: %d, %v", v, err)
	}
}

// TestCorruptSnapshotDegradesToReseed: a torn controller snapshot must be
// rejected by the codec and recovery must fall back to EAK, never restore
// garbage keys.
func TestCorruptSnapshotDegradesToReseed(t *testing.T) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	b, err := store.Load("ctl/s1")
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := store.Save("ctl/s1", b); err != nil {
		t.Fatal(err)
	}
	c.Kill()

	c2 := rebuildController(t, s1, s2, store, 666)
	warm, err := c2.WarmRestart("s1")
	if err != nil {
		t.Fatalf("recovery with corrupt snapshot: %v", err)
	}
	if warm {
		t.Fatal("corrupt snapshot must not produce a warm restart")
	}
	if n := c2.SeedUses("s1"); n != 1 {
		t.Fatalf("re-seed uses = %d, want 1", n)
	}
	assertLocalKeySync(t, c2, s1, "s1")
}

// TestBackoffEdgeCases covers the deterministic backoff schedule's
// boundary behaviour (satellite of the crash-safety PR).
func TestBackoffEdgeCases(t *testing.T) {
	base := 100 * time.Microsecond
	pol := RetryPolicy{MaxAttempts: 6, BaseBackoff: base, MaxBackoff: 2 * time.Millisecond}
	cases := []struct {
		name string
		pol  RetryPolicy
		att  int
		want time.Duration
	}{
		{"attempt0", pol, 0, 0},
		{"attempt1-first-send", pol, 1, 0},
		{"attempt2-base", pol, 2, base},
		{"attempt3-doubled", pol, 3, 2 * base},
		{"attempt6-doubling", pol, 6, 16 * base},
		{"attempt7-capped", pol, 7, 2 * time.Millisecond},
		{"huge-attempt-capped", pol, 1 << 20, 2 * time.Millisecond},
		{"zero-policy", RetryPolicy{}, 5, 0},
		{"negative-attempt", pol, -3, 0},
		{"no-cap-saturates", RetryPolicy{BaseBackoff: base}, 1 << 20, time.Duration(1<<63 - 1)},
		{"cap-below-base", RetryPolicy{BaseBackoff: base, MaxBackoff: base / 2}, 2, base / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.pol.backoff(tc.att)
			if got != tc.want {
				t.Fatalf("backoff(%d) = %v, want %v", tc.att, got, tc.want)
			}
			if got < 0 {
				t.Fatalf("backoff(%d) went negative: %v", tc.att, got)
			}
			if again := tc.pol.backoff(tc.att); again != got {
				t.Fatalf("backoff not deterministic: %v then %v", got, again)
			}
		})
	}
}

// TestObservabilityRaces exercises the concurrent-read contract under the
// race detector: observability accessors, tap installation, and persist
// configuration must all be safe against an in-flight operation.
func TestObservabilityRaces(t *testing.T) {
	c, _, _, _ := crashSafeFabric(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c.HealthOf("s1")
			_ = c.Stats()
			_ = c.Alerts()
			_, _ = c.Outstanding("s1")
			_ = c.KeyEstablished("s2")
			_ = c.CheckDoS(1)
			_ = c.SeedUses("s1")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Install and clear taps while exchanges are in flight.
			if i%2 == 0 {
				_ = c.SetControlTaps("s1", func(p []byte) []byte { return p }, nil)
			} else {
				_ = c.SetControlTaps("s1", nil, nil)
			}
		}
	}()
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.WriteRegister("s1", "lat", uint32(i%8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
