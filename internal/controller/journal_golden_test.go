package controller

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"p4auth/internal/deploy"
	"p4auth/internal/obs"
)

// Golden for journal recovery: what a fresh controller over the same
// store makes of the records a crashed (or live-failed) journaled write
// left behind, for the serial write and for 3-write batches at windows 1
// and 8. It prints outcomes only — warmth, the ctl.wal_* counters, the
// WAL settle events, register values and the JournalEntries view — never
// record bytes, so a change to the record format must leave it
// byte-identical.
//
// Regenerate (reviewed behaviour changes only) with:
//
//	GOLDEN_UPDATE=1 go test -run TestJournalRecoveryGolden ./internal/controller/
const journalGoldenPath = "testdata/journal_recovery.golden"

// journalCrash is one crash point. The controller is killed at the
// killOut-th request or the killIn-th response crossing the control
// channel, and the packet carrying the kill is lost with it. bogus names
// an unknown register in the middle write, timeout blackholes the
// channel, and torn cuts the surviving record short before recovery.
type journalCrash struct {
	name            string
	killOut, killIn int
	bogus, timeout  bool
	torn            bool
}

var journalCrashes = []journalCrash{
	{name: "lost", killOut: 1},       // intent saved, request never sent
	{name: "applied", killIn: 1},     // request applied, response lost
	{name: "timeout", timeout: true}, // a definite failure settled live
	{name: "bogus", bogus: true},     // a definite failure settled live
	{name: "torn", killOut: 1, torn: true},
}

// journalPaths are the write paths: window 0 is the serial WriteRegister.
var journalPaths = []int{0, 1, 8}

// killTaps returns control taps that kill c at the at-th packet of their
// direction (0: never) and drop that packet; drop drops every request.
func killTaps(c *Controller, killOut, killIn int, drop bool) (out, in func([]byte) []byte) {
	var nOut, nIn int
	out = func(p []byte) []byte {
		nOut++
		if nOut == killOut {
			c.Kill()
			return nil
		}
		if drop {
			return nil
		}
		return p
	}
	in = func(p []byte) []byte {
		nIn++
		if nIn == killIn {
			c.Kill()
			return nil
		}
		return p
	}
	return out, in
}

// journalWALReport prints a controller's ctl.wal_* counters and its WAL
// settle events.
func journalWALReport(b *strings.Builder, label string, c *Controller) {
	ctrs := c.Observer().Metrics.Snapshot().Counters
	names := make([]string, 0, len(ctrs))
	for name := range ctrs {
		if strings.HasPrefix(name, "ctl.wal_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(b, " %s counters", label)
	for _, name := range names {
		fmt.Fprintf(b, " %s=%d", strings.TrimPrefix(name, "ctl."), ctrs[name])
	}
	fmt.Fprintf(b, "\n %s settles", label)
	for _, e := range c.Observer().Audit.Events() {
		if e.Type == obs.EvWALSettle {
			fmt.Fprintf(b, " %s/%s:%d", e.Actor, e.Cause, e.Value)
		}
	}
	b.WriteByte('\n')
}

func journalGoldenRun(t *testing.T, b *strings.Builder, window int, cr journalCrash) {
	c, s1, s2, store := crashSafeFabric(t)
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	writes := []RegWrite{{"lat", 1, 0x11}, {"lat", 2, 0x22}, {"lat", 3, 0x33}}
	if window == 0 {
		writes = writes[1:2]
	}
	if cr.bogus {
		writes[len(writes)/2].Register = "bogus"
	}
	out, in := killTaps(c, cr.killOut, cr.killIn, cr.timeout)
	if err := c.SetControlTaps("s1", out, in); err != nil {
		t.Fatal(err)
	}
	var err error
	if window == 0 {
		_, err = c.WriteRegister("s1", writes[0].Register, writes[0].Index, writes[0].Value)
	} else {
		_, err = c.WriteRegisterBatch("s1", window, writes)
	}
	fmt.Fprintf(b, "== window=%d crash=%s err=%s killed=%v\n", window, cr.name, causeOf(err), c.Killed())
	journalWALReport(b, "live", c)
	if cr.torn {
		keys, kerr := store.Keys("wal/")
		if kerr != nil {
			t.Fatal(kerr)
		}
		for _, k := range keys {
			rec, lerr := store.Load(k)
			if lerr != nil {
				t.Fatal(lerr)
			}
			if err := store.Save(k, rec[:len(rec)-3]); err != nil {
				t.Fatal(err)
			}
		}
	}

	c2 := rebuildController(t, s1, s2, store, 4242)
	warm, rerr := c2.RecoverAll()
	fmt.Fprintf(b, " recover warm s1=%v s2=%v err=%v\n", warm["s1"], warm["s2"], rerr != nil)
	journalWALReport(b, "recovered", c2)
	for _, sw := range []struct {
		name string
		dev  *deploy.Switch
	}{{"s1", s1}, {"s2", s2}} {
		vals := make([]string, 8)
		for i := range vals {
			v, _ := sw.dev.Host.SW.RegisterRead("lat", i)
			vals[i] = fmt.Sprintf("%x", v)
		}
		fmt.Fprintf(b, " %s lat %s\n", sw.name, strings.Join(vals, " "))
	}
	entries, jerr := c2.JournalEntries("s1")
	if jerr != nil {
		t.Fatal(jerr)
	}
	fmt.Fprintf(b, " journal %d\n", len(entries))
	for i := range entries {
		fmt.Fprintf(b, "  %s\n", entries[i].Dump())
	}
	keys, _ := store.Keys("wal/")
	fmt.Fprintf(b, " records %d\n", len(keys))
}

func TestJournalRecoveryGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Journal recovery after a crash at each point (journal_golden_test.go).\n")
	b.WriteString("# window=0 is the serial WriteRegister. Regenerate (reviewed behaviour changes only): GOLDEN_UPDATE=1\n")
	for _, window := range journalPaths {
		for _, cr := range journalCrashes {
			journalGoldenRun(t, &b, window, cr)
		}
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(journalGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := b.String(); string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("journal recovery diverged from %s at line %d\n--- pinned\n%s\n--- got\n%s",
					journalGoldenPath, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("journal recovery diverged from %s: %d lines pinned, %d got", journalGoldenPath, len(wl), len(gl))
	}
}
