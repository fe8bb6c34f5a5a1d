package controller

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
	"p4auth/internal/pisa"
	"p4auth/internal/statestore"
)

// Golden for the windowed transport: every observable outcome of
// WriteRegisterBatch and ReadRegisterBatch under a fixed fault schedule,
// for seeds 1-3, windows 1, 8 and 32, with crash safety off and on. A
// change to the batch engine's internals must leave it byte-identical.
//
// Regenerate (reviewed behaviour changes only) with:
//
//	GOLDEN_UPDATE=1 go test -run TestBatchTransportGolden ./internal/controller/
const batchGoldenPath = "testdata/batch_transport.golden"

// batchPhase is one step of the golden's fault schedule: the control taps
// in force, and whether the switch's replay floor is first raised ahead
// of the controller's counter, as a lease-bumped snapshot restore leaves it.
type batchPhase struct {
	name       string
	out, in    func(seed uint64) netsim.Tap
	raiseFloor bool
	bogus      bool // one entry names a register the switch does not have
	// saturate moves the sequence counter three numbers below the top of
	// its space, where Next starts handing out one number repeatedly.
	saturate bool
}

var batchPhases = []batchPhase{
	{name: "clean"},
	{name: "loss",
		out: func(s uint64) netsim.Tap { return netsim.LossTap(0.15, s^0x10) },
		in:  func(s uint64) netsim.Tap { return netsim.LossTap(0.15, s^0x11) }},
	{name: "reorder", out: func(uint64) netsim.Tap { return netsim.ReorderTap() }},
	{name: "tamper", out: func(s uint64) netsim.Tap { return netsim.CorruptTap(4, s^0x12) }},
	{name: "floor", raiseFloor: true},
	{name: "blackhole", out: func(uint64) netsim.Tap { return netsim.LossTap(1, 0) }},
	{name: "mixed", bogus: true},
	{name: "saturated", saturate: true},
}

// batchGoldenSwitch builds the golden's switch: two registers of
// different widths; seed 2 runs HalfSipHash on the software target and
// seed 3 the encrypted variant.
func batchGoldenSwitch(t *testing.T, seed uint64) (*Controller, *deploy.Switch) {
	t.Helper()
	kind, profile := core.DigestCRC32, pisa.TofinoProfile()
	if seed == 2 {
		kind, profile = core.DigestHalfSipHash, pisa.BMv2Profile()
	}
	cfg := core.DefaultConfig(4, kind)
	cfg.Encrypt = seed == 3
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:     "s1",
		Ports:    4,
		Profile:  profile,
		Config:   &cfg,
		RandSeed: seed,
		Registers: []*pisa.RegisterDef{
			{Name: "lat", Width: 32, Entries: 8},
			{Name: "util", Width: 64, Entries: 16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(crypto.NewSeededRand(seed))
	if err := c.Register("s1", sw.Host, sw.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	pol := ResilientRetryPolicy()
	pol.MaxAttempts = 10
	c.SetRetryPolicy(pol)
	c.SetHealthPolicy(HealthPolicy{DegradeAfter: 1000, QuarantineAfter: 1000})
	return c, sw
}

// runLength renders a list of labels with consecutive repeats folded.
func runLength(labels []string) string {
	var b strings.Builder
	for i := 0; i < len(labels); {
		j := i
		for j < len(labels) && labels[j] == labels[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(labels[i])
		if j-i > 1 {
			fmt.Fprintf(&b, "*%d", j-i)
		}
		i = j
	}
	return b.String()
}

func errClasses(errs []error) string {
	labels := make([]string, len(errs))
	for i, err := range errs {
		labels[i] = "ok"
		if err != nil {
			labels[i] = causeOf(err)
		}
	}
	return runLength(labels)
}

// wireLog records what crossed the control channel's fault taps: the
// sequence number of every request the controller put on the wire (before
// the out tap), and hdrType/msgType:seq of every response delivered to
// it (after the in tap).
type wireLog struct{ out, in []wireItem }

type wireItem struct {
	tag string
	seq uint32
}

func (l *wireLog) taps(out, in netsim.Tap) (netsim.Tap, netsim.Tap) {
	logOut := func(d []byte) []byte {
		_, seq, _ := core.PeekControl(d)
		l.out = append(l.out, wireItem{seq: seq})
		if out == nil {
			return d
		}
		return out(d)
	}
	logIn := func(d []byte) []byte {
		if in != nil {
			if d = in(d); d == nil {
				return nil
			}
		}
		hdr, seq, _ := core.PeekControl(d)
		msg, _ := core.PeekMsgType(d)
		l.in = append(l.in, wireItem{tag: fmt.Sprintf("%d/%d:", hdr, msg), seq: seq})
		return d
	}
	return logOut, logIn
}

// foldWire renders a wire log with runs of consecutive sequence numbers
// under one tag folded to first-last.
func foldWire(items []wireItem) string {
	labels := make([]string, 0, len(items))
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].tag == items[i].tag && items[j].seq == items[j-1].seq+1 {
			j++
		}
		if j-i > 1 {
			labels = append(labels, fmt.Sprintf("%s%d-%d", items[i].tag, items[i].seq, items[j-1].seq))
		} else {
			labels = append(labels, fmt.Sprintf("%s%d", items[i].tag, items[i].seq))
		}
		i = j
	}
	return runLength(labels)
}

func (l *wireLog) flush(b *strings.Builder) {
	if len(l.out)+len(l.in) > 0 {
		fmt.Fprintf(b, "   out %s\n   in  %s\n", foldWire(l.out), foldWire(l.in))
	}
	l.out, l.in = l.out[:0], l.in[:0]
}

func batchGoldenRun(t *testing.T, b *strings.Builder, seed uint64, window int, crash bool) {
	c, sw := batchGoldenSwitch(t, seed)
	var st *statestore.Mem
	if crash {
		st = statestore.NewMem()
		if err := c.EnableCrashSafety(st); err != nil {
			t.Fatal(err)
		}
	}
	h, err := c.handle("s1")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== seed=%d window=%d crash=%v\n", seed, window, crash)
	r := seed * 0x9E3779B97F4A7C15
	next := func() uint64 {
		r += 0x9E3779B97F4A7C15
		z := r
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	var log wireLog
	for _, ph := range batchPhases {
		var out, in netsim.Tap
		if ph.out != nil {
			out = ph.out(seed)
		}
		if ph.in != nil {
			in = ph.in(seed)
		}
		if out != nil || in != nil {
			out, in = log.taps(out, in)
		}
		if err := c.SetControlTaps("s1", out, in); err != nil {
			t.Fatal(err)
		}
		if ph.saturate {
			h.seq.Resume(^uint32(0) - 3)
		}
		if ph.raiseFloor {
			if err := sw.Host.SW.RegisterWrite(core.RegSeq, 0, uint64(h.seq.Peek())+100); err != nil {
				t.Fatal(err)
			}
		}
		const n = 20
		writes := make([]RegWrite, n)
		reads := make([]RegRead, n)
		for i := range writes {
			x := next()
			w := RegWrite{Register: "lat", Index: uint32(x % 8), Value: x >> 32}
			if x%5 == 0 {
				w = RegWrite{Register: "util", Index: uint32(x % 16), Value: next()}
			}
			if ph.bogus && i == n/2 {
				w.Register = "bogus"
			}
			writes[i] = w
			reads[i] = RegRead{Register: w.Register, Index: w.Index}
		}
		fmt.Fprintf(b, "-- %s\n", ph.name)
		wbr, _ := c.WriteRegisterBatch("s1", window, writes)
		fmt.Fprintf(b, " W lat=%d rounds=%d failed=%d errs=%s\n", wbr.Lat, wbr.Rounds, wbr.Failed, errClasses(wbr.Errs))
		log.flush(b)
		rbr, _ := c.ReadRegisterBatch("s1", window, reads)
		vals := make([]string, len(rbr.Values))
		for i, v := range rbr.Values {
			vals[i] = fmt.Sprintf("%x", v)
		}
		fmt.Fprintf(b, " R lat=%d rounds=%d failed=%d errs=%s\n   vals %s\n",
			rbr.Lat, rbr.Rounds, rbr.Failed, errClasses(rbr.Errs), strings.Join(vals, " "))
		log.flush(b)
		floor, _ := sw.Host.SW.RegisterRead(core.RegSeq, 0)
		fmt.Fprintf(b, " floor=%d next=%d outstanding=%d\n", floor, h.seq.Peek(), h.seq.Outstanding())
	}
	if crash {
		entries, err := c.JournalEntries("s1")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "journal %d\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(b, " %d %s[%d]=%x %d\n", e.ID, e.Register, e.Index, e.Value, e.State)
		}
	}
	alerts := c.Alerts()
	labels := make([]string, len(alerts))
	for i, a := range alerts {
		labels[i] = fmt.Sprintf("%d:%d", a.Reason, a.SeqNum)
	}
	fmt.Fprintf(b, "alerts %d: %s\n", len(alerts), strings.Join(labels, " "))
	events := c.Observer().Audit.Events()
	fmt.Fprintf(b, "audit %d\n", len(events))
	for _, e := range events {
		fmt.Fprintf(b, " %s %s %d %d\n", e.Type, e.Cause, e.Seq, e.Value)
	}
	ctrs := c.Observer().Metrics.Snapshot().Counters
	names := make([]string, 0, len(ctrs))
	for name := range ctrs {
		if strings.HasPrefix(name, "ctl.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%s %d\n", name, ctrs[name])
	}
	for _, reg := range []struct {
		name string
		n    int
	}{{"lat", 8}, {"util", 16}} {
		vals := make([]string, reg.n)
		for i := range vals {
			v, _ := sw.Host.SW.RegisterRead(reg.name, i)
			vals[i] = fmt.Sprintf("%x", v)
		}
		fmt.Fprintf(b, "%s %s\n", reg.name, strings.Join(vals, " "))
	}
}

func TestBatchTransportGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Windowed C-DP transport under a fixed fault schedule (batch_golden_test.go).\n")
	b.WriteString("# Regenerate (reviewed behaviour changes only): GOLDEN_UPDATE=1\n")
	for seed := uint64(1); seed <= 3; seed++ {
		for _, window := range []int{1, 8, 32} {
			for _, crash := range []bool{false, true} {
				batchGoldenRun(t, &b, seed, window, crash)
			}
		}
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(batchGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := b.String(); string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("batch transport diverged from %s at line %d\n--- pinned\n%s\n--- got\n%s",
					batchGoldenPath, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("batch transport diverged from %s: %d lines pinned, %d got", batchGoldenPath, len(wl), len(gl))
	}
}
