package pisa

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p4auth/internal/crypto"
)

// sharedProgram touches every kind of per-switch state: a register
// read-modify-write (indexes 4 and 5 wrap, bumping a counter), a random()
// draw and the ingress timestamp into the header, and a table whose
// entries forward or multicast (a miss drops, bumping another counter).
func sharedProgram() *Program {
	h := func(f string) FieldRef { return F("h", f) }
	return &Program{
		Name: "shared",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "idx", Width: 8},
			{Name: "old", Width: 32},
			{Name: "rnd", Width: 32},
			{Name: "ts", Width: 48},
		}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "cnt", Width: 32, Entries: 4}},
		Actions: []*Action{
			{Name: "fwd", Params: []FieldDef{{Name: "port", Width: 16}}, Body: []Op{
				Forward(R(F(ParamHeader, "port"))),
			}},
			{Name: "flood", Params: []FieldDef{{Name: "group", Width: 16}}, Body: []Op{
				Multicast(R(F(ParamHeader, "group"))),
			}},
			{Name: "drop_pkt", Body: []Op{Drop()}},
		},
		Tables: []*Table{{
			Name:    "route",
			Keys:    []TableKey{{Field: h("idx"), Match: MatchExact}},
			Size:    8,
			Actions: []string{"fwd", "flood", "drop_pkt"},
			Default: "drop_pkt",
		}},
		Control: []Op{
			RegRMW(h("old"), "cnt", R(h("idx")), RMWAdd, C(1)),
			Random(h("rnd")),
			Set(h("ts"), R(F(MetaHeader, MetaTimestamp))),
			Apply("route"),
		},
	}
}

// sharedSetup is one switch's runtime state: everything that must stay
// per-switch when two switches share a compilation.
type sharedSetup struct {
	seed, now uint64
	reg       uint64 // written to cnt[3] by the driver
	entries   []Entry
	group     []int // multicast group 7, if set
}

func (s sharedSetup) build(t *testing.T, c *Compiled) *Switch {
	t.Helper()
	sw := NewSwitchFromCompiled(c, WithRandom(crypto.NewSeededRand(s.seed)))
	sw.SetNow(s.now)
	if s.group != nil {
		sw.SetMulticastGroup(7, s.group)
	}
	for _, e := range s.entries {
		if err := sw.InsertEntry("route", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.RegisterWrite("cnt", 3, s.reg); err != nil {
		t.Fatal(err)
	}
	return sw
}

// drive sends n packets (idx 0..5 in turn) and renders every emission,
// then the registers and counters the run left.
func drive(sw *Switch, n int) ([]string, error) {
	var out []string
	var res Result
	for i := 0; i < n; i++ {
		pkt := []byte{byte(i % 6), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if err := sw.ProcessInto(Packet{Data: pkt, Port: 1}, &res); err != nil {
			return nil, err
		}
		for _, e := range res.Emissions {
			out = append(out, fmt.Sprintf("%d:%d:%x", i, e.Port, e.Data))
		}
	}
	for j := 0; j < 4; j++ {
		v, err := sw.RegisterRead("cnt", j)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("cnt[%d]=%d", j, v))
	}
	return append(out, fmt.Sprint(sw.CounterSnapshot())), nil
}

// TestSwitchesShareOneCompilation holds NewSwitchFromCompiled to its
// promise: two switches over one Compiled keep their own register
// writes, table entries, multicast groups, counters, random() stream and
// clock. Run concurrently (under -race in the gate), each gives exactly
// what it gives alone over a compilation of its own.
func TestSwitchesShareOneCompilation(t *testing.T) {
	setups := [2]sharedSetup{
		{seed: 1, now: 100, reg: 40, entries: []Entry{
			{Key: []KeyMatch{EKey(1)}, Action: "fwd", Params: []uint64{3}},
			{Key: []KeyMatch{EKey(2)}, Action: "fwd", Params: []uint64{4}},
		}},
		{seed: 2, now: 200, reg: 70, group: []int{2, 5}, entries: []Entry{
			{Key: []KeyMatch{EKey(1)}, Action: "flood", Params: []uint64{7}},
		}},
	}
	const n = 300
	var alone [2][]string
	for i, s := range setups {
		c, err := Compile(sharedProgram(), BMv2Profile())
		if err != nil {
			t.Fatal(err)
		}
		if alone[i], err = drive(s.build(t, c), n); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(alone[0]) == fmt.Sprint(alone[1]) {
		t.Fatal("the two setups give the same run; the test cannot tell them apart")
	}

	shared, err := Compile(sharedProgram(), BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	sws := [2]*Switch{setups[0].build(t, shared), setups[1].build(t, shared)}
	var got [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range sws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = drive(sws[i], n)
		}()
	}
	wg.Wait()
	for i := range sws {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if g, w := fmt.Sprint(got[i]), fmt.Sprint(alone[i]); g != w {
			t.Errorf("switch %d over a shared compilation:\n got %s\nwant %s", i, g, w)
		}
	}
}

// TestCompileOnceOneCompilation: eight goroutines asking for one new key
// at once all get one *Compiled, a later call returns it without
// building, and the profile is part of the key.
func TestCompileOnceOneCompilation(t *testing.T) {
	key := new(int) // no other call has used this key
	var builds atomic.Int32
	build := func() (*Program, error) {
		builds.Add(1)
		return testL3Program(), nil
	}
	var got [8]*Compiled
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := CompileOnce(key, BMv2Profile(), build)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, c, got[0])
		}
	}
	n := builds.Load()
	if c, err := CompileOnce(key, BMv2Profile(), build); err != nil || c != got[0] {
		t.Fatalf("later call: %p, %v; want %p", c, err, got[0])
	}
	if builds.Load() != n {
		t.Error("a cache hit built the program again")
	}
	tof, err := CompileOnce(key, TofinoProfile(), build)
	if err != nil {
		t.Fatal(err)
	}
	if tof == got[0] || tof.Profile.Name != "tofino" {
		t.Error("a second profile shares the first profile's compilation")
	}
}

// TestCompileOnceCachesNoError: a failed build or compile leaves the key
// free, so a later good build for it compiles.
func TestCompileOnceCachesNoError(t *testing.T) {
	key := new(int)
	boom := errors.New("boom")
	if _, err := CompileOnce(key, BMv2Profile(), func() (*Program, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("build error = %v, want %v", err, boom)
	}
	_, err := CompileOnce(key, BMv2Profile(), func() (*Program, error) {
		bad := testL3Program()
		bad.Registers[0].Width = 99
		return bad, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "pisa: compile test_l3 for bmv2: ") {
		t.Fatalf("compile error = %v", err)
	}
	c, err := CompileOnce(key, BMv2Profile(), func() (*Program, error) { return testL3Program(), nil })
	if err != nil || c == nil {
		t.Fatalf("good build after failures: %p, %v", c, err)
	}
}
